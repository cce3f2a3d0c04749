"""The imbalance index, including its empty-input contract (it raises)."""

import pytest

from repro.analysis.stats import max_mean_ratio


def test_max_mean_ratio():
    assert max_mean_ratio([2.0, 2.0, 2.0]) == 1.0
    assert max_mean_ratio([0.0, 0.0]) == 1.0  # all-zero convention
    assert max_mean_ratio([1.0, 3.0]) == pytest.approx(1.5)


@pytest.mark.parametrize("fn", [max_mean_ratio])
def test_ratio_indices_reject_empty_and_negative(fn):
    with pytest.raises(ValueError, match="empty"):
        fn([])
    with pytest.raises(ValueError, match="negative"):
        fn([1.0, -0.5])
