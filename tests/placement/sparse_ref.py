"""Reference views of a ``SparsePlacement`` that tests check the solver's
and the columnar pod state's own bookkeeping against."""

import numpy as np


def placement_keys(p) -> np.ndarray:
    """Sorted flat entry keys ``server * A + app``."""
    return p.rows() * np.int64(p.shape[1]) + p.indices


def sparse_count_changes(before, after) -> int:
    """Placement churn (starts + stops) between two CSR placements, as a
    general key-set difference."""
    kb, ka = placement_keys(before), placement_keys(after)
    common = np.intersect1d(kb, ka, assume_unique=True).size
    return int(kb.size + ka.size - 2 * common)


def same_placement(a, b) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
    )
