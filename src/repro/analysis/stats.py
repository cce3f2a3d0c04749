"""Imbalance index.

``max_mean_ratio`` is the scalar summary the load-balancing experiments
report: 1.0 means perfectly balanced; the paper's overload arguments are
about keeping this near 1 everywhere.
"""

from __future__ import annotations

import numpy as np


def max_mean_ratio(values) -> float:
    """max/mean; 1.0 when all equal.  All-zero input returns 1.0."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("empty value set")
    if (x < 0).any():
        raise ValueError("negative loads are not meaningful here")
    m = x.mean()
    if m == 0:
        return 1.0
    return float(x.max() / m)
