"""Statistics and reporting used by experiments and benchmarks."""

from repro.analysis.stats import max_mean_ratio
from repro.analysis.reporting import Table

__all__ = [
    "max_mean_ratio",
    "Table",
]
