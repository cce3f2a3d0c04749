"""Synthetic workloads for elastic Internet applications.

The paper's applications "roughly correspond to websites" whose demand "is
often hard to predict in advance".  We generate: Zipf-distributed
application popularity, diurnal demand curves, flash crowds, and session
arrival processes (MMPP) for session-level simulations.
"""

from repro.workload.popularity import zipf_weights, allocate_vip_counts
from repro.workload.demand import (
    ConstantDemand,
    DemandProcess,
    DiurnalDemand,
    FlashCrowdDemand,
    StepDemand,
)
from repro.workload.arrivals import MMPPArrivals, lognormal_durations
from repro.workload.apps import AppSpec
from repro.workload.generator import WorkloadBuilder
from repro.workload.streaming import StreamingWorkload

__all__ = [
    "zipf_weights",
    "allocate_vip_counts",
    "DemandProcess",
    "ConstantDemand",
    "DiurnalDemand",
    "FlashCrowdDemand",
    "StepDemand",
    "MMPPArrivals",
    "lognormal_durations",
    "AppSpec",
    "WorkloadBuilder",
    "StreamingWorkload",
]
