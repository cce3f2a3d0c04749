"""Long-run stability: a full diurnal day with every manager active.

Guards against slow drifts the per-epoch tests cannot see: monotonic
reconfiguration growth, RIP-pool leaks, stuck overload streaks, invariant
erosion.
"""

import numpy as np
import pytest

from repro.core import MegaDataCenter, PlatformConfig
from repro.sim import RngHub
from repro.workload import WorkloadBuilder

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def day_run():
    apps = WorkloadBuilder(
        n_apps=18,
        total_gbps=12.0,
        diurnal_fraction=1.0,
        rng_hub=RngHub(11),
    ).build()
    dc = MegaDataCenter(
        apps,
        config=PlatformConfig(epoch_s=600.0),  # 10-min epochs
        n_pods=3,
        servers_per_pod=10,
        n_switches=4,
    )
    dc.run(86400.0)  # one simulated day
    return dc


def test_day_satisfied_throughout(day_run):
    values = day_run.satisfied.values()
    assert values.min() > 0.95
    assert day_run.satisfied.time_average() > 0.99


def test_day_invariants_hold(day_run):
    assert day_run.invariants_ok()


def test_day_no_rip_pool_leak(day_run):
    live_vms = sum(m.pod.n_vms for m in day_run.pod_managers.values())
    assert len(day_run.rip_pool._allocated) == live_vms


def test_day_reconfiguration_rate_bounded(day_run):
    # Diurnal adaptation reconfigures, but not unboundedly: on the order
    # of a few RIP changes per app per day, not per epoch.
    per_app_per_day = day_run.state.reconfigurations / len(day_run.specs)
    assert per_app_per_day < 40


def test_day_no_stuck_overload(day_run):
    gm = day_run.global_manager
    assert all(streak < 20 for streak in gm._overload_streak.values())


def test_day_pod_utilization_tracks_demand(day_run):
    # At least one pod's utilization series shows the diurnal swing.
    swings = []
    for series in day_run.pod_util.values():
        vals = series.values()
        if len(vals) > 10:
            swings.append(vals.max() - vals.min())
    assert max(swings) > 0.1
