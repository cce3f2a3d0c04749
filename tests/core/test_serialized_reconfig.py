"""The serialized VIP/RIP manager path through the facade (Section III-C)."""

import pytest

from repro.core import MegaDataCenter, PlatformConfig
from repro.workload.apps import AppSpec
from repro.workload.demand import ConstantDemand, StepDemand


def build(apps, **kwargs):
    defaults = dict(
        n_pods=3, servers_per_pod=6, n_switches=4, serialized_reconfig=True
    )
    defaults.update(kwargs)
    return MegaDataCenter(apps, config=PlatformConfig(), **defaults)


def test_serialized_facade_builds_and_runs():
    apps = [AppSpec(f"a{i}", 0.25, ConstantDemand(1.0), n_vips=2) for i in range(4)]
    dc = build(apps)
    assert dc.viprip is not None
    dc.run(10 * 60.0)
    assert dc.satisfied.current > 0.95
    assert dc.invariants_ok()


def test_serialized_wiring_pays_latency():
    # A demand step forces new instances; with serialized reconfig their
    # RIPs appear only after the manager processed the requests.
    apps = [
        AppSpec("hot", 0.5, StepDemand(before=0.5, after=6.0, at=300.0), n_vips=2),
        AppSpec("cold", 0.5, ConstantDemand(0.5), n_vips=2),
    ]
    dc = build(apps)
    dc.run(300.0 + 30.0)  # just after the step: requests queued/served
    queued_or_done = dc.viprip.processed + len(dc.viprip._heap)
    dc.run(20 * 60.0)
    assert dc.viprip.processed >= 1  # requests actually flowed
    assert dc.satisfied.current > 0.95
    assert dc.invariants_ok()
    # no wiring requests stuck forever
    assert not dc.viprip._heap
    assert not dc._pending_wirings


def test_serialized_scale_down_deletes_rips():
    apps = [
        AppSpec("burst", 0.5, StepDemand(before=5.0, after=0.3, at=600.0), n_vips=2),
        AppSpec("steady", 0.5, ConstantDemand(1.0), n_vips=2),
    ]
    dc = build(apps)
    dc.run(30 * 60.0)
    # scale-down went through del_rip requests, tables stayed consistent
    live_rips = {r for r in dc.state.rips}
    for sw in dc.switches.values():
        for vip in sw.vips():
            for rip in sw.entry(vip).rips:
                assert rip in live_rips or rip in dc._pending_wirings
    assert dc.invariants_ok()


def test_serialized_matches_instant_satisfaction_in_steady_state():
    apps = [AppSpec(f"a{i}", 0.25, ConstantDemand(1.0), n_vips=2) for i in range(4)]
    instant = MegaDataCenter(
        apps, config=PlatformConfig(), n_pods=3, servers_per_pod=6, n_switches=4
    )
    serial = build(
        [AppSpec(f"a{i}", 0.25, ConstantDemand(1.0), n_vips=2) for i in range(4)]
    )
    instant.run(15 * 60.0)
    serial.run(15 * 60.0)
    assert serial.satisfied.current == pytest.approx(instant.satisfied.current, abs=0.02)


def test_lazy_recycle_pool_defers_reuse():
    from repro.lbswitch.addresses import AddressPool

    pool = AddressPool("10.0.0.0", 4, lazy_recycle=True)
    a = pool.allocate()
    pool.release(a)
    b = pool.allocate()
    assert b != a  # fresh preferred
    pool.allocate()
    pool.allocate()
    # now only the freed address remains
    assert pool.allocate() == a
    with pytest.raises(RuntimeError, match="exhausted"):
        pool.allocate()