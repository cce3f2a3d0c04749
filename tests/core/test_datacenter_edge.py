"""Failure injection and edge cases for the datacenter facade."""

import pytest

from repro.core import MegaDataCenter, PlatformConfig
from repro.core.config import PlatformConfig as PC
from repro.lbswitch.switch import SwitchLimits
from repro.workload.apps import AppSpec
from repro.workload.demand import ConstantDemand


def small_apps(n=4, gbps=1.0, n_vips=2):
    return [
        AppSpec(f"a{i}", 1.0 / n, ConstantDemand(gbps), n_vips=n_vips)
        for i in range(n)
    ]


def test_vip_table_overflow_at_build_raises():
    config = PlatformConfig(switch_limits=SwitchLimits(max_vips=2, max_rips=100))
    with pytest.raises(RuntimeError, match="VIP table full"):
        MegaDataCenter(
            small_apps(8, n_vips=3),
            config=config,
            n_pods=2,
            servers_per_pod=4,
            n_switches=2,  # 6 slots < 24 VIPs
        )


def test_sizing_default_switch_count_respects_limits():
    # With no n_switches given the facade sizes the fabric itself.
    config = PlatformConfig(switch_limits=SwitchLimits(max_vips=4, max_rips=100))
    dc = MegaDataCenter(
        small_apps(8, n_vips=3),
        config=config,
        n_pods=2,
        servers_per_pod=6,
    )
    assert len(dc.switches) >= 6  # 24 VIPs / 4 per switch
    assert dc.invariants_ok()


def test_drained_vip_stays_drained_across_wiring_changes():
    dc = MegaDataCenter(
        small_apps(3, gbps=2.0), config=PlatformConfig(), n_pods=2,
        servers_per_pod=6, n_switches=4,
    )
    app = "a0"
    vips = dc.state.app_vips[app]
    # Deliberately drain the first VIP (as K1/K2 would).
    weights = dc.authority.weights(app)
    weights[vips[0]] = 0.0
    dc.authority.configure(app, weights)
    # A wiring change must not resurrect it.
    dc._ensure_exposure(app)
    assert dc.authority.weights(app)[vips[0]] == 0.0


def test_ensure_exposure_falls_back_when_all_drained():
    dc = MegaDataCenter(
        small_apps(2), config=PlatformConfig(), n_pods=2,
        servers_per_pod=6, n_switches=4,
    )
    app = "a0"
    vips = dc.state.app_vips[app]
    dc.authority.configure(app, {v: 0.0 if i == 0 else 1.0 for i, v in enumerate(vips)})
    # Strip the only serving weight too -> configure would reject all-zero,
    # so simulate by draining every vip except a serving one, then removing
    # its rips from the switch.
    serving = [
        v for v in vips if dc.state.switch_of_vip(v).entry(v).rips
    ]
    assert serving  # sanity
    # Drop all RIPs of the app from switches (simulated total failure).
    for v in vips:
        sw = dc.state.switch_of_vip(v)
        for rip in list(sw.entry(v).rips):
            sw.remove_rip(v, rip)
    dc._ensure_exposure(app)  # must not crash; keeps the old zone
    assert set(dc.authority.weights(app)) == set(vips)


def test_wire_rip_skips_when_no_vip_available():
    dc = MegaDataCenter(
        small_apps(2), config=PlatformConfig(), n_pods=2,
        servers_per_pod=6, n_switches=4,
    )
    app = "a0"
    # Remove all the app's VIPs from their switches (mid-transfer worst case).
    for v in dc.state.app_vips[app]:
        sw = dc.state.switch_of_vip(v)
        sw.remove_vip(v)
    from repro.hosts.vm import VM, VMState

    vm = VM("x@nowhere", app, 0.1, 1.0, state=VMState.RUNNING, rip="10.99.0.1")
    dc._wire_rip(vm)  # must not raise
    assert "10.99.0.1" not in dc.state.rips


def test_unwire_rip_tolerates_missing_vip():
    dc = MegaDataCenter(
        small_apps(2), config=PlatformConfig(), n_pods=2,
        servers_per_pod=6, n_switches=4,
    )
    rip, info = next(iter(dc.state.rips.items()))
    sw = dc.state.switch_of_vip(info.vip)
    sw.remove_vip(info.vip)  # VIP disappears mid-transfer
    dc._unwire_rip(info.vm)  # must not raise
    assert rip not in dc.state.rips


def test_zero_demand_app_keeps_min_instances():
    apps = [
        AppSpec("ghost", 0.5, ConstantDemand(0.0), n_vips=2, min_instances=1),
        AppSpec("busy", 0.5, ConstantDemand(2.0), n_vips=2),
    ]
    dc = MegaDataCenter(
        apps, config=PlatformConfig(), n_pods=2, servers_per_pod=6, n_switches=4
    )
    dc.run(5 * 60.0)
    ghost_rips = [r for r, i in dc.state.rips.items() if i.app == "ghost"]
    assert len(ghost_rips) >= 1  # never fully deprovisioned
    assert dc.invariants_ok()


def test_many_pods_few_servers_still_works():
    dc = MegaDataCenter(
        small_apps(6, gbps=0.3),
        config=PlatformConfig(),
        n_pods=6,
        servers_per_pod=1,
        n_switches=4,
    )
    dc.run(5 * 60.0)
    assert dc.satisfied.current > 0.95
    assert dc.invariants_ok()


def test_config_validation():
    # A zero pod limit is rejected, not replaced by the paper default.
    with pytest.raises(ValueError):
        MegaDataCenter(small_apps(2), n_pods=1, servers_per_pod=1, pod_max_servers=0)
    with pytest.raises(ValueError):
        PC(overload_threshold=0.0)
    with pytest.raises(ValueError):
        PC(donor_threshold=0.9, overload_threshold=0.8)
    with pytest.raises(ValueError):
        PC(epoch_s=0)


def test_instant_rehome_skips_a_target_whose_rip_room_filled_meanwhile():
    dc = MegaDataCenter(
        small_apps(2, n_vips=1), n_pods=2, servers_per_pod=4, n_switches=3,
    )
    dc.run(60.0)
    vip = sorted(dc.state.vips)[0]
    src = dc.switches[dc.state.vips[vip].switch]
    n_rips = len(src.entry(vip).rips)
    assert n_rips > 0
    others = sorted(n for n in dc.switches if n != src.name)
    first = min(others, key=lambda n: (dc.switches[n].utilization, n))
    out = []

    def rehome():
        out.append((yield from dc._rehome_vip(vip, src.name)))

    dc.env.process(rehome())
    dc.env.run(until=dc.env.now + 1.0)  # reconfiguring *first*
    # Fill *first*'s RIP table so the entry no longer fits there.
    target = dc.switches[first]
    target.add_vip("203.9.9.9", "filler")
    while target.rip_slots_free >= n_rips:
        target.add_rip("203.9.9.9", f"filler/{target.num_rips}", 1.0)
    dc.env.run(until=dc.env.now + 60.0)
    (second,) = set(others) - {first}
    assert out == [True]
    assert dc.state.vips[vip].switch == second
    assert dc.switches[second].has_vip(vip) and not src.has_vip(vip)
    dc.close()
