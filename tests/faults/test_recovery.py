"""End-to-end fault recovery: crash it, watch the knobs put it back.

Everything here is deterministic — the same seed must produce the same
recovery trace, event for event.
"""

import pytest

from repro.core import MegaDataCenter, PlatformConfig
from repro.faults import FaultInjector, FaultSchedule, RecoveryMonitor
from repro.hosts.vm import VMState
from repro.sim import RngHub
from repro.workload import WorkloadBuilder


def build_dc(n_apps=10, seed=0, **kwargs):
    apps = WorkloadBuilder(
        n_apps=n_apps,
        total_gbps=6.0,
        diurnal_fraction=0.0,
        rng_hub=RngHub(seed),
    ).build()
    return MegaDataCenter(
        apps,
        config=PlatformConfig(),
        n_pods=3,
        servers_per_pod=8,
        n_switches=4,
        **kwargs,
    )


def inject(dc, events):
    monitor = RecoveryMonitor()
    injector = FaultInjector(dc, FaultSchedule.from_events(events), monitor)
    return injector, monitor


# -- server crash ----------------------------------------------------------
def test_server_crash_kills_vms_and_replaces_demand():
    dc = build_dc()
    dc.run(120.0)
    victim = next(
        s for m in dc.pod_managers.values() for s in m.pod.servers if s.vms
    )
    doomed = list(victim.vms)
    _, monitor = inject(dc, [(130.0, "server_crash", victim.name)])
    dc.run(180.0)  # past detection + re-placement
    assert all(vm.state is VMState.STOPPED for vm in doomed)
    assert victim.pod is None
    assert victim.name in dc._crashed_servers
    # no switch still balances traffic to a corpse
    for info in dc.state.rips.values():
        assert info.vm.host != victim.name
        assert info.vm.is_serving
    tally = monitor.mttr("server")
    assert tally is not None and tally.count == 1
    assert tally.mean == pytest.approx(dc.config.fault_detection_s)
    assert dc.invariants_ok()


def test_server_crash_via_injector_invalidates_resident_state():
    """A SERVER_CRASH delivered by the real injector: the detection-time
    re-placement solves through the engine on the shrunken pod.  The
    recovered state is identical whether the engine ran serial or
    parallel."""
    outcomes = {}
    for parallelism in (1, 2):
        dc = build_dc(parallelism=parallelism)
        dc.run(120.0)
        victim = next(
            s for m in dc.pod_managers.values() for s in m.pod.servers if s.vms
        )
        inject(dc, [(130.0, "server_crash", victim.name)])
        dc.run(180.0)
        assert dc.invariants_ok()
        outcomes[parallelism] = sorted(
            (rip, info.vm.host, info.vm.app)
            for rip, info in dc.state.rips.items()
        )
        dc.close()
    assert outcomes[1] == outcomes[2]


def test_server_recover_rejoins_pod():
    dc = build_dc()
    dc.run(120.0)
    victim = next(
        s for m in dc.pod_managers.values() for s in m.pod.servers if s.vms
    )
    home = victim.pod
    inject(
        dc,
        [
            (130.0, "server_crash", victim.name),
            (400.0, "server_recover", victim.name),
        ],
    )
    dc.run(400.0)
    assert victim.pod == home
    assert victim.name not in dc._crashed_servers
    assert victim.is_empty  # came back blank; placement refills it
    dc.run(200.0)
    assert dc.invariants_ok()


def test_crash_spills_to_server_transfer_when_pod_short():
    """Losing most of a pod overwhelms in-pod re-placement; the global
    manager must pull donor servers (K3)."""
    dc = build_dc(n_apps=8)
    dc.run(120.0)
    pod = dc.pod_managers["pod-0"].pod
    survivors = 2
    events = [
        (130.0 + i, "server_crash", s.name)
        for i, s in enumerate(pod.servers[: pod.n_servers - survivors])
    ]
    _, monitor = inject(dc, events)
    dc.run(600.0)
    # K3 happened: the pod holds more servers than the crash left it.
    assert pod.n_servers > survivors
    assert monitor.mttr("server").count == len(events)
    assert dc.invariants_ok()


# -- switch failure --------------------------------------------------------
def test_switch_failure_rehomes_all_vips():
    dc = build_dc()
    dc.run(120.0)
    victim = max(dc.switches.values(), key=lambda s: (s.num_vips, s.name))
    n_vips = victim.num_vips
    assert n_vips > 0
    _, monitor = inject(dc, [(130.0, "switch_fail", victim.name)])
    dc.run(300.0)
    # every VIP found a healthy home
    assert victim.num_vips == 0
    for vip, info in dc.state.vips.items():
        assert info.switch != victim.name
        assert dc.switches[info.switch].has_vip(vip)
    tally = monitor.mttr("switch")
    assert tally is not None and tally.count == 1
    assert tally.mean > dc.config.fault_detection_s  # detection + moves
    assert dc.invariants_ok()


def test_switch_failure_serialized_mode():
    dc = build_dc(serialized_reconfig=True)
    dc.run(120.0)
    victim = max(dc.switches.values(), key=lambda s: (s.num_vips, s.name))
    _, monitor = inject(dc, [(130.0, "switch_fail", victim.name)])
    dc.run(600.0)
    assert victim.num_vips == 0
    assert all(info.switch != victim.name for info in dc.state.vips.values())
    assert monitor.mttr("switch").count == 1
    assert dc.invariants_ok()


def test_switch_recovery_before_detection_keeps_vips_in_place():
    """A blip shorter than the detection delay must not trigger moves."""
    dc = build_dc()
    dc.run(120.0)
    victim = max(dc.switches.values(), key=lambda s: (s.num_vips, s.name))
    n_before = victim.num_vips
    inject(
        dc,
        [
            (130.0, "switch_fail", victim.name),
            (133.0, "switch_recover", victim.name),
        ],
    )
    dc.run(300.0)
    assert victim.num_vips == n_before
    assert not dc.state.failed_switches
    assert dc.invariants_ok()


def test_dns_never_exposes_vip_on_failed_switch():
    dc = build_dc()
    dc.run(120.0)
    victim = max(dc.switches.values(), key=lambda s: (s.num_vips, s.name))
    inject(dc, [(130.0, "switch_fail", victim.name)])
    dc.run(60.0)  # detection passed; re-homes may still be in flight
    for app, spec in dc.specs.items():
        for vip, weight in dc.authority.weights(app).items():
            if dc.state.vips[vip].switch == victim.name:
                assert weight == 0.0


# -- link failure ----------------------------------------------------------
def test_link_failure_steers_dns_away():
    dc = build_dc()
    dc.run(120.0)
    link = sorted(dc.internet.links)[0]
    affected = [v for v, info in dc.state.vips.items() if info.link == link]
    assert affected
    _, monitor = inject(dc, [(130.0, "link_down", link)])
    dc.run(120.0)
    assert not dc.internet.link(link).is_up
    for vip in affected:
        app = dc.state.vips[vip].app
        # zero weight unless the app would be fully dark without it
        weights = dc.authority.weights(app)
        if any(w > 0 for v, w in weights.items() if v not in affected):
            assert weights[vip] == 0.0
    assert monitor.mttr("link").count == 1
    assert monitor.mttr("link").mean == pytest.approx(dc.config.fault_detection_s)


def test_link_recovery_restores_exposure():
    dc = build_dc()
    dc.run(120.0)
    link = sorted(dc.internet.links)[0]
    affected = [v for v, info in dc.state.vips.items() if info.link == link]
    inject(
        dc,
        [(130.0, "link_down", link), (400.0, "link_up", link)],
    )
    dc.run(500.0)
    assert dc.internet.link(link).is_up
    served = [v for v in affected if dc.authority.weights(dc.state.vips[v].app).get(v, 0) > 0]
    assert served  # laggards return once the link is back


# -- dropped demand and determinism ---------------------------------------
def test_blackout_drops_are_accounted():
    dc = build_dc()
    dc.run(120.0)
    victim = max(dc.switches.values(), key=lambda s: (s.num_vips, s.name))
    # Fail just before an epoch boundary: the epoch must observe the
    # blackout before detection (10 s later) starts the re-homing.
    _, monitor = inject(dc, [(179.0, "switch_fail", victim.name)])
    dc.run(240.0)
    assert monitor.dropped_gb > 0


def _trace_for(seed):
    dc = build_dc(seed=seed)
    schedule = FaultSchedule.random(
        seed=seed,
        duration_s=1800.0,
        servers=sorted(dc.state.servers)[:6],
        switches=sorted(dc.switches)[:2],
        links=sorted(dc.internet.links)[:1],
        mtbf_s=900.0,
        mttr_s=240.0,
    )
    monitor = RecoveryMonitor()
    FaultInjector(dc, schedule, monitor)
    dc.run(1800.0)
    return monitor.records


def test_same_seed_same_recovery_trace():
    t1 = _trace_for(11)
    t2 = _trace_for(11)
    assert t1 == t2
    assert len(t1) > 0


def test_different_seed_different_trace():
    assert _trace_for(11) != _trace_for(12)
