"""Columnar steering layer: chunk invariance, knobs, driver integration."""

import re

import numpy as np
import pytest

from repro.core.mega import (
    MegaConfig,
    MegaControlPlaneConfig,
    MegaScaleDriver,
    MegaSteeringConfig,
)
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.obs.audit import InvariantAuditor
from repro.obs.trace import TraceBus

CP = MegaControlPlaneConfig(wired_apps=16, vips_per_app=2)


def make_driver(trace=None, **steer_over):
    steer_over.setdefault("requests_per_epoch", 3000)
    steer_over.setdefault("n_resolvers", 150)
    steer_over.setdefault("chunk_requests", 512)
    steer_over.setdefault("switch_max_connections", 1500)
    return MegaScaleDriver(
        MegaConfig.tiny(),
        trace=trace,
        control_plane=CP,
        steering=MegaSteeringConfig(**steer_over),
    )


def epoch_key(report):
    return (
        report.requests, report.dns_hits, report.dns_misses,
        report.conns_opened, report.conns_rejected, report.conns_closed,
        report.unserved,
    )


@pytest.mark.parametrize("chunk", [64, 997, 3000])
def test_chunk_size_cannot_change_outcomes(chunk):
    base = make_driver(chunk_requests=512)
    other = make_driver(chunk_requests=chunk)
    for _ in range(3):
        a, b = base.run_epoch(), other.run_epoch()
        assert epoch_key(a) == epoch_key(b)
    assert base.dataplane.live_pairs() == other.dataplane.live_pairs()
    base.close()
    other.close()


def test_zero_chunk_size_is_rejected():
    # Only None means "steer the whole epoch as one chunk".
    with pytest.raises(ValueError, match="chunk_requests must be positive"):
        make_driver(chunk_requests=0)


def test_steer_reports_balance():
    with make_driver() as drv:
        for _ in range(3):
            r = drv.run_epoch()
            assert r.conns_opened + r.conns_rejected + r.unserved == r.requests
            assert r.dns_hits + r.dns_misses == r.requests
            assert drv.dataplane.conn.alive_count >= 0


def test_k1_resteer_moves_answer_mass():
    with make_driver(ttl_s=0.0) as drv:
        app = drv._app_name(0)
        vips = sorted(drv.dataplane.dns.zone(app))
        assert len(vips) == 2
        drv.k1_resteer(app, {vips[0]: 1000.0, vips[1]: 1.0})
        assert drv.dataplane.dns.zone(app)[vips[0]] == 1000.0
        drv.run_epoch()
        reg = drv.bridge.registry
        hot = drv.dataplane.conn.count_for_vip(reg.vips.get(vips[0]))
        cold = drv.dataplane.conn.count_for_vip(reg.vips.get(vips[1]))
        assert hot > 10 * max(cold, 1)


def home_switch(drv, vip):
    """The one switch the registry homes *vip*'s active RIPs on."""
    reg = drv.bridge.registry
    n = reg.n_rips
    rows = (reg.rip_vip[:n] == reg.vips.get(vip)) & reg.rip_active[:n]
    (sid,) = set(reg.rip_switch[:n][rows].tolist())
    return reg.switches.name(sid)


def test_k2_blocked_without_pause_then_forced():
    with make_driver() as drv:
        drv.run_epoch()
        app = drv._app_name(0)
        vip = next(
            v for v in sorted(drv.dataplane.dns.zone(app))
            if not drv.dataplane.is_paused(v)
        )
        src = drv.dataplane.switch_of_vip(vip)
        assert src == home_switch(drv, vip)
        assert drv.k2_rehome(app, vip) is False  # live conns: blocked
        assert drv.dataplane.switch_of_vip(vip) == src
        dropped0 = drv.dataplane.conn.dropped
        moved = drv.k2_rehome(app, vip, force=True)
        assert drv.dataplane.conn.dropped > dropped0
        assert drv.dataplane.is_paused(vip)
        assert moved
        assert drv.dataplane.switch_of_vip(vip) == home_switch(drv, vip) != src


def test_pod_loss_drops_pinned_sessions_and_unserves():
    with make_driver() as drv:
        drv.run_epoch()
        assert drv.dataplane.conn.dropped == 0
        drv.lose_pod("pod-001", t=60.0)
        assert drv.dataplane.conn.dropped > 0
        # no live session may reference a dead-pod RIP
        reg = drv.bridge.registry
        pid = reg.pods.get("pod-001")
        live_rips = np.array(
            [r for _, r in drv.dataplane.conn.live_pairs()], dtype=np.int64
        )
        assert not (reg.rip_pod[live_rips] == pid).any()


def test_rewiring_a_rip_with_live_sessions_is_refused():
    # A RIP's sessions are counted under its (VIP, switch): the registry
    # may not move a RIP that has live sessions to another VIP.
    with make_driver() as drv:
        drv.run_epoch()
        dp, reg = drv.dataplane, drv.bridge.registry
        (_, rid), _ = sorted(dp.conn.live_pairs().items())[0]
        rip = reg.rips.name(rid)
        app, vip, switch, pod, weight = reg.homing(rip)
        other = next(v for v in sorted(dp.dns.zone(app)) if v != vip)
        before = (dp.conn.live_pairs(), dp.conn.switch_count.tolist())
        reg.wire(rip, app, other, switch, pod, weight)
        with pytest.raises(ValueError, match=f"{re.escape(rip)} has .* live"):
            dp.refresh()
        assert (dp.conn.live_pairs(), dp.conn.switch_count.tolist()) == before
        # Once its sessions are gone the RIP may serve the other VIP.
        mask = np.zeros(reg.n_rips, dtype=bool)
        mask[rid] = True
        assert dp.conn.drop_rips(mask) > 0
        assert dp.refresh()
        assert dp.conn.rip_vip[rid] == reg.vips.get(other)


def active_vips(reg):
    n = reg.n_rips
    return {reg.vips.name(int(v)) for v in reg.rip_vip[:n][reg.rip_active[:n]]}


def test_unserved_vips_are_counted_then_served_again():
    # pod-001 holds every RIP of some wired VIPs: while it is down their
    # requests are unserved, exactly those and no others.
    with make_driver() as drv:
        dp, reg = drv.dataplane, drv.bridge.registry
        drv.run_epoch()
        assert dp.all_served
        pid = reg.pods.get("pod-001")
        n = reg.n_rips
        rows = np.flatnonzero(reg.rip_active[:n] & (reg.rip_pod[:n] == pid))
        homes = {reg.rips.name(int(r)): reg.homing(reg.rips.name(int(r))) for r in rows}
        drv.lose_pod("pod-001", t=60.0)
        dp.record_outcomes = True
        rep = dp.steer_epoch(1, t=60.0)
        assert not dp.all_served
        served = active_vips(reg)
        assert len(served) < len(reg.vips)
        dark = [v not in served for v in rep.outcomes["vip"]]
        assert rep.unserved == sum(dark) > 0
        assert [r is None for r in rep.outcomes["rip"]] == dark
        assert rep.opened + rep.rejected + rep.unserved == rep.requests
        for rip, (app, vip, switch, pod, weight) in homes.items():
            reg.wire(rip, app, vip, switch, pod, weight)
        assert len(active_vips(reg)) == len(reg.vips)
        assert dp.refresh() and dp.all_served
        rep = dp.steer_epoch(2, t=120.0)
        assert rep.unserved == 0
        assert None not in rep.outcomes["rip"]
        assert rep.opened + rep.rejected == rep.requests


def test_knob_schedule_and_trace_events():
    trace = TraceBus()
    drv = make_driver(trace=trace, knob_period=2)
    seen = []
    trace.subscribe(lambda ev: seen.append(ev))
    auditor = InvariantAuditor(columnar=drv, strict=True).attach(trace)
    for _ in range(4):
        drv.run_epoch()
    kinds = [ev.kind for ev in seen]
    assert kinds.count("dataplane.steer") == 4
    assert kinds.count("dataplane.conntrack") == 4
    knob_events = [ev for ev in seen if ev.kind == "knob"]
    assert any(ev.data["knob"] == "K1" for ev in knob_events)
    assert auditor.ok
    assert drv.dataplane.dns.weight_updates == 1  # epoch 2 fired K1
    drv.close()


def test_scripted_knob_queue_runs_inside_epoch():
    with make_driver() as drv:
        app = drv._app_name(1)
        vips = sorted(drv.dataplane.dns.zone(app))
        drv.queue_knob(1, ("k1", app, {vips[0]: 9.0, vips[1]: 1.0}))
        drv.run_epoch()
        assert drv.dataplane.dns.zone(app)[vips[0]] == 1.0  # not yet
        drv.run_epoch()
        assert drv.dataplane.dns.zone(app)[vips[0]] == 9.0
        with pytest.raises(ValueError):
            drv.queue_knob(3, ("k9", app, {}))


def test_fault_injected_epoch_accounts_drops_in_report():
    drv = make_driver()
    from repro.faults.mega import MegaFaultInjector

    schedule = FaultSchedule([
        FaultEvent(120.0, FaultKind.POD_LOSS, "pod-002"),
        FaultEvent(240.0, FaultKind.POD_RESTORE, "pod-002"),
    ])
    MegaFaultInjector(drv, schedule)
    reports = [drv.run_epoch() for _ in range(5)]
    assert reports[2].conns_dropped > 0
    assert sum(r.conns_dropped for r in reports) == drv.dataplane.conn.dropped
    drv.close()


def test_steering_requires_control_plane():
    with pytest.raises(ValueError):
        MegaScaleDriver(
            MegaConfig.tiny(), steering=MegaSteeringConfig()
        )


def test_vip_overflow_fails_at_wiring_naming_the_limit():
    # 1,024 apps x 2 VIPs cannot fit 4 switches x 256 VIP slots.
    cp = MegaControlPlaneConfig(wired_apps=1024, vips_per_app=2)
    with pytest.raises(ValueError) as err:
        MegaScaleDriver(MegaConfig.quick(), control_plane=cp)
    msg = str(err.value)
    assert "max_vips" in msg and "app-000487" in msg


def test_rip_overflow_fails_at_wiring_naming_the_limit():
    cp = MegaControlPlaneConfig(wired_apps=16, max_rips=2)
    with pytest.raises(ValueError, match="max_rips") as err:
        MegaScaleDriver(MegaConfig.tiny(), control_plane=cp)
    assert "first app left unplaced: app-" in str(err.value)

