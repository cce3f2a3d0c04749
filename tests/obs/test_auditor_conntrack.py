"""The auditor's ``dataplane-conntrack`` sweep: each close-epoch bucket's
booked per-switch and per-VIP counts are held to the counts derived from
its per-RIP counts through the RIP bindings."""

import numpy as np

from repro.core.mega import (
    MegaConfig,
    MegaControlPlaneConfig,
    MegaScaleDriver,
    MegaSteeringConfig,
)
from repro.obs.audit import InvariantAuditor
from repro.obs.trace import TraceBus


def audited(cfg, cp, steering):
    trace = TraceBus()
    driver = MegaScaleDriver(
        cfg, trace=trace, control_plane=cp, steering=steering
    )
    return driver, InvariantAuditor(columnar=driver).attach(trace)


def audited_tiny():
    return audited(
        MegaConfig.tiny(),
        MegaControlPlaneConfig(wired_apps=16, vips_per_app=2),
        MegaSteeringConfig(
            requests_per_epoch=3000, n_resolvers=150, chunk_requests=512
        ),
    )


def test_misfiled_booking_is_flagged_though_totals_agree():
    driver, auditor = audited_tiny()
    with driver:
        driver.run_epoch()
        assert auditor.ok
        conn = driver.dataplane.conn
        # One session's switch count booked under the wrong close epoch:
        # the totals still agree, but a close of either bucket would
        # subtract the wrong count.
        booked = conn.bookings()
        first, second = sorted(booked)[:2]
        s = int(np.flatnonzero(booked[first][0])[0])
        booked[first][0][s] -= 1
        booked[second][0][s] += 1
        assert conn.recount()[0].tolist() == conn.switch_count.tolist()
        found = auditor.audit_now(60.0)
        assert {v.invariant for v in found} == {"dataplane-conntrack"}
        assert sorted(
            (v.detail["counter"], v.detail["close_epoch"]) for v in found
        ) == [("booked_switch", first), ("booked_switch", second)]


def test_misfiled_vip_booking_is_flagged_though_totals_agree():
    driver, auditor = audited_tiny()
    with driver:
        driver.run_epoch()
        assert auditor.ok
        booked = driver.dataplane.conn.bookings()
        first, second = sorted(booked)[:2]
        v = int(np.flatnonzero(booked[first][1])[0])
        booked[first][1][v] -= 1
        booked[second][1][v] += 1
        found = auditor.audit_now(60.0)
        assert sorted(
            (v.detail["counter"], v.detail["close_epoch"]) for v in found
        ) == [("booked_vip", first), ("booked_vip", second)]


def test_rip_count_moved_across_switches_is_flagged():
    # One session's per-RIP count moved to a RIP on another switch: the
    # bucket's bookings no longer match the counts derived through the
    # bindings, nor do the counters.
    driver, auditor = audited_tiny()
    with driver:
        driver.run_epoch()
        conn = driver.dataplane.conn
        epoch = sorted(conn.bookings())[0]
        by_rip = conn._buckets[epoch].by_rip
        src = int(np.flatnonzero(by_rip)[0])
        dst = int(np.flatnonzero(
            (conn.rip_switch >= 0) & (conn.rip_switch != conn.rip_switch[src])
        )[0])
        by_rip[src] -= 1
        by_rip[dst] += 1
        found = auditor.audit_now(60.0)
        assert {v.invariant for v in found} == {"dataplane-conntrack"}
        assert {v.detail["counter"] for v in found} == {
            "booked_switch", "booked_vip", "switch_count", "vip_count"
        }
        assert {
            v.detail["close_epoch"] for v in found
            if v.detail["counter"].startswith("booked")
        } == {epoch}


def test_clean_steered_quick_run_has_no_violations():
    driver, auditor = audited(
        MegaConfig.quick(),
        MegaControlPlaneConfig(wired_apps=128, vips_per_app=2),
        MegaSteeringConfig(knob_period=2),
    )
    with driver:
        for _ in range(3):
            driver.run_epoch()
        assert len(driver.dataplane.conn.bookings()) >= 2
        assert driver.dataplane.conn.alive_count > 0
    assert auditor.audits_run == 3
    assert auditor.violations == []
