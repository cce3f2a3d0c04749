"""The auditor's ``dataplane-conntrack`` sweep: each close-epoch bucket's
booked counts are held to a recount of its own rows."""

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


def test_misfiled_booking_is_flagged_though_totals_agree():
    driver, auditor = audited(
        MegaConfig.tiny(),
        MegaControlPlaneConfig(wired_apps=16, vips_per_app=2),
        MegaSteeringConfig(
            requests_per_epoch=3000, n_resolvers=150, chunk_requests=512
        ),
    )
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
