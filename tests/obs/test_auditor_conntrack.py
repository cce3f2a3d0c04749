"""The auditor's ``dataplane-conntrack`` sweep: the per-switch session
counters are held to the live per-RIP counts summed through the RIP
bindings, and no live session may sit on an unbound RIP row."""

import numpy as np

from repro.core.mega import (
    MegaConfig,
    MegaControlPlaneConfig,
    MegaScaleDriver,
    MegaSteeringConfig,
)
from repro.dataplane.conntable import ColumnarConnTable
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


def test_sessions_on_an_unbound_rip_are_flagged():
    # RIP rows 0 and 2 are bound; one session's count moved from row 0 to
    # the unbound row 1 sits on no switch.
    conn = ColumnarConnTable(1, 10)
    conn.bind([0, 2], [0, 0], [0, 0])
    assert conn.try_open_batch(np.array([0]), np.array([5])).all()
    auditor = InvariantAuditor()
    auditor._audit_conntrack(60.0, conn)
    assert auditor.ok
    conn._buckets[5][[0, 1]] += [-1, 1]
    auditor._audit_conntrack(60.0, conn)
    assert [(v.invariant, v.detail["counter"]) for v in auditor.violations] == [
        ("dataplane-conntrack", "unbound_rip"),
        ("dataplane-conntrack", "switch_count"),
    ]


def test_rip_count_moved_across_switches_is_flagged():
    # One session's per-RIP count moved to a RIP on another switch: the
    # counters no longer match the counts derived through the bindings.
    driver, auditor = audited_tiny()
    with driver:
        driver.run_epoch()
        assert auditor.ok
        conn = driver.dataplane.conn
        by_rip = conn._buckets[min(conn._buckets)]
        src = int(np.flatnonzero(by_rip)[0])
        dst = int(np.flatnonzero(
            (conn.rip_switch >= 0) & (conn.rip_switch != conn.rip_switch[src])
        )[0])
        by_rip[src] -= 1
        by_rip[dst] += 1
        found = auditor.audit_now(60.0)
        assert [(v.invariant, v.detail["counter"]) for v in found] == [
            ("dataplane-conntrack", "switch_count")
        ]


def test_clean_steered_quick_run_has_no_violations():
    driver, auditor = audited(
        MegaConfig.quick(),
        MegaControlPlaneConfig(wired_apps=128, vips_per_app=2),
        MegaSteeringConfig(knob_period=2),
    )
    with driver:
        for _ in range(3):
            driver.run_epoch()
        assert len(driver.dataplane.conn._buckets) >= 2
        assert driver.dataplane.conn.alive_count > 0
    assert auditor.audits_run == 3
    assert auditor.violations == []
