"""Anti-entropy reconciler: every drift class detected and repaired."""

from dataclasses import replace

import pytest

from repro.controlplane.reconciler import STUCK_AFTER_ROUNDS, DriftReport
from repro.core import MegaDataCenter, PlatformConfig
from repro.core.viprip import VipRipRequest
from repro.sim import RngHub
from repro.workload import WorkloadBuilder


@pytest.fixture()
def dc():
    apps = WorkloadBuilder(
        n_apps=8, total_gbps=4.0, diurnal_fraction=0.0, rng_hub=RngHub(7)
    ).build()
    dc = MegaDataCenter(
        apps,
        config=PlatformConfig(),
        n_pods=2,
        servers_per_pod=6,
        n_switches=3,
        crash_safe_manager=True,
    )
    dc.run(100.0)  # steady state; reconciler has seen clean passes
    assert dc.reconciler.run_pass().clean
    return dc


def some_vip(dc):
    vip = sorted(dc.state.vips)[0]
    info = dc.state.vips[vip]
    return vip, info, dc.switches[info.switch]


def test_stranded_vip_recreated(dc):
    vip, info, sw = some_vip(dc)
    sw.remove_vip(vip)
    report = dc.reconciler.run_pass()
    assert report.vip_missing == 1
    assert report.repaired >= 1
    assert any(s.has_vip(vip) for s in dc.switches.values())
    # registry follows the repair
    assert dc.switches[dc.state.vips[vip].switch].has_vip(vip)
    assert dc.reconciler.run_pass().clean


def test_misplaced_vip_realigns_registry(dc):
    vip, info, sw = some_vip(dc)
    other = next(
        s
        for name, s in sorted(dc.switches.items())
        if name != sw.name and s.vip_slots_free > 0
    )
    other.install_entry(sw.remove_vip(vip))
    report = dc.reconciler.run_pass()
    assert report.vip_misplaced == 1
    # the data plane is authoritative: registry realigned to the table
    assert dc.state.vips[vip].switch == other.name
    assert dc.reconciler.run_pass().clean


def test_duplicate_vip_pruned(dc):
    vip, info, sw = some_vip(dc)
    other = next(
        s
        for name, s in sorted(dc.switches.items())
        if name != sw.name and s.vip_slots_free > 0
    )
    other.add_vip(vip, info.app)
    report = dc.reconciler.run_pass()
    assert report.vip_duplicate == 1
    holders = [s for s in dc.switches.values() if s.has_vip(vip)]
    assert len(holders) == 1 and holders[0] is sw  # intended placement kept


def test_missing_rip_refilled(dc):
    vip, info, sw = some_vip(dc)
    rip = sorted(sw.entry(vip).rips)[0]
    sw.remove_rip(vip, rip)
    report = dc.reconciler.run_pass()
    assert report.rip_missing >= 1
    assert rip in sw.entry(vip).rips
    assert dc.reconciler.run_pass().clean


def test_orphan_rip_collected(dc):
    vip, info, sw = some_vip(dc)
    sw.add_rip(vip, "rip-ghost", 1.0)
    report = dc.reconciler.run_pass()
    assert report.rip_orphaned == 1
    assert "rip-ghost" not in sw.entry(vip).rips
    assert dc.reconciler.run_pass().clean


def test_stale_manager_index_repaired(dc):
    rip = sorted(dc.viprip.rip_index)[0]
    vip, switch_name = dc.viprip.rip_index[rip]
    dc.viprip.rip_index[rip] = (vip, "lb-nonexistent")
    report = dc.reconciler.run_pass()
    assert report.index_stale == 1
    assert dc.viprip.rip_index[rip] == (vip, switch_name)
    assert dc.reconciler.run_pass().clean


def test_busy_vips_are_not_touched(dc):
    vip, info, sw = some_vip(dc)
    sw.remove_vip(vip)  # would normally read as "stranded"
    req = VipRipRequest("move_vip", info.app, vip=vip)
    dc.viprip._inflight = req  # a legitimate move owns this VIP
    try:
        report = dc.reconciler.run_pass()
        assert report.vip_missing == 0  # deferred, not drift
        assert not any(s.has_vip(vip) for s in dc.switches.values())
    finally:
        dc.viprip._inflight = None
        dc.reconciler.run_pass()  # now it repairs


def test_pass_skipped_while_manager_down(dc):
    vip, info, sw = some_vip(dc)
    sw.remove_vip(vip)
    passes = dc.reconciler.passes
    dc.viprip.crash()
    report = dc.reconciler.run_pass()
    assert report.notes and "recovery owns the state" in report.notes[0]
    assert dc.reconciler.passes == passes  # skipped passes don't count
    assert not any(s.has_vip(vip) for s in dc.switches.values())


def strand_without_slots(dc):
    """Strand a VIP while every switch's VIP table is full, so no healthy
    switch can take it and the drift persists unrepaired."""
    vip, info, sw = some_vip(dc)
    sw.remove_vip(vip)
    saved = {name: s.limits for name, s in dc.switches.items()}
    for s in dc.switches.values():
        s.limits = replace(s.limits, max_vips=s.num_vips)
    return vip, saved


def restore_slots(dc, saved):
    for name, limits in saved.items():
        dc.switches[name].limits = limits


def test_unrepaired_drift_reports_stuck_vips(dc):
    from repro.faults import RecoveryMonitor

    monitor = RecoveryMonitor()
    dc.recovery_monitor = monitor
    vip, saved = strand_without_slots(dc)
    for _ in range(STUCK_AFTER_ROUNDS):
        report = dc.reconciler.run_pass()
        assert report.vip_missing == 1
        assert f"no healthy switch for stranded {vip}" in report.notes
        assert report.stuck_vips == []  # streak still within threshold
    # pass K+1: the streak crosses the threshold
    report = dc.reconciler.run_pass()
    assert report.stuck_vips == [vip]
    assert dc.reconciler.reports[-1].stuck_vips == [vip]
    assert any("stuck" in note for note in report.notes)
    assert monitor.stuck_vips == {vip}
    assert monitor.stuck_vip_reports == 1
    assert "stuck VIPs" in monitor.table().render()
    # a successful repair resets the streak and clears the report
    restore_slots(dc, saved)
    report = dc.reconciler.run_pass()
    assert report.stuck_vips == [] and dc.reconciler.reports[-1].stuck_vips == []
    assert dc.reconciler.run_pass().clean


def test_skipped_passes_do_not_advance_stuck_streaks(dc):
    vip, _ = strand_without_slots(dc)
    for _ in range(STUCK_AFTER_ROUNDS):
        dc.reconciler.run_pass()
    # a manager crash makes every pass a skip; the streak must freeze
    dc.viprip.crash()
    for _ in range(5):
        report = dc.reconciler.run_pass()
        assert "recovery owns the state" in report.notes[0]
        assert report.stuck_vips == []
    assert dc.reconciler._unresolved_streak[vip] == STUCK_AFTER_ROUNDS


def test_convergence_interval_recorded(dc):
    vip, info, sw = some_vip(dc)
    rip = sorted(sw.entry(vip).rips)[0]
    sw.remove_rip(vip, rip)
    before = len(dc.reconciler.convergence_times)
    dc.run(dc.env.now + 2.5 * dc.reconciler.interval_s)
    assert len(dc.reconciler.convergence_times) > before
    assert dc.reconciler.reports[-1].clean
    assert dc.reconciler.convergence_times[-1] <= 2 * dc.reconciler.interval_s


def test_drift_report_counts_every_dimension_it_lists():
    report = DriftReport(t=0.0, vip_missing=1, rip_orphaned=2, dns_stale=3,
                         vm_unregistered=4, repaired=5)
    assert list(report.as_dict())[-2:] == ["dns_stale", "vm_unregistered"]
    assert sum(report.as_dict().values()) == report.detected == 10
