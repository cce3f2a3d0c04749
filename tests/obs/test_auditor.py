"""InvariantAuditor: clean runs stay clean, deliberate corruption is
caught, event-driven checks fire, strict mode raises."""

import pytest

from repro.core.datacenter import MegaDataCenter
from repro.obs import InvariantAuditor, InvariantViolation, TraceBus
from repro.sim.rng import RngHub
from repro.workload.generator import WorkloadBuilder


def small_dc(seed=3, audit=True, **kwargs):
    apps = WorkloadBuilder(
        n_apps=10, total_gbps=5.0, rng_hub=RngHub(seed)
    ).build()
    return MegaDataCenter(
        apps,
        n_pods=2,
        servers_per_pod=8,
        n_switches=3,
        trace=TraceBus(),
        audit=audit,
        **kwargs,
    )


def test_clean_run_has_no_violations():
    dc = small_dc()
    dc.run(240.0)
    assert dc.auditor is not None
    assert dc.auditor.ok
    assert dc.auditor.audits_run >= 2  # one sweep per epoch.end
    assert dc.auditor.events_seen > 0
    dc.close()


def test_double_advertised_vip_is_caught():
    """The corrupted-K2 scenario: a transfer that copies the VIP entry to
    the target switch without removing it from the source leaves the VIP
    advertised twice — exactly what the ≤1-home invariant exists for."""
    dc = small_dc()
    dc.run(120.0)
    assert dc.auditor.ok
    # Botch a K2 transfer by hand: install a copy of a live VIP entry on
    # a second switch without deleting the original.
    names = sorted(dc.switches)
    src = next(s for s in names if dc.switches[s].num_vips > 0)
    dst = next(n for n in names if n != src)
    vip = sorted(dc.switches[src].vips())[0]
    dc.switches[dst].install_entry(dc.switches[src].entry(vip))
    found = dc.auditor.audit_now(dc.env.now)
    assert any(v.invariant == "vip-single-home" for v in found)
    bad = next(v for v in found if v.invariant == "vip-single-home")
    assert bad.detail["vip"] == vip
    assert sorted((src, dst)) == bad.detail["switches"]
    # rip-single-home fires too: the copied entry duplicates every RIP.
    assert any(v.invariant == "rip-single-home" for v in found)
    dc.close()


def test_orphaned_rip_is_caught():
    """A registered RIP whose VM lost its host server no longer resolves
    to any pod — the rip-pod invariant."""
    dc = small_dc()
    dc.run(120.0)
    rip = sorted(dc.state.rips)[0]
    dc.state.rips[rip].vm.host = None
    found = dc.auditor.audit_now(dc.env.now)
    assert any(
        v.invariant == "rip-pod" and v.detail["rip"] == rip for v in found
    )
    dc.close()


def test_journal_monotonicity_check():
    bus = TraceBus()
    auditor = InvariantAuditor().attach(bus)
    bus.emit("journal.commit", t=1.0, epoch=1, op="add_vip", app="a")
    bus.emit("journal.commit", t=2.0, epoch=2, op="add_rip", app="a")
    assert auditor.ok
    bus.emit("journal.commit", t=3.0, epoch=2, op="add_rip", app="b")
    assert not auditor.ok
    assert auditor.violations[0].invariant == "journal-monotonic"
    assert auditor.violations[0].detail == {"epoch": 2, "previous": 2}
    auditor.detach()


def test_k3_conservation_check():
    bus = TraceBus()
    auditor = InvariantAuditor().attach(bus)
    bus.emit(
        "k3.vacate", t=5.0, pod="pod-00", requested=2, vacated=2,
        migrations=3, stopped=1, vms_before=10, vms_after=9,
    )
    assert auditor.ok
    bus.emit(
        "k3.vacate", t=6.0, pod="pod-00", requested=2, vacated=2,
        migrations=3, stopped=1, vms_before=9, vms_after=7,  # lost a VM
    )
    assert not auditor.ok
    assert auditor.violations[0].invariant == "k3-conservation"


def test_strict_mode_raises_at_first_violation():
    bus = TraceBus()
    auditor = InvariantAuditor(strict=True).attach(bus)
    bus.emit("journal.commit", t=1.0, epoch=5, op="add_vip", app="a")
    with pytest.raises(InvariantViolation, match="journal-monotonic"):
        bus.emit("journal.commit", t=2.0, epoch=4, op="add_vip", app="b")


def test_audit_requires_enabled_trace():
    apps = WorkloadBuilder(
        n_apps=4, total_gbps=2.0, rng_hub=RngHub(0)
    ).build()
    with pytest.raises(ValueError, match="enabled trace bus"):
        MegaDataCenter(
            apps, n_pods=2, servers_per_pod=4, n_switches=2,
            trace=TraceBus(enabled=False), audit=True,
        )


@pytest.mark.slow
def test_e14_crash_scenario_audits_clean():
    """The full e14 control-plane crash sweep (default checkpoint
    intervals and duration) under online audit: every case must recover
    with zero violations."""
    from repro.experiments import e14_control_plane as e14

    trace = TraceBus(keep_events=False)
    result = e14.run(trace=trace, audit=True)
    assert result.recovered
    assert all(c.violations == 0 for c in result.cases)
    assert trace.count > 0
