"""Mega-scale fault injection: K3 conservation, MTTR, drop accounting.

The conservation property is the mega analogue of the object model's K3
invariant: a ``pod_loss`` (or ``server_crash``) re-placement may stop
VMs deliberately but must never lose or duplicate one.  Every fault
emits a ``k3.vacate`` witness the :class:`InvariantAuditor` checks
online; the hypothesis property below drives random fault surgery and
asserts both the auditor verdict and the census arithmetic directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mega import MegaConfig, MegaScaleDriver
from repro.faults.mega import MegaFaultInjector
from repro.faults.metrics import RecoveryMonitor
from repro.faults.schedule import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    UnknownFaultTarget,
)
from repro.obs.audit import InvariantAuditor
from repro.obs.trace import TraceBus


def tiny(**over):
    return MegaConfig.tiny(**over)


def audited_driver(**over):
    trace = TraceBus()
    driver = MegaScaleDriver(tiny(**over), trace=trace)
    auditor = InvariantAuditor(columnar=driver).attach(trace)
    return driver, auditor


# ------------------------------------------------- conservation property


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 200),
    kills=st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
    crash_sid=st.integers(0, 11),
)
def test_k3_conservation_under_pod_loss(seed, kills, crash_sid):
    """No VM vanishes or duplicates across pod-loss re-placement: the
    census drops by exactly the advertised losses, the auditor's
    ``k3-conservation`` check sees every vacate witness, and after
    re-placement no (server, app) cell holds more than one instance."""
    with MegaScaleDriver(tiny(seed=seed)) as driver:
        trace = TraceBus()
        driver.trace = trace
        auditor = InvariantAuditor(columnar=driver).attach(trace)
        driver.run_epoch()
        before = driver.n_vms
        lost = 0
        for p in kills:
            lost += driver.lose_pod(f"pod-{p:03d}", t=60.0)
        survivor = next(i for i in range(4) if i not in kills)
        lost += driver.crash_server(
            f"pod-{survivor:03d}-s{crash_sid:06d}", t=60.0
        )
        assert driver.n_vms == before - lost
        driver.run_epoch()
        assert auditor.ok, [str(v) for v in auditor.violations]
        # Re-placement restarted instances only on alive pods, and the
        # CSR never duplicates a (server, app) cell.
        for p, pod in enumerate(driver.pods):
            keys = pod.placement.keys()
            assert np.unique(keys).size == keys.size
            if not driver.pod_alive[p]:
                assert pod.n_vms == 0


def test_vacate_witness_feeds_auditor():
    driver, auditor = audited_driver()
    with driver:
        driver.run_epoch()
        driver.lose_pod("pod-002", t=60.0)
        vacates = [e for e in driver.trace.events if e.kind == "k3.vacate"]
        assert len(vacates) == 1
        d = vacates[0].data
        assert d["vms_after"] == d["vms_before"] - d["stopped"]
        assert auditor.ok


# ------------------------------------------------- injector semantics


def test_injector_rejects_non_mega_kinds():
    with MegaScaleDriver(tiny()) as driver:
        schedule = FaultSchedule(
            [FaultEvent(0.0, FaultKind.SWITCH_FAIL, "lb-00")]
        )
        with pytest.raises(ValueError, match="switch_fail"):
            MegaFaultInjector(driver, schedule)


def test_injector_rejects_unknown_targets():
    with MegaScaleDriver(tiny()) as driver:
        schedule = FaultSchedule(
            [FaultEvent(0.0, FaultKind.POD_LOSS, "pod-999")]
        )
        with pytest.raises(UnknownFaultTarget, match="pod-999"):
            MegaFaultInjector(driver, schedule)


def test_mttr_is_one_epoch_and_faults_tracked():
    with MegaScaleDriver(tiny()) as driver:
        schedule = FaultSchedule(
            [
                FaultEvent(60.0, FaultKind.POD_LOSS, "pod-001"),
                FaultEvent(180.0, FaultKind.POD_RESTORE, "pod-001"),
            ]
        )
        injector = MegaFaultInjector(driver, schedule)
        reports = [driver.run_epoch() for _ in range(4)]
        assert injector.finished
        assert reports[1].pods_down == 1
        assert reports[3].pods_down == 0
        tally = injector.monitor.mttr("pod")
        assert tally is not None
        assert tally.mean == pytest.approx(driver.config.epoch_s)
        assert injector.monitor.open_faults == 0


def test_black_holed_demand_is_dropped_and_noted():
    """Killing every covering pod of some apps black-holes their demand:
    the epoch report carries it and the monitor accumulates Gb lost."""
    with MegaScaleDriver(tiny()) as driver:
        monitor = RecoveryMonitor()
        events = [
            FaultEvent(60.0, FaultKind.POD_LOSS, f"pod-{p:03d}")
            for p in range(3)
        ]
        MegaFaultInjector(driver, FaultSchedule(events), monitor=monitor)
        driver.run_epoch()
        report = driver.run_epoch()
        assert report.pods_down == 3
        assert report.dropped_cpu > 0
        assert monitor.dropped_gb == pytest.approx(
            report.dropped_cpu * driver.config.epoch_s
        )
        # Conservation of routed demand: what survivors got plus what
        # was dropped is the epoch's whole demand vector.
        whole = float(driver.workload.cpu_demand(60.0).sum())
        assert report.demand_cpu + report.dropped_cpu == pytest.approx(whole)


def test_server_recover_restores_capacity():
    with MegaScaleDriver(tiny()) as driver:
        driver.run_epoch()
        pod = driver.pods[0]
        n_before = pod.servers.cpu.shape[0]
        driver.crash_server("pod-000-s000005", t=60.0)
        assert pod.servers.cpu.shape[0] == n_before - 1
        assert "pod-000-s000005" in driver.fault_targets()["server"]
        driver.recover_server("pod-000-s000005", t=120.0)
        assert pod.servers.cpu.shape[0] == n_before
        assert pod.servers.name(pod.servers.row_of(5)) == "pod-000-s000005"
        # Idempotent: recovering a healthy server is a no-op.
        driver.recover_server("pod-000-s000005", t=120.0)
        assert pod.servers.cpu.shape[0] == n_before


def test_bulk_path_parallel_matches_serial_under_faults():
    """The O(nnz) bulk solver (``dense_limit=1``) through a 2-worker pool
    matches the serial engine epoch by epoch across a scripted pod loss
    and restore and a server crash and recover: placements, loads and
    reports are identical (measured wall times and RSS aside)."""
    events = [
        (60.0, "pod_loss", "pod-001"),
        (120.0, "server_crash", "pod-000-s000003"),
        (180.0, "pod_restore", "pod-001"),
        (240.0, "server_recover", "pod-000-s000003"),
    ]
    measured = {"wall_s", "peak_rss_mb", "steer_wall_s"}

    def run(parallelism):
        cfg = tiny(dense_limit=1, parallelism=parallelism)
        epochs = []
        with MegaScaleDriver(cfg) as driver:
            MegaFaultInjector(driver, FaultSchedule.from_events(events))
            for _ in range(6):
                report = driver.run_epoch()
                epochs.append(
                    (
                        {
                            k: v
                            for k, v in vars(report).items()
                            if k not in measured
                        },
                        [
                            (p.placement.tobytes(), p.load.tobytes())
                            for p in driver.pods
                        ],
                    )
                )
        return epochs

    serial = run(1)
    assert serial == run(2)
    reports = [r for r, _ in serial]
    # The faults really reshaped the solves: a pod went dark and came back
    # (re-placed from empty), and every epoch solved the alive pods.
    assert [r["pods_down"] for r in reports] == [0, 1, 1, 0, 0, 0]
    assert reports[3]["started"] > 0
    assert all(
        r["full_tasks"] == 4 - r["pods_down"] and r["delta_tasks"] == 0
        for r in reports
    )
