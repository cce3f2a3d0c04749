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
from tests.placement.sparse_ref import placement_keys


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
            keys = placement_keys(pod.placement)
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


def test_cpu_overcommit_is_flagged():
    """``mega-cpu``: a server whose entries' load sums past its CPU is
    caught; the slack (1e-9 relative) forgives float rounding only.  The
    server's capacity shrinks under its load rather than the load
    growing, so no app is pushed past its demand (``mega-demand``).  The
    pod gets a private copy of its (shared, zero-stride) CPU column
    first."""
    driver, auditor = audited_driver()
    with driver:
        driver.run_epoch()
        assert not auditor.audit_now(60.0)
        pod = driver.pods[1]
        used = pod.load[pod.placement.rows() == 3].sum()
        assert used > 1.0
        pod.servers.cpu = pod.servers.cpu.copy()
        pod.servers.cpu[3] = used / (1 + 1e-12)
        assert not auditor.audit_now(60.0)  # within the slack
        pod.servers.cpu[3] = used - 0.5
        found = auditor.audit_now(60.0)
        assert [(v.invariant, v.detail) for v in found] == [
            ("mega-cpu", {"pod": pod.pod, "servers_over": 1})
        ]


def _placed_per_col(pod) -> np.ndarray:
    """A pod's load summed per local column."""
    return np.bincount(
        pod.placement.indices, weights=pod.load, minlength=pod.n_apps
    )


def _placed_per_app(driver) -> np.ndarray:
    """Each app's load summed over its covering pods, through the
    per-app ids of ``_pod_app_gids`` (not the residue gather)."""
    placed = np.zeros(driver.config.n_apps)
    for p, pod in enumerate(driver.pods):
        placed[driver._pod_app_gids(p)] += _placed_per_col(pod)
    return placed


def _spare_entry(pod, need: float) -> int:
    """The first entry whose server has more than *need* spare CPU."""
    rows = pod.placement.rows()
    spare = pod.servers.cpu - np.bincount(
        rows, weights=pod.load, minlength=pod.n_servers
    )
    return int(np.flatnonzero(spare[rows] > need)[0])


def test_overplaced_app_is_flagged():
    """``mega-demand``: a pod whose load on an app exceeds the app's
    share for that pod (demand / cover, every pod alive) is caught; the
    slack (1e-9 relative) forgives float rounding only.  The corrupted
    entry's server keeps spare CPU, so only ``mega-demand`` fires."""
    driver, auditor = audited_driver()
    with driver:
        driver.run_epoch()
        assert not auditor.audit_now(60.0)
        pod = driver.pods[2]
        entry = _spare_entry(pod, 1.0)
        col = int(pod.placement.indices[entry])
        gid = int(driver._pod_app_gids(2)[col])
        share = driver.workload.cpu_demand(0.0)[gid] / driver.config.cover
        pod.load[entry] += share * (1 + 1e-12) - _placed_per_col(pod)[col]
        assert not auditor.audit_now(60.0)  # within the slack
        pod.load[entry] += 0.5
        placed = _placed_per_col(pod)[col]
        found = auditor.audit_now(60.0)
        assert [(v.invariant, v.detail) for v in found] == [
            ("mega-demand", {
                "pod": pod.pod, "apps_over": 1, "app": gid,
                "placed": pytest.approx(placed, rel=1e-12),
                "share": share,
            })
        ]


def test_pod_over_its_share_is_flagged_within_app_demand():
    """``mega-demand`` holds each pod to its share, not only each app to
    its demand: moving all of one covering pod's load on an app onto
    another covering pod keeps the app's total within demand, yet the
    receiving pod now serves more than its share and is flagged."""
    driver, auditor = audited_driver()
    with driver:
        driver.run_epoch()
        assert not auditor.audit_now(60.0)
        cfg = driver.config
        dst = driver.pods[2]
        entry = _spare_entry(dst, cfg.server_cpu / 2)
        col = int(dst.placement.indices[entry])
        gid = int(driver._pod_app_gids(2)[col])
        covering = [(gid + j) % cfg.n_pods for j in range(cfg.cover)]
        q = next(c for c in covering if c != 2)
        src = driver.pods[q]
        src_col = int(np.searchsorted(driver._pod_app_gids(q), gid))
        assert driver._pod_app_gids(q)[src_col] == gid
        src_entries = src.placement.indices == src_col
        moved = float(src.load[src_entries].sum())
        assert 0.0 < moved < cfg.server_cpu / 2
        src.load[src_entries] = 0.0
        dst.load[entry] += moved
        demand = driver.workload.cpu_demand(0.0)[gid]
        share = demand / cfg.cover
        assert _placed_per_app(driver)[gid] <= demand * (1 + 1e-9)
        placed = _placed_per_col(dst)[col]
        assert placed > share * (1 + 1e-9)
        found = auditor.audit_now(60.0)
        assert [(v.invariant, v.detail) for v in found] == [
            ("mega-demand", {
                "pod": dst.pod, "apps_over": 1, "app": gid,
                "placed": pytest.approx(placed, rel=1e-12),
                "share": share,
            })
        ]


def test_dead_pod_holding_load_is_flagged():
    """A dead pod was given no share: if it still held load (here its
    pre-loss placement put back after the survivors took its spill),
    ``mega-demand`` flags that pod."""
    driver, auditor = audited_driver()
    with driver:
        driver.run_epoch()
        pod = driver.pods[1]
        held = pod.placement, pod.load
        driver.lose_pod(pod.pod, t=60.0)
        driver.run_epoch()
        assert not auditor.audit_now(60.0)
        pod.placement, pod.load = held
        found = auditor.audit_now(60.0)
        got = [(v.invariant, v.detail["pod"], v.detail["share"]) for v in found]
        assert got == [("mega-demand", pod.pod, 0.0)]


def test_demand_check_waits_for_the_first_epoch():
    """Before the first epoch there is no epoch demand to check against
    (the vector is uninitialised), so ``mega-demand`` is skipped."""
    driver, auditor = audited_driver()
    with driver:
        driver._share[:] = -1.0
        assert not auditor.audit_now(0.0)
        driver.run_epoch()
        assert auditor.ok and auditor.audits_run == 2


def test_quick_run_with_pod_loss_places_within_demand():
    """A clean quick-scale run (bulk placement path) through a pod loss
    and restore keeps every app's placed load within its demand, checked
    by the strict auditor at every epoch end."""
    trace = TraceBus()
    with MegaScaleDriver(MegaConfig.quick(seed=5), trace=trace) as driver:
        auditor = InvariantAuditor(columnar=driver, strict=True).attach(trace)
        driver.run_epoch()
        driver.lose_pod("pod-013", t=60.0)
        driver.run_epoch()
        driver.restore_pod("pod-013", t=120.0)
        driver.run_epoch()
        assert auditor.ok and auditor.audits_run == 3
        placed = _placed_per_app(driver)
        demand = driver.workload.cpu_demand(120.0)
        assert (placed <= demand * (1 + 1e-9)).all()
        assert placed.sum() > 0.5 * demand.sum()


def test_epoch_report_matches_the_placement_under_pod_loss():
    """At 0.95 load with a pod lost, each epoch's report reads its demand
    and satisfied CPU off what the alive pods were given and placed."""
    with MegaScaleDriver(MegaConfig.quick(target_utilization=0.95)) as driver:
        for epoch in range(3):
            if epoch == 1:
                driver.lose_pod("pod-007", t=60.0)
            report = driver.run_epoch()
            alive = np.flatnonzero(driver.pod_alive)
            assert report.pods_down == (0 if epoch == 0 else 1)
            assert report.satisfied_cpu == sum(
                float(driver.pods[p].load.sum()) for p in alive
            )
            demand = sum(float(driver._gather(driver._share, p).sum()) for p in alive)
            assert report.demand_cpu == pytest.approx(demand, rel=1e-9)
            assert 0 < report.satisfied_cpu <= report.demand_cpu


#: ``(vms, changes per epoch)`` of two full-scale epochs at seed 3.
FULL_AUDIT_PIN = (6_085_640, [0, 0])


def test_full_scale_run_audits_clean():
    """The paper's 300k-server configuration, where every headline
    number comes from, passes the whole structural sweep after two
    epochs, and its VM count and changes stay pinned."""
    with MegaScaleDriver(MegaConfig.full(seed=3)) as driver:
        reports = driver.run(2)
        assert InvariantAuditor(columnar=driver).audit_now(reports[-1].t) == []
        assert (driver.n_vms, [r.changes for r in reports]) == FULL_AUDIT_PIN


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


def test_server_targets_are_canonical_names_of_held_servers():
    """Server names are validated by parsing: only the canonical
    ``pod-XXX-sNNNNNN`` of a present or crashed server is known."""
    with MegaScaleDriver(tiny()) as driver:  # 4 pods x 12 servers
        driver.crash_server("pod-001-s000003", t=0.0)
        servers = driver.fault_targets()["server"]
        for name in ("pod-000-s000000", "pod-003-s000011", "pod-001-s000003"):
            assert name in servers
        for name in (
            "pod-000-s5",  # not zero-padded
            "pod-000-s0000005",  # over-padded
            "pod-000-s+00005",
            "pod-000-s 00005",
            "pod-000-s000012",  # past the pod's last server
            "pod-000-s-00001",
            "pod-004-s000000",  # no such pod
            "pod-0-s000000",
            "pod-000-sabc",
            "pod-000",
            "",
        ):
            assert name not in servers, name
        schedule = FaultSchedule(
            [FaultEvent(0.0, FaultKind.SERVER_CRASH, "pod-000-s5")]
        )
        with pytest.raises(UnknownFaultTarget, match="pod-000-s5"):
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
        assert injector._next == len(injector.schedule.events)  # all applied
        assert reports[1].pods_down == 1
        assert reports[3].pods_down == 0
        tally = injector.monitor.mttr("pod")
        assert tally is not None
        assert tally.mean == pytest.approx(driver.config.epoch_s)
        assert not injector.monitor._open  # every fault repaired


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


def test_bulk_path_replaces_across_faults():
    """The O(nnz) bulk solver (each pod's ``dense_limit`` at 1) across a
    scripted pod loss and restore and a server crash and recover: every
    epoch solves exactly the alive pods, and the restored pod is
    re-placed from empty."""
    events = [
        (60.0, "pod_loss", "pod-001"),
        (120.0, "server_crash", "pod-000-s000003"),
        (180.0, "pod_restore", "pod-001"),
        (240.0, "server_recover", "pod-000-s000003"),
    ]
    with MegaScaleDriver(tiny()) as driver:
        for controller in driver.controllers:
            controller.dense_limit = 1
        MegaFaultInjector(driver, FaultSchedule.from_events(events))
        reports = [vars(driver.run_epoch()) for _ in range(6)]
    # The faults really reshaped the solves: a pod went dark and came back
    # (re-placed from empty), and every epoch solved the alive pods.
    assert [r["pods_down"] for r in reports] == [0, 1, 1, 0, 0, 0]
    assert reports[3]["started"] > 0
    assert all(
        r["full_tasks"] == 4 - r["pods_down"] and r["delta_tasks"] == 0
        for r in reports
    )


# ------------------------------------------------- seeded fault fuzz


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_quick_steered_run_under_random_faults_audits_clean(seed):
    """Random pod losses and server crashes against a quick-scale driver
    with the control plane and steering wired and switches too small for
    the offered sessions: the strict auditor passes every epoch, every
    request is opened, rejected or unserved, and no epoch places more
    than its demand."""
    from repro.core.mega import MegaControlPlaneConfig, MegaSteeringConfig

    epochs = 6
    trace = TraceBus(keep_events=False)
    with MegaScaleDriver(
        MegaConfig.quick(seed=seed),
        trace=trace,
        control_plane=MegaControlPlaneConfig(wired_apps=128, vips_per_app=2),
        steering=MegaSteeringConfig(
            requests_per_epoch=60_000,
            switch_max_connections=20_000,
            knob_period=2,
            seed=seed,
        ),
    ) as driver:
        auditor = InvariantAuditor(columnar=driver, strict=True).attach(trace)
        horizon = epochs * driver.config.epoch_s
        pods = [pod.pod for pod in driver.pods]
        servers = [
            pod.servers.name(i) for pod in driver.pods for i in range(pod.n_servers)
        ][::300]
        losses = FaultSchedule.random(
            seed, horizon, pods=pods, mtbf_s=1200, mttr_s=120
        )
        crashes = FaultSchedule.random(
            seed + 1, horizon, servers=servers, mtbf_s=1200, mttr_s=120
        )
        injector = MegaFaultInjector(
            driver, FaultSchedule(losses.events + crashes.events)
        )
        reports = driver.run(epochs)
        assert auditor.ok and auditor.audits_run == epochs
        for r in reports:
            assert r.conns_opened + r.conns_rejected + r.unserved == r.requests
            assert r.satisfied_cpu <= r.demand_cpu * (1 + 1e-9)
        assert sum(r.conns_rejected for r in reports) > 0
        assert injector.injected > 0 and any(r.pods_down for r in reports)
