"""Anti-entropy reconciliation of the control plane.

A periodic process diffs *intended* state (the platform registries, the
DNS authority's exposure policy, the hypervisors' VM inventories) against
*actual* state (LB-switch VIP/RIP tables, resolver answers, the VIP/RIP
manager's index) and repairs drift through the existing knob paths —
never by inventing new mutation channels.  This is what bounds the damage
of the failure modes journal replay cannot see: half-configured switches
whose move was aborted, registries diverged by lost bookkeeping, stale
DNS answers, running VMs whose wiring evaporated with a crashed manager.

Each pass is pure bookkeeping at one instant of simulated time (the scan
itself is free; repairs go through paths that charge their own latency).
The table checks are the drift scan and repair rules the sharded plane
uses too (:mod:`repro.controlplane.drift`), over the platform registry.
Convergence is measured from the first drifty pass to the next clean one
and reported into the :class:`repro.faults.RecoveryMonitor`.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.controlplane.drift import (
    DriftView, RepairHooks, TableDriftReport, repair, scan,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.datacenter import MegaDataCenter

#: A VIP whose drift went unrepaired in more than this many consecutive
#: passes is stuck.
STUCK_AFTER_ROUNDS = 3


@dataclass
class DriftReport(TableDriftReport):
    """Outcome of one reconciliation pass: the table dimensions (intended
    state is the platform registry; ``weight_stale`` stays 0, since the
    reconciler records no weights and leaves K6's alone) plus the
    platform's own."""

    #: Apps whose DNS answer disagreed with what can actually serve.
    dns_stale: int = 0
    #: Serving VMs missing from the RIP registry (wiring lost).
    vm_unregistered: int = 0
    #: Repairs actually performed (<= detected when repair is impossible,
    #: e.g. no healthy switch has slots for a stranded VIP).
    repaired: int = 0
    #: VIPs whose drift went unrepaired for more than ``STUCK_AFTER_ROUNDS``
    #: consecutive passes — reported loudly instead of silently skipped.
    stuck_vips: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    DIMENSIONS: ClassVar[tuple[str, ...]] = TableDriftReport.DIMENSIONS + (
        "dns_stale", "vm_unregistered",
    )


class AntiEntropyReconciler:
    """Periodically diff intended vs. actual state and repair the drift."""

    def __init__(
        self,
        dc: "MegaDataCenter",
        interval_s: float = 30.0,
    ):
        if interval_s <= 0:
            raise ValueError("reconciler interval must be positive")
        self.dc = dc
        self.env = dc.env
        self.interval_s = interval_s
        self.passes = 0
        self.drift_detected = 0
        self.drift_repaired = 0
        self.reports: list[DriftReport] = []
        #: Completed drift->clean convergence intervals (seconds).
        self.convergence_times: list[float] = []
        self._dirty_since: Optional[float] = None
        #: A VIP detected as drifted but *not* repaired in K consecutive
        #: passes (K > STUCK_AFTER_ROUNDS) is stuck — something structural
        #: (no healthy switch, no free slots) keeps the repair from
        #: landing, and retrying quietly forever would hide it.
        self._unresolved_streak: dict[str, int] = {}
        self._unresolved: set[str] = set()
        self._hooks = RepairHooks(
            rehome=lambda app, vip, switch: dc._on_vip_rehomed(vip, switch),
            book=lambda app, vip, switch, rips: f"{vip} on {switch} is unregistered",
            edited=self._edited,
        )
        self._proc = self.env.process(self._run())

    def _run(self):
        while True:
            yield self.env.timeout(self.interval_s)
            self.run_pass()

    # ------------------------------------------------------------------ pass
    def run_pass(self) -> DriftReport:
        """One full reconciliation sweep; callable directly from tests."""
        report = DriftReport(t=self.env.now)
        viprip = self.dc.viprip
        if viprip is not None and (viprip.crashed or viprip._recovering):
            # Anti-entropy defers to crash recovery: intended state is not
            # trustworthy until the journal tail has been replayed, and a
            # concurrent "repair" would race the replay's applies.
            # Streaks are left untouched: a skipped pass says nothing
            # about whether a repair would have landed.
            report.notes.append("skipped: manager down, recovery owns the state")
            self.reports.append(report)
            return report
        self._unresolved = set()
        self._reconcile_tables(report)
        self._reconcile_dns(report)
        self._reconcile_vm_inventory(report)

        self._unresolved_streak = {
            vip: self._unresolved_streak.get(vip, 0) + 1 for vip in self._unresolved
        }
        report.stuck_vips = sorted(
            vip
            for vip, streak in self._unresolved_streak.items()
            if streak > STUCK_AFTER_ROUNDS
        )

        self.passes += 1
        self.reports.append(report)
        self.drift_detected += report.detected
        self.drift_repaired += report.repaired
        monitor = self.dc.recovery_monitor
        if report.stuck_vips:
            report.notes.append(
                f"stuck >{STUCK_AFTER_ROUNDS} rounds: "
                + ", ".join(report.stuck_vips)
            )
            if monitor is not None:
                monitor.note_stuck_vips(report.stuck_vips)
        if report.detected > 0:
            if self._dirty_since is None:
                self._dirty_since = report.t
        elif self._dirty_since is not None:
            # First clean pass after drift: the plane has converged.
            dt = report.t - self._dirty_since
            self.convergence_times.append(dt)
            self._dirty_since = None
            if monitor is not None:
                monitor.note_convergence(dt)
        if monitor is not None and report.detected > 0:
            monitor.note_drift(report.detected, report.repaired)
        return report

    # ---------------------------------------------------------- table checks
    def _busy_vips(self) -> set[str]:
        """VIPs whose placement is legitimately in motion: mid-K2-transfer
        under the global manager, or owned by a queued/in-flight/unsettled
        VIP/RIP-manager operation."""
        busy: set[str] = set()
        gm = self.dc.global_manager
        if gm is not None:
            busy |= gm.vips_in_transfer
        if self.dc.viprip is not None:
            busy |= self.dc.viprip.vips_in_flight()
        return busy

    def _reconcile_tables(self, report: DriftReport) -> None:
        """Scan the tables against the platform registry and the manager's
        RIP index; a finding whose repair cannot land leaves its VIP unresolved."""
        dc = self.dc
        state = dc.state
        index = dc.viprip.rip_index if dc.viprip is not None else {}
        # A serving RIP the index lacks belongs on its registered VIP's switch.
        registered = {
            rip: (info.vip, state.vips[info.vip].switch)
            for rip, info in state.rips.items()
            if info.vm.is_serving and info.vip in state.vips
        }
        view = DriftView(
            vips={vip: (info.app, info.switch) for vip, info in state.vips.items()},
            rips=ChainMap(index, registered),
            weights={},
            switches=dc.switches,
            fleet=dc.switches,
            busy=self._busy_vips(),
            vip_accounted=(),
            rip_accounted=state.rips.keys() | dc._pending_wirings.keys(),
        )
        for finding in scan(view):
            report.count((finding,))
            why = repair(finding, view, state.switch_is_up, self._hooks)
            if why is None:
                report.repaired += 1
            else:
                report.notes.append(why)
                self._unresolved.add(finding.vip)

    def _edited(self) -> None:
        self.dc.state.reconfigurations += 1

    # ------------------------------------------------------------ DNS checks
    def _reconcile_dns(self, report: DriftReport) -> None:
        """Resolver answers must only expose VIPs that can serve — replays
        the facade's own exposure policy and counts actual rewrites."""
        dc = self.dc
        for app in sorted(dc.specs):
            before = dict(dc.authority.weights(app))
            dc._ensure_exposure(app)
            after = dict(dc.authority.weights(app))
            if after != before:
                report.dns_stale += 1
                report.repaired += 1

    # ------------------------------------------------------ inventory checks
    def _reconcile_vm_inventory(self, report: DriftReport) -> None:
        """Hypervisor inventories vs. RIP registry: a running VM whose
        wiring was lost (e.g. queued behind a crash) is re-wired."""
        dc = self.dc
        for pod_name in sorted(dc.pod_managers):
            pod = dc.pod_managers[pod_name].pod
            for server in pod.servers:
                for vm in server.vms:
                    if not vm.is_serving:
                        continue
                    if vm.rip in dc.state.rips or vm.rip in dc._pending_wirings:
                        continue
                    report.vm_unregistered += 1
                    dc._wire_rip(vm)
                    report.repaired += 1

