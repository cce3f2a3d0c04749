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
A recreated VIP lands by the landing rule of :mod:`repro.lbswitch.switch`.
Convergence is measured from the first drifty pass to the next clean one
and reported into the :class:`repro.faults.RecoveryMonitor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.controlplane.sharding import ShardDriftReport
from repro.lbswitch.switch import holders_of, keep_one_holder, landing_target

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.datacenter import MegaDataCenter

#: A VIP whose drift went unrepaired in more than this many consecutive
#: passes is stuck.
STUCK_AFTER_ROUNDS = 3


@dataclass
class DriftReport(ShardDriftReport):
    """Outcome of one reconciliation pass: the table dimensions (intended
    state is the platform registry; ``weight_stale`` stays 0, since K6
    re-weights the tables outside any record) plus the platform's own."""

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

    DIMENSIONS: ClassVar[tuple[str, ...]] = ShardDriftReport.DIMENSIONS + (
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
        self._busy: set[str] = set()
        #: A VIP detected as drifted but *not* repaired in K consecutive
        #: passes (K > STUCK_AFTER_ROUNDS) is stuck — something structural
        #: (no healthy switch, no free slots) keeps the repair from
        #: landing, and retrying quietly forever would hide it.
        self._unresolved_streak: dict[str, int] = {}
        self._unresolved: set[str] = set()
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
        self._busy = self._busy_vips()
        self._unresolved = set()
        self._reconcile_vip_placement(report)
        self._reconcile_rip_tables(report)
        self._reconcile_orphans(report)
        self._reconcile_manager_index(report)
        self._reconcile_dns(report)
        self._reconcile_vm_inventory(report)

        for vip in self._unresolved:
            self._unresolved_streak[vip] = self._unresolved_streak.get(vip, 0) + 1
        for vip in list(self._unresolved_streak):
            if vip not in self._unresolved:
                del self._unresolved_streak[vip]
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

    # ------------------------------------------------------------ VIP checks
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

    def _in_transfer(self, vip: str) -> bool:
        return vip in self._busy

    def _reconcile_vip_placement(self, report: DriftReport) -> None:
        dc = self.dc
        for vip in sorted(dc.state.vips):
            if self._in_transfer(vip):
                continue  # legitimately off both switches mid-K2
            info = dc.state.vips[vip]
            holders = holders_of(dc.switches, vip)
            actual = [sw.name for sw in holders]
            if actual == [info.switch]:
                continue
            if len(actual) > 1:
                report.vip_duplicate += 1
                keep = keep_one_holder(holders, vip, info.switch)
                if keep != info.switch:
                    dc._on_vip_rehomed(vip, keep)
                report.repaired += 1
            elif len(actual) == 1:
                # The data plane is authoritative for *where* the entry
                # lives; realign the registry (and DNS) to it.
                report.vip_misplaced += 1
                dc._on_vip_rehomed(vip, actual[0])
                report.repaired += 1
            else:
                # Stranded: on no switch and not in transfer (e.g. an
                # aborted half-configured move).  Recreate the group on a
                # healthy switch; the RIP pass refills it from the
                # registry.
                report.vip_missing += 1
                target = landing_target(dc.switches, dc.state.switch_is_up)
                if target is None:
                    report.notes.append(f"no healthy switch for stranded {vip}")
                    self._unresolved.add(vip)
                    continue
                target.add_vip(vip, info.app)
                dc._on_vip_rehomed(vip, target.name)
                report.repaired += 1

    # ------------------------------------------------------------ RIP checks
    def _reconcile_rip_tables(self, report: DriftReport) -> None:
        dc = self.dc
        for rip in sorted(dc.state.rips):
            info = dc.state.rips[rip]
            if not info.vm.is_serving:
                continue  # the registry invariant pass owns this case
            vinfo = dc.state.vips.get(info.vip)
            if vinfo is None or self._in_transfer(info.vip):
                continue
            sw = dc.switches.get(vinfo.switch)
            if sw is None or not sw.has_vip(info.vip):
                continue  # unresolved VIP drift; next pass retries
            entry = sw.entry(info.vip)
            if rip in entry.rips:
                continue
            report.rip_missing += 1
            if sw.rip_slots_free <= 0:
                report.notes.append(f"no RIP slot on {sw.name} for {rip}")
                self._unresolved.add(info.vip)
                continue
            weight = (
                sum(entry.rips.values()) / len(entry.rips) if entry.rips else 1.0
            )
            sw.add_rip(info.vip, rip, weight=max(weight, 1e-6))
            if dc.viprip is not None:
                dc.viprip.rip_index[rip] = (info.vip, sw.name)
            dc.state.reconfigurations += 1
            report.repaired += 1

    def _reconcile_orphans(self, report: DriftReport) -> None:
        """Table RIPs nothing accounts for: not registered, not awaiting a
        queued wiring, unknown to the manager's index."""
        dc = self.dc
        for name in sorted(dc.switches):
            sw = dc.switches[name]
            for vip in sorted(sw.vips()):
                if self._in_transfer(vip):
                    continue
                for rip in sorted(sw.entry(vip).rips):
                    if rip in dc.state.rips or rip in dc._pending_wirings:
                        continue
                    if dc.viprip is not None and rip in dc.viprip.rip_index:
                        continue  # a queued del_rip will collect it
                    report.rip_orphaned += 1
                    sw.remove_rip(vip, rip)
                    dc.state.reconfigurations += 1
                    report.repaired += 1

    def _reconcile_manager_index(self, report: DriftReport) -> None:
        """The VIP/RIP manager's rip_index must match the tables it feeds."""
        dc = self.dc
        if dc.viprip is None:
            return
        for rip in sorted(dc.viprip.rip_index):
            vip, switch_name = dc.viprip.rip_index[rip]
            if self._in_transfer(vip):
                continue
            sw = dc.switches.get(switch_name)
            if sw is not None and sw.serves(vip, rip):
                continue
            # Where is the RIP really?
            location = None
            for name in sorted(dc.switches):
                other = dc.switches[name]
                for v in other.vips():
                    if rip in other.entry(v).rips:
                        location = (v, name)
                        break
                if location is not None:
                    break
            if location == (vip, switch_name):
                continue
            report.index_stale += 1
            if location is not None:
                dc.viprip.rip_index[rip] = location
            elif rip not in dc.state.rips and rip not in dc._pending_wirings:
                # Gone from every table and every registry: drop the entry.
                del dc.viprip.rip_index[rip]
            else:
                continue  # rip pass will restore the table first
            report.repaired += 1

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

    # ---------------------------------------------------------------- views
