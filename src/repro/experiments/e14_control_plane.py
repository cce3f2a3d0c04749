"""E14 — control-plane crash safety (journal, checkpoints, anti-entropy).

PR 1 could crash servers, switches and links; the control plane itself was
assumed infallible.  Here the serialized VIP/RIP manager — the paper's
single point of reconfiguration — is the victim:

* an LB switch fails, forcing K2 re-homes through the manager;
* the manager is crashed **mid-move**, inside the cutover window where
  the VIP has left the source switch but not yet landed on the target
  (a half-configured switch, plus a wiped request queue);
* the supervisor restarts it: the latest checkpoint is restored and the
  journal tail is replayed with epoch-fenced idempotent applies, which
  *finishes the interrupted move* from its PREPARED record;
* later, drift is injected directly into switch tables (a deleted RIP
  and a ghost RIP no registry knows) and the anti-entropy reconciler
  must detect and repair it within its convergence bound.

The sweep varies the checkpoint interval and reports manager MTTR,
reconfigurations dropped by the crash, and the replay-tail length —
the recovery-cost-vs-checkpoint-frequency trade the subsystem exists
to expose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.reporting import Table
from repro.core.config import PlatformConfig
from repro.core.datacenter import MegaDataCenter
from repro.faults import FaultInjector, FaultSchedule, RecoveryMonitor
from repro.sim.rng import RngHub
from repro.workload.generator import WorkloadBuilder

#: Scenario script (seconds).  t0 is off the epoch grid so the first
#: re-home is not racing a placement epoch.
T0 = 330.0
OUTAGE_S = 600.0
DRIFT_T = 1200.0
#: Shortest run containing the script plus reconciler convergence room.
MIN_DURATION_S = 1500.0

#: Default checkpoint-interval sweep (seconds).
DEFAULT_INTERVALS = (60.0, 240.0, 960.0)


@dataclass
class E14Case:
    """Outcome of the scripted scenario at one checkpoint interval."""

    checkpoint_interval_s: float
    mttr_manager_s: float
    #: Queued/in-flight reconfigurations wiped by the crash.
    lost_reconfigurations: int
    #: Journal records replayed during recovery (the tail length).
    replayed_records: int
    checkpoints_taken: int
    journal_appended: int
    manager_crashes: int
    drift_detected: int
    drift_repaired: int
    #: Slowest drift->clean convergence of the reconciler (nan if the
    #: run never drifted).
    convergence_max_s: float
    #: Injection-to-clean time for the scripted table tampering at
    #: ``DRIFT_T`` (nan if the drift was never seen).
    tamper_convergence_s: float
    #: A final reconciliation pass found nothing left to repair.
    end_state_clean: bool
    invariants_ok: bool
    #: Online InvariantAuditor violations (0 unless the case was run with
    #: ``audit=True`` and something actually broke).
    violations: int = 0

    @property
    def recovered(self) -> bool:
        return (
            self.manager_crashes == 1
            and self.mttr_manager_s > 0
            and self.replayed_records >= 1  # the interrupted move's record
            and self.drift_detected >= 2  # the injected table tampering
            and self.drift_repaired >= 2
            and not math.isnan(self.tamper_convergence_s)
            and self.end_state_clean
            and self.invariants_ok
        )


@dataclass
class E14Result:
    cases: list[E14Case] = field(default_factory=list)
    reconcile_interval_s: float = 30.0
    monitors: list[RecoveryMonitor] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """Acceptance predicate: every interval's scenario recovered and
        the injected table drift was repaired within two reconciler
        periods of injection (one pass to catch it, one to confirm)."""
        if not self.cases:
            return False
        bound = 2.0 * self.reconcile_interval_s + 1e-9
        return all(
            c.recovered and c.tamper_convergence_s <= bound for c in self.cases
        )

    def table(self) -> Table:
        t = Table(
            "E14 — control-plane crash safety vs checkpoint interval",
            [
                "ckpt interval s",
                "manager MTTR s",
                "lost reconfigs",
                "replayed",
                "ckpts",
                "journaled",
                "drift det/rep",
                "tamper conv s",
                "clean end",
            ],
        )
        for c in self.cases:
            t.add_row(
                c.checkpoint_interval_s,
                round(c.mttr_manager_s, 2),
                c.lost_reconfigurations,
                c.replayed_records,
                c.checkpoints_taken,
                c.journal_appended,
                f"{c.drift_detected}/{c.drift_repaired}",
                "-"
                if math.isnan(c.tamper_convergence_s)
                else round(c.tamper_convergence_s, 1),
                c.end_state_clean,
            )
        t.add_note(
            "crash lands inside the move_vip cutover: the journal's PREPARED "
            "record is what lets replay finish the half-configured move"
        )
        t.add_note(
            f"reconciler period {self.reconcile_interval_s:g} s; convergence "
            f"bound = 2 periods"
        )
        t.add_note(f"scenario recovered: {self.recovered}")
        return t


def _run_case(
    seed: int,
    duration_s: float,
    checkpoint_interval_s: float,
    config: PlatformConfig,
    trace=None,
    audit: bool = False,
) -> tuple[E14Case, RecoveryMonitor]:
    hub = RngHub(seed)
    apps = WorkloadBuilder(
        n_apps=10,
        total_gbps=5.0,
        diurnal_fraction=0.0,  # steady load: the control plane is the story
        rng_hub=hub.spawn("workload"),
    ).build()
    dc = MegaDataCenter(
        apps,
        config=config,
        n_pods=3,
        servers_per_pod=8,
        n_switches=4,
        crash_safe_manager=True,
        trace=trace,
        audit=audit,
    )

    # Victim switch: the one carrying the most VIPs, so the crash has the
    # longest re-home queue to wipe.
    switch = max(dc.switches.values(), key=lambda s: (s.num_vips, s.name)).name
    # Crash mid-first-move: detection + one reconfiguration puts the move
    # into its cutover window; 3/4 of the window absorbs an in-flight
    # request delaying the move by up to one reconfiguration.
    t_crash = (
        T0
        + config.fault_detection_s
        + config.switch_reconfig_s
        + 0.75 * config.manager_cutover_s
    )
    schedule = FaultSchedule.from_events(
        [
            (T0, "switch_fail", switch),
            (t_crash, "manager_crash", "viprip"),
            (t_crash + 120.0, "manager_recover", "viprip"),
            (T0 + OUTAGE_S, "switch_recover", switch),
        ]
    )
    monitor = RecoveryMonitor()
    injector = FaultInjector(dc, schedule, monitor)

    def tamper():
        # Direct table corruption the control plane never sanctioned: the
        # reconciler, not the journal, must catch this class of fault.
        yield dc.env.timeout(DRIFT_T)
        tampered = 0
        for name in sorted(dc.switches):
            sw = dc.switches[name]
            if name in dc.state.failed_switches:
                continue
            for vip in sorted(sw.vips()):
                rips = sorted(sw.entry(vip).rips)
                if tampered == 0 and rips:
                    sw.remove_rip(vip, rips[0])  # registered RIP vanishes
                    tampered += 1
                elif tampered == 1:
                    sw.add_rip(vip, "rip-ghost-e14", 1.0)  # unaccounted RIP
                    tampered += 1
                if tampered >= 2:
                    return
            if tampered >= 2:
                return

    dc.env.process(tamper())
    dc.run(duration_s)
    assert injector.finished

    # End-state audit: one more reconciliation pass must come back clean.
    final = dc.reconciler.run_pass()
    # Convergence of the injected tampering: injection time to the first
    # clean (non-skipped) pass after a pass saw the drift.
    tamper_conv = math.nan
    dirty = next(
        (r for r in dc.reconciler.reports if r.t >= DRIFT_T and r.detected), None
    )
    if dirty is not None:
        clean = next(
            (
                r
                for r in dc.reconciler.reports
                if r.t > dirty.t and r.clean and not r.notes
            ),
            None,
        )
        if clean is not None:
            tamper_conv = clean.t - DRIFT_T
    tally = monitor.mttr("manager")
    case = E14Case(
        checkpoint_interval_s=checkpoint_interval_s,
        mttr_manager_s=tally.mean if tally is not None and tally.count else 0.0,
        lost_reconfigurations=dc.viprip.lost,
        replayed_records=dc.viprip.replayed,
        checkpoints_taken=dc.checkpoints.taken,
        journal_appended=dc.journal.appended,
        manager_crashes=dc.manager_crashes,
        drift_detected=dc.reconciler.drift_detected,
        drift_repaired=dc.reconciler.drift_repaired,
        convergence_max_s=(
            max(dc.reconciler.convergence_times)
            if dc.reconciler.convergence_times
            else math.nan
        ),
        tamper_convergence_s=tamper_conv,
        end_state_clean=final.clean,
        invariants_ok=dc.invariants_ok(),
        violations=len(dc.auditor.violations) if dc.auditor is not None else 0,
    )
    dc.close()
    return case, monitor


def run(
    seed: int = 42,
    duration_s: float = 1800.0,
    checkpoint_intervals: tuple[float, ...] = DEFAULT_INTERVALS,
    trace=None,
    audit: bool = False,
) -> E14Result:
    """Sweep the checkpoint interval over the scripted crash scenario.

    With *trace*/*audit*, every case emits onto the same trace bus and is
    audited online (each case's auditor detaches at case end, so sweeps
    do not cross-talk)."""
    if duration_s < MIN_DURATION_S:
        raise ValueError(
            f"duration_s={duration_s:g} too short: the scripted scenario "
            f"(crash at ~{T0:g}s, drift at {DRIFT_T:g}s, convergence) "
            f"needs >= {MIN_DURATION_S:g} s"
        )
    result = E14Result()
    for interval in checkpoint_intervals:
        config = PlatformConfig(checkpoint_interval_s=interval, manager_cutover_s=4.0)
        result.reconcile_interval_s = config.reconcile_interval_s
        case, monitor = _run_case(
            seed, duration_s, interval, config, trace=trace, audit=audit
        )
        result.cases.append(case)
        result.monitors.append(monitor)
    return result
