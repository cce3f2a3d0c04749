"""Recovery metrics: how fast and how lossy the degradation responses are.

MTTR here is *mean time to respond*: from fault injection until the
management stack finished its degradation response (demand re-placed, VIP
re-homed, DNS re-steered) — not until the hardware is repaired.  That is
the quantity the paper's knobs control; hardware repair time is an input
of the schedule, not an outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.reporting import Table
from repro.sim.monitor import Tally


@dataclass
class FaultRecord:
    """Lifecycle of one injected fault."""

    t_injected: float
    kind: str
    target: str
    fault_class: str
    t_responded: Optional[float] = None
    t_repaired: Optional[float] = None

    @property
    def mttr_s(self) -> Optional[float]:
        if self.t_responded is None:
            return None
        return self.t_responded - self.t_injected


@dataclass
class RecoveryMonitor:
    """Aggregates fault lifecycles into per-class recovery statistics."""

    records: list[FaultRecord] = field(default_factory=list, init=False)
    #: Demand-seconds lost while traffic black-holed (Gb, i.e. Gbps*s).
    dropped_gb: float = field(default=0.0, init=False)
    #: Queued/in-flight reconfigurations dropped by control-plane crashes.
    lost_reconfigurations: int = field(default=0, init=False)
    #: Drift instances the anti-entropy reconciler found / repaired.
    drift_detected: int = field(default=0, init=False)
    drift_repaired: int = field(default=0, init=False)
    #: Drift-to-clean convergence intervals of the reconciler (seconds).
    convergence_s: Tally = field(default_factory=Tally, init=False)
    #: VIPs the reconciler reported stuck (drift unrepaired for more than
    #: ``STUCK_AFTER_ROUNDS`` consecutive passes).
    stuck_vips: set[str] = field(default_factory=set, init=False)
    #: How many times a stuck-VIP report came in (a vip can re-stick).
    stuck_vip_reports: int = field(default=0, init=False)
    _open: dict[tuple[str, str], FaultRecord] = field(default_factory=dict, init=False)
    _mttr: dict[str, Tally] = field(default_factory=dict, init=False)

    # -- lifecycle hooks (called by the injector / facade) -----------------
    def fault_started(self, t: float, kind: str, target: str, fault_class: str) -> FaultRecord:
        rec = FaultRecord(t_injected=t, kind=kind, target=target, fault_class=fault_class)
        self.records.append(rec)
        self._open[(fault_class, target)] = rec
        return rec

    def fault_responded(self, rec: FaultRecord, t: float) -> None:
        if rec.t_responded is not None:
            return
        rec.t_responded = t
        tally = self._mttr.setdefault(rec.fault_class, Tally())
        tally.observe(rec.mttr_s)

    def fault_repaired(self, t: float, fault_class: str, target: str) -> None:
        rec = self._open.pop((fault_class, target), None)
        if rec is not None:
            rec.t_repaired = t

    def note_dropped(self, gbps: float, dt_s: float) -> None:
        """Called by the epoch loop with the black-holed demand rate."""
        self.dropped_gb += gbps * dt_s

    def note_lost_reconfigurations(self, n: int) -> None:
        """Called by the facade when a manager crash drops queued work."""
        self.lost_reconfigurations += n

    def note_drift(self, detected: int, repaired: int) -> None:
        """Called by the anti-entropy reconciler after a drifty pass."""
        self.drift_detected += detected
        self.drift_repaired += repaired

    def note_convergence(self, dt_s: float) -> None:
        """Called by the reconciler on the first clean pass after drift."""
        self.convergence_s.observe(dt_s)

    def note_stuck_vips(self, vips) -> None:
        """Called by the reconciler when drift on these VIPs persisted
        beyond its stuck threshold."""
        self.stuck_vips.update(vips)
        self.stuck_vip_reports += 1

    # -- views --------------------------------------------------------------
    @property
    def responded(self) -> int:
        return sum(1 for r in self.records if r.t_responded is not None)

    def mttr(self, fault_class: str) -> Optional[Tally]:
        return self._mttr.get(fault_class)

    def table(self, reconfig_retries: int = 0) -> Table:
        table = Table(
            "failure recovery",
            ["fault class", "faults", "responded", "MTTR mean s", "MTTR max s"],
        )
        for cls_name in sorted(self._mttr):
            tally = self._mttr[cls_name]
            injected = sum(1 for r in self.records if r.fault_class == cls_name)
            table.add_row(cls_name, injected, tally.count, tally.mean, tally.maximum)
        unresponded = [r for r in self.records if r.t_responded is None]
        for r in unresponded:
            table.add_note(f"no response recorded for {r.kind} {r.target}")
        table.add_note(f"demand dropped during blackouts: {self.dropped_gb:.1f} Gb")
        table.add_note(f"reconfiguration retries: {reconfig_retries}")
        if self.lost_reconfigurations:
            table.add_note(
                f"reconfigurations lost to manager crashes: "
                f"{self.lost_reconfigurations}"
            )
        if self.drift_detected:
            table.add_note(
                f"anti-entropy drift: {self.drift_detected} detected, "
                f"{self.drift_repaired} repaired"
            )
        if self.convergence_s.count:
            table.add_note(
                f"reconciler convergence: mean {self.convergence_s.mean:.1f} s, "
                f"max {self.convergence_s.maximum:.1f} s"
            )
        if self.stuck_vips:
            table.add_note(
                f"stuck VIPs (drift unrepaired past threshold): "
                f"{', '.join(sorted(self.stuck_vips))}"
            )
        return table
