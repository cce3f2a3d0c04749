"""The fault injector: walks a schedule and inflicts it on the facade.

One sim process sleeps until each event's time and dispatches to the
matching :class:`~repro.core.datacenter.MegaDataCenter` handler.  Failure
handlers return an event that fires when the degradation response is done;
the injector chains a callback onto it to clock the fault's MTTR, so
response measurement never blocks injection of the next fault (faults
overlap, exactly like real outages).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.metrics import RecoveryMonitor
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.datacenter import MegaDataCenter


class FaultInjector:
    """Replays a :class:`FaultSchedule` against a running data center."""

    def __init__(
        self,
        dc: "MegaDataCenter",
        schedule: FaultSchedule,
        monitor: RecoveryMonitor | None = None,
    ):
        self.dc = dc
        self.schedule = schedule
        # Fail fast on targets this facade cannot resolve — the handlers
        # historically no-oped on a missing name, which let typo'd (or
        # single-representation) scenarios run green while injecting
        # nothing.  Facades without a target inventory skip the check.
        fault_targets = getattr(dc, "fault_targets", None)
        if fault_targets is not None:
            schedule.validate_targets(fault_targets())
        self.monitor = monitor if monitor is not None else RecoveryMonitor()
        # The epoch loop feeds black-holed demand into the same monitor.
        dc.recovery_monitor = self.monitor
        self.injected = 0
        self._proc = dc.env.process(self._run())

    def _run(self):
        env = self.dc.env
        for ev in self.schedule:
            if ev.t > env.now:
                yield env.timeout(ev.t - env.now)
            self._dispatch(ev)
            self.injected += 1

    def _dispatch(self, ev: FaultEvent) -> None:
        env = self.dc.env
        trace = self.dc.trace
        if trace.enabled:
            trace.emit(
                "fault.inject" if ev.kind.is_failure else "fault.recover",
                t=env.now, fault=ev.kind.value, target=ev.target,
            )
        handler = {
            FaultKind.SERVER_CRASH: self.dc.crash_server,
            FaultKind.SERVER_RECOVER: self.dc.recover_server,
            FaultKind.SWITCH_FAIL: self.dc.fail_switch,
            FaultKind.SWITCH_RECOVER: self.dc.recover_switch,
            FaultKind.LINK_DOWN: self.dc.fail_link,
            FaultKind.LINK_UP: self.dc.recover_link,
            FaultKind.MANAGER_CRASH: self.dc.crash_manager,
            FaultKind.MANAGER_RECOVER: self.dc.recover_manager,
            FaultKind.SHARD_PARTITION: self.dc.partition_shards,
            FaultKind.SHARD_HEAL: self.dc.heal_shards,
        }[ev.kind]
        done = handler(ev.target)
        if ev.kind.is_failure:
            rec = self.monitor.fault_started(
                env.now, ev.kind.value, ev.target, ev.kind.fault_class
            )
            done.callbacks.append(
                lambda _event, rec=rec: self.monitor.fault_responded(rec, env.now)
            )
        else:
            self.monitor.fault_repaired(env.now, ev.kind.fault_class, ev.target)

    @property
    def finished(self) -> bool:
        return self.injected >= len(self.schedule)
