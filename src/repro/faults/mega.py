"""Mega-scale fault injection: epoch-time faults against the columnar loop.

The simpy :class:`~repro.faults.injector.FaultInjector` replays schedules
in continuous sim time against the object-model facade.  At mega scale
there is no simpy clock — the :class:`~repro.core.mega.MegaScaleDriver`
advances in discrete epochs — so this injector dispatches every due event
at the *start* of the epoch whose time has reached it, mutating
:class:`~repro.core.columnar.ColumnarPodState` directly through the
driver's fault surgery (``lose_pod`` / ``restore_pod`` /
``crash_server`` / ``recover_server``).

MTTR semantics: a failure is *responded to* when the epoch that absorbed
it completes — the surviving pods have re-placed the spilled demand by
then (the driver calls :meth:`epoch_done`).  Repairs clock
``fault_repaired`` at their injection time.

Targets are validated up front against ``driver.fault_targets()``
(:class:`~repro.faults.schedule.UnknownFaultTarget` on a miss), so a
schedule naming a pod or server that exists in only one representation
fails loudly instead of silently injecting nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.metrics import FaultRecord, RecoveryMonitor
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.mega import MegaScaleDriver


#: Fault kinds the mega loop knows how to inflict.
MEGA_KINDS = frozenset(
    {
        FaultKind.POD_LOSS,
        FaultKind.POD_RESTORE,
        FaultKind.SERVER_CRASH,
        FaultKind.SERVER_RECOVER,
    }
)


class MegaFaultInjector:
    """Replays a :class:`FaultSchedule` against a :class:`MegaScaleDriver`."""

    def __init__(
        self,
        driver: "MegaScaleDriver",
        schedule: FaultSchedule,
        monitor: RecoveryMonitor | None = None,
    ):
        unsupported = sorted(
            {ev.kind.value for ev in schedule if ev.kind not in MEGA_KINDS}
        )
        if unsupported:
            raise ValueError(
                f"mega loop cannot inject fault kinds: {', '.join(unsupported)}"
            )
        schedule.validate_targets(driver.fault_targets())
        self.driver = driver
        self.schedule = schedule
        self.monitor = monitor if monitor is not None else RecoveryMonitor()
        driver.fault_injector = self
        driver.monitor = self.monitor
        self.injected = 0
        self._next = 0
        #: Failures injected this epoch, awaiting the epoch-end response.
        self._awaiting: list[FaultRecord] = []

    # -- epoch hooks (called by the driver) ---------------------------------
    def advance(self, t: float) -> int:
        """Inject every event due at or before *t*; returns how many."""
        n = 0
        events = self.schedule.events
        while self._next < len(events) and events[self._next].t <= t:
            self._dispatch(events[self._next], t)
            self._next += 1
            self.injected += 1
            n += 1
        return n

    def epoch_done(self, t: float, report=None) -> None:
        """The epoch absorbing this round's failures finished: clock the
        degradation response (MTTR numerator) for each.  In epoch time
        the re-placement lands at the *next* boundary, so the response
        time is ``t + epoch_s`` — a fault absorbed within its injection
        epoch has MTTR of one epoch."""
        done_t = t + self.driver.config.epoch_s
        for rec in self._awaiting:
            self.monitor.fault_responded(rec, done_t)
        self._awaiting.clear()

    def _dispatch(self, ev: FaultEvent, t: float) -> None:
        d = self.driver
        if ev.kind is FaultKind.POD_LOSS:
            d.lose_pod(ev.target, t=t)
        elif ev.kind is FaultKind.POD_RESTORE:
            d.restore_pod(ev.target, t=t)
        elif ev.kind is FaultKind.SERVER_CRASH:
            d.crash_server(ev.target, t=t)
        else:
            d.recover_server(ev.target, t=t)
        if ev.kind.is_failure:
            self._awaiting.append(
                self.monitor.fault_started(
                    t, ev.kind.value, ev.target, ev.kind.fault_class
                )
            )
        else:
            self.monitor.fault_repaired(t, ev.kind.fault_class, ev.target)
