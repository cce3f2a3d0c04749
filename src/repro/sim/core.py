"""The simulation environment: clock, agenda, and the run loop.

The agenda is a binary heap of ``(time, priority, sequence, event)`` tuples.
The sequence counter makes ordering total and deterministic: two events
scheduled for the same time and priority are processed in insertion order,
which in turn makes every simulation in this repository exactly repeatable
for a given seed.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Generator, Optional, Union

from repro.sim.events import NORMAL, PENDING, URGENT, Event, Timeout
from repro.sim.process import Process


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at an event."""


class Environment:
    """A discrete-event simulation environment.

    The clock starts at 0.0; its units are seconds throughout this
    repository.
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = count()
        self._active_proc: Optional[Process] = None

    # -- clock & agenda --------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place *event* on the agenda ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(self._queue, (self._now + delay, priority, next(self._seq), event))

    # -- factories --------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process executing *generator*."""
        return Process(self, generator)

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process the next event on the agenda.

        Raises
        ------
        IndexError
            If the agenda is empty.
        BaseException
            A failed event whose failure nobody defused re-raises here.
        """
        self._now, _, _, event = heapq.heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            # Nobody handled the failure: crash loudly.
            raise event._value

    def run(self, until: Union[None, float, int, Event] = None) -> Any:
        """Run the simulation.

        * ``run()`` — until the agenda is empty.
        * ``run(until=t)`` — until simulated time *t*; the clock is left at
          exactly *t*.
        * ``run(until=event)`` — until *event* is processed; returns its
          value (or raises its failure).
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:
                    # Already processed.
                    if stop._ok:
                        return stop._value
                    stop._defused = True
                    raise stop._value
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(f"until={at} is in the past (now={self._now})")
                stop = Event(self)
                stop._ok = True
                stop._value = None
                # URGENT so the clock stops before any user event at `at`.
                heapq.heappush(self._queue, (at, URGENT, next(self._seq), stop))
            stop.callbacks.append(_stop_simulation)

        try:
            while self._queue:
                self.step()
        except StopSimulation as exc:
            ev: Event = exc.args[0]
            if ev._ok:
                return ev._value
            ev._defused = True
            raise ev._value
        if stop is not None and not stop.processed:
            raise RuntimeError("run(until=event) finished before event was triggered")
        return None


def _stop_simulation(event: Event) -> None:
    raise StopSimulation(event)
