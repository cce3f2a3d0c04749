"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.  It
moves through three states:

* *pending* — created, not yet triggered;
* *triggered* — a value (or failure) has been attached and the event has been
  scheduled on the environment's agenda;
* *processed* — its callbacks have run; waiters have been resumed.

Scheduling priorities break ties among events scheduled for the same time.
Lower values run first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.core import Environment

#: Sentinel for "no value attached yet".
PENDING = object()

#: Scheduling priority for bookkeeping events that must precede user events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1
#: Priority for events that should run after all normal events at a time.
LOW = 2


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The *cause* passed to :meth:`repro.sim.process.Process.interrupt` is
    its one argument, ``args[0]``.
    """


class Event:
    """A one-shot occurrence that may succeed with a value or fail.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callbacks invoked (in order) when the event is processed.  Set to
        #: ``None`` once processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or failure has been attached."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise AttributeError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is PENDING:
            raise AttributeError("event not yet triggered")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Attach *value*, mark success, and schedule the event now."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Attach a failure and schedule the event now.

        If no waiter handles (defuses) the failure, the exception propagates
        out of :meth:`Environment.step` to crash the simulation — silent
        failures are bugs.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay=0.0, priority=priority)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it will not crash the kernel."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed *delay*.

    Created via :meth:`Environment.timeout`; it is triggered immediately at
    construction (the delay lives in the agenda).
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

