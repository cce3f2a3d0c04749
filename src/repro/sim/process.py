"""Generator-based simulation processes.

A process wraps a Python generator that yields events.  When a yielded event
is processed the process is resumed with the event's value (or the event's
exception is thrown into the generator).  A process is itself an event that
triggers when the generator returns (value = the generator's return value)
or raises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import NORMAL, PENDING, URGENT, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Process(Event):
    """An active simulation process (and the event of its termination)."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # The event this process is currently waiting on.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init, priority=URGENT)
        self._target: Optional[Event] = init

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the next step.

        The process stops waiting on its current target (the target event
        itself is unaffected and may still fire; its value is simply no
        longer delivered to this process).  A process interrupted before
        its first step still runs up to its first yield, then receives the
        interrupt there (an exception cannot be thrown into an unstarted
        generator).
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already terminated")
        if self.env.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True  # delivered via throw; never "unhandled"
        event.callbacks.append(self._deliver_interrupt)
        self.env.schedule(event, priority=URGENT)

    def _deliver_interrupt(self, event: Event) -> None:
        """Unsubscribe from the current target and resume with the
        failure — at delivery time, so a pre-start interrupt arrives only
        after the initializer has advanced the generator to its first
        yield."""
        if self._value is not PENDING:
            return  # terminated in the meantime; drop silently
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._target = event
        self._resume(event)

    # -- internal ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        env = self.env
        env._active_proc = self
        try:
            while True:
                try:
                    if event._ok:
                        target = self._generator.send(event._value)
                    else:
                        # The waiter is handling the failure.
                        event._defused = True
                        target = self._generator.throw(event._value)
                except StopIteration as exc:
                    self._target = None
                    self.succeed(exc.value)
                    return
                except BaseException as exc:
                    self._target = None
                    self.fail(exc)
                    return

                if not isinstance(target, Event):
                    exc = RuntimeError(
                        f"process yielded a non-event: {target!r}"
                    )
                    try:
                        self._generator.throw(exc)
                    except StopIteration as stop:
                        self._target = None
                        self.succeed(stop.value)
                        return
                    except BaseException as raised:
                        self._target = None
                        self.fail(raised)
                        return
                    raise exc  # pragma: no cover - generator swallowed it oddly

                if target.callbacks is not None:
                    # Not yet processed: subscribe and suspend.
                    target.callbacks.append(self._resume)
                    self._target = target
                    return
                # Already processed: resume immediately with its outcome.
                event = target
        finally:
            env._active_proc = None
