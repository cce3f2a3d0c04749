"""Edge cases of the event system: failures, interrupts, run(until=event)."""

import pytest

from repro.sim import Environment, Event, Interrupt


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        Event(env).fail("not an exception")


def test_interrupt_before_first_resume():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(10)
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.args[0]))

    proc = env.process(victim())
    # Interrupt in the same instant, before the victim ever ran.
    proc.interrupt("early")
    env.run()
    assert log == [("interrupted", 0.0, "early")]


def test_process_cannot_interrupt_itself():
    env = Environment()

    def suicidal():
        yield env.timeout(0)
        proc.interrupt()

    proc = env.process(suicidal())
    with pytest.raises(RuntimeError, match="cannot interrupt itself"):
        env.run()


def test_double_interrupt_delivers_both():
    env = Environment()
    hits = []

    def victim():
        for _ in range(2):
            try:
                yield env.timeout(100)
            except Interrupt as exc:
                hits.append(exc.args[0])

    proc = env.process(victim())

    def attacker():
        yield env.timeout(1)
        proc.interrupt("first")
        yield env.timeout(1)
        proc.interrupt("second")

    env.process(attacker())
    env.run()
    assert hits == ["first", "second"]


def test_run_until_untriggered_event_with_empty_agenda_raises():
    env = Environment()
    ev = Event(env)
    with pytest.raises(RuntimeError, match="finished before"):
        env.run(until=ev)


def test_run_until_already_processed_event_returns_value():
    env = Environment()
    t = env.timeout(1, "v")
    env.run()
    assert env.run(until=t) == "v"


def test_run_until_failed_event_raises():
    env = Environment()
    ev = Event(env)

    def failer():
        yield env.timeout(1)
        ev.fail(KeyError("boom"))

    env.process(failer())
    with pytest.raises(KeyError):
        env.run(until=ev)
