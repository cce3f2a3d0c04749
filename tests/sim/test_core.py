"""Unit tests for the discrete-event kernel: environment, events, processes."""

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    Process,
)


def test_empty_run_returns_none():
    env = Environment()
    assert env.run() is None
    assert env.now == 0.0


def test_timeout_ordering():
    env = Environment()
    log = []

    def worker(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(worker("a", 2))
    env.process(worker("b", 1))
    env.process(worker("c", 3))
    env.run()
    assert log == [(1, "b"), (2, "a"), (3, "c")]


def test_simultaneous_events_fifo():
    env = Environment()
    log = []

    def worker(name):
        yield env.timeout(5)
        log.append(name)

    for name in "abcd":
        env.process(worker(name))
    env.run()
    assert log == list("abcd")


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(1)

    env.process(ticker())
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_event_returns_value():
    env = Environment()

    def worker():
        yield env.timeout(3)
        return "done"

    proc = env.process(worker())
    assert env.run(until=proc) == "done"
    assert env.now == 3


def test_run_until_past_raises():
    env = Environment()
    env.process(iter_timeout(env, 5))
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def iter_timeout(env, t):
    yield env.timeout(t)


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_event_succeed_once():
    env = Environment()
    ev = Event(env)
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = Event(env)
    with pytest.raises(AttributeError):
        _ = ev.value
    with pytest.raises(AttributeError):
        _ = ev.ok


def test_process_waits_on_event():
    env = Environment()
    ev = Event(env)
    got = []

    def waiter():
        value = yield ev
        got.append((env.now, value))

    def trigger():
        yield env.timeout(4)
        ev.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [(4, "payload")]


def test_process_receives_failure_as_exception():
    env = Environment()
    ev = Event(env)
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_crashes_simulation():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()
    log = []

    def short():
        yield env.timeout(1)
        return 7

    def long(proc):
        yield env.timeout(5)
        value = yield proc  # already finished
        log.append((env.now, value))

    p = env.process(short())
    env.process(long(p))
    env.run()
    assert log == [(5, 7)]


def test_process_return_value():
    env = Environment()

    def inner():
        yield env.timeout(1)
        return 42

    def outer():
        value = yield env.process(inner())
        return value * 2

    proc = env.process(outer())
    env.run()
    assert proc.value == 84


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as exc:
            log.append((env.now, exc.cause))

    def attacker(proc):
        yield env.timeout(3)
        proc.interrupt("preempted")

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert log == [(3, "preempted")]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_interrupted_process_can_keep_running():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(2)
        log.append(env.now)

    def attacker(proc):
        yield env.timeout(1)
        proc.interrupt()

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert log == [3]


def test_yield_non_event_raises_in_process():
    env = Environment()

    def bad():
        yield 42

    proc = env.process(bad())
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()
    assert proc.triggered


def test_is_alive_lifecycle():
    env = Environment()

    def worker():
        yield env.timeout(5)

    proc = env.process(worker())
    assert proc.is_alive
    env.run()
    assert not proc.is_alive


def test_nested_processes_three_deep():
    env = Environment()

    def level3():
        yield env.timeout(1)
        return 3

    def level2():
        v = yield env.process(level3())
        yield env.timeout(1)
        return v + 2

    def level1():
        v = yield env.process(level2())
        return v + 1

    proc = env.process(level1())
    env.run()
    assert proc.value == 6
    assert env.now == 2
