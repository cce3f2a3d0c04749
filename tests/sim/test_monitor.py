"""Unit tests for Tally, TimeSeries, UtilizationMonitor, RngHub."""

import math

import numpy as np
import pytest

from repro.sim import Environment, RngHub, Tally, TimeSeries, UtilizationMonitor, stable_hash


def test_tally_statistics():
    t = Tally()
    for v in [1, 2, 3, 4, 5]:
        t.observe(v)
    assert t.count == 5
    assert t.mean == pytest.approx(3.0)
    assert t.maximum == 5


def test_tally_empty():
    t = Tally()
    assert t.count == 0
    assert math.isnan(t.mean)
    assert math.isnan(t.maximum)


def test_timeseries_step_semantics():
    env = Environment()
    ts = TimeSeries(env)

    def proc():
        ts.observe(10)
        yield env.timeout(5)
        ts.observe(20)
        yield env.timeout(5)
        ts.observe(0)

    env.process(proc())
    env.run()
    assert ts.value_at(0) == 10
    assert ts.value_at(4.9) == 10
    assert ts.value_at(5) == 20
    assert ts.value_at(10) == 0
    # time average over [0, 10]: 10*5 + 20*5 = 150 / 10 = 15
    assert ts.time_average(0, 10) == pytest.approx(15.0)


def test_timeseries_same_instant_keeps_latest():
    env = Environment()
    ts = TimeSeries(env)
    ts.observe(1)
    ts.observe(2)
    assert ts.times().size == 1
    assert ts.current == 2


def test_timeseries_empty_nan():
    env = Environment()
    ts = TimeSeries(env)
    assert math.isnan(ts.current)
    assert math.isnan(ts.time_average())
    assert math.isnan(ts.value_at(0))


def test_utilization_monitor():
    env = Environment()
    mon = UtilizationMonitor(env, capacity=100.0)

    def proc():
        mon.set_load(50)
        yield env.timeout(10)
        mon.set_load(150)
        yield env.timeout(10)
        mon.set_load(0)

    env.process(proc())
    env.run()
    assert env.now == 20
    assert mon.utilization == 0.0
    # (50*10 + 150*10) / 20 s / capacity 100
    assert mon.series.time_average(0, 20) / mon.capacity == pytest.approx(1.0)
    with pytest.raises(ValueError):
        UtilizationMonitor(env, capacity=0)


def test_rng_hub_deterministic_and_independent():
    h1 = RngHub(seed=7)
    h2 = RngHub(seed=7)
    a = h1.stream("arrivals", 3).random(5)
    b = h2.stream("arrivals", 3).random(5)
    assert np.allclose(a, b)
    c = h1.stream("arrivals", 4).random(5)
    assert not np.allclose(a, c)


def test_rng_hub_caches_streams():
    hub = RngHub(0)
    assert hub.stream("x") is hub.stream("x")


def test_rng_spawn_independent():
    hub = RngHub(1)
    child = hub.spawn("pod", 0)
    a = hub.stream("load").random(4)
    b = child.stream("load").random(4)
    assert not np.allclose(a, b)


def test_stable_hash_is_stable():
    assert stable_hash("a", 1) == stable_hash("a", 1)
    assert stable_hash("a", 1) != stable_hash("a", 2)
    assert 0 <= stable_hash("anything") < 2**64
