"""Unit tests for Tally, TimeSeries, UtilizationMonitor, RngHub."""

import math

import numpy as np
import pytest

from repro.sim import Environment, RngHub, Tally, TimeSeries, UtilizationMonitor, stable_hash


def test_tally_statistics():
    t = Tally("x")
    for v in [1, 2, 3, 4, 5]:
        t.observe(v)
    assert t.count == 5
    assert t.mean == pytest.approx(3.0)
    assert t.minimum == 1 and t.maximum == 5
    assert t.percentile(50) == pytest.approx(3.0)


def test_tally_empty():
    t = Tally()
    assert t.count == 0
    assert math.isnan(t.mean)
    assert t.percentile(50) is None


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
    # fresh() restarts the stream
    f1 = hub.fresh("x").random(3)
    f2 = hub.fresh("x").random(3)
    assert np.allclose(f1, f2)


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


# -- Tally bounded retention (regression: unbounded memory growth) ----------
def test_tally_memory_is_bounded_by_reservoir():
    t = Tally("bounded", reservoir_size=100)
    for i in range(10_000):
        t.observe(float(i))
    assert t.count == 10_000
    assert t.values().size == 100  # raw retention capped
    # exact aggregate stats survive regardless of the cap
    assert t.mean == pytest.approx(4999.5)
    assert t.minimum == 0.0
    assert t.maximum == 9999.0


def test_tally_percentiles_exact_until_overflow():
    t = Tally("exact", reservoir_size=1000)
    values = list(range(500))
    for v in values:
        t.observe(float(v))
    assert t.values().size == 500
    assert t.percentile(50) == pytest.approx(np.percentile(values, 50))
    assert t.percentile(99) == pytest.approx(np.percentile(values, 99))


def test_tally_percentiles_approximate_after_overflow():
    t = Tally("approx", reservoir_size=512)
    n = 50_000
    for i in range(n):
        t.observe(float(i))
    # a uniform sample of 0..n-1: the median estimate lands near n/2
    assert abs(t.percentile(50) - n / 2) < n * 0.15
    assert t.percentile(0) >= 0.0
    assert t.percentile(100) <= n - 1


def test_tally_reservoir_sampling_deterministic():
    def fill(name):
        t = Tally(name, reservoir_size=64)
        for i in range(5000):
            t.observe(float(i))
        return t.values()

    assert np.array_equal(fill("same"), fill("same"))
    assert not np.array_equal(fill("same"), fill("other"))


def test_tally_keep_values_opts_into_unbounded_retention():
    t = Tally("full", keep_values=True, reservoir_size=10)
    values = list(range(1000))
    for v in values:
        t.observe(float(v))
    assert t.values().size == 1000
    assert t.percentile(90) == pytest.approx(np.percentile(values, 90))


def test_tally_rejects_bad_reservoir_size():
    with pytest.raises(ValueError):
        Tally("bad", reservoir_size=0)
