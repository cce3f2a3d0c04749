"""MetricsRegistry: instrument semantics, lazy caching, no-op mode,
and JSON export."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import _NULL


def test_counter_accumulates_and_rejects_negative():
    reg = MetricsRegistry()
    c = reg.counter("epochs")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError, match="only go up"):
        c.inc(-1)
    assert reg.counter("epochs") is c  # cached by name


def test_gauge_set_and_add():
    reg = MetricsRegistry()
    g = reg.gauge("pool.size")
    assert g.value is None
    g.add(2)  # add from unset starts at 0
    g.set(7)
    g.add(-3)
    assert g.value == 4.0


def test_histogram_snapshot_quantiles():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    for v in range(1, 101):
        h.observe(float(v))
    snap = h.snapshot()
    assert snap["count"] == 100
    assert snap["min"] == 1.0 and snap["max"] == 100.0
    assert 45 <= snap["p50"] <= 55
    assert snap["p99"] >= snap["p90"] >= snap["p50"]


def test_empty_histogram_snapshot_is_all_none():
    snap = MetricsRegistry().histogram("empty").snapshot()
    assert snap["count"] == 0
    for key in ("mean", "min", "max", "p50", "p90", "p99"):
        assert snap[key] is None


def test_timer_records_positive_durations():
    reg = MetricsRegistry()
    t = reg.timer("epoch.wall_s")
    for _ in range(3):
        with t.time():
            sum(range(100))
    snap = t.snapshot()
    assert snap["type"] == "timer"
    assert snap["count"] == 3
    assert snap["min"] >= 0.0


def test_name_type_collision_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError, match="already registered"):
        reg.gauge("x")


def test_disabled_registry_hands_out_shared_null():
    reg = MetricsRegistry(enabled=False)
    c = reg.counter("a")
    assert c is _NULL
    assert reg.timer("b") is _NULL
    # Every instrument op is a silent no-op, including the timer context.
    c.inc()
    c.set(3)
    c.observe(1.0)
    with reg.timer("b").time():
        pass
    assert reg.snapshot() == {}


def test_to_json_round_trip():
    """The snapshot is the export format: it survives a JSON round trip."""
    reg = MetricsRegistry()
    reg.counter("epochs").inc(4)
    reg.gauge("vms").set(12)
    with reg.timer("epoch.wall_s").time():
        pass
    snap = reg.snapshot()
    assert json.loads(json.dumps(snap)) == snap
    assert snap["epochs"] == {"type": "counter", "value": 4.0}
    assert snap["vms"]["value"] == 12.0


def test_iteration_is_name_sorted():
    reg = MetricsRegistry()
    for name in ("zeta", "alpha", "mid"):
        reg.counter(name)
    assert [name for name, _ in reg] == ["alpha", "mid", "zeta"]
