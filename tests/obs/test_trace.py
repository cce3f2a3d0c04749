"""TraceBus: canonical encoding, digests, buffering, file round-trips,
and the pool-boundary trace context."""

import json

import numpy as np
import pytest

from repro.obs import (
    RESERVED_KEYS,
    TraceBus,
    TraceEvent,
    diff_traces,
    digest_of,
    read_trace,
    summarize_trace,
)
from repro.obs.trace import canonical_line


def test_emit_assigns_sequential_seq_and_keeps_events():
    bus = TraceBus()
    bus.emit("a", t=1.0, x=1)
    bus.emit("b", t=2.0, y=2)
    assert [ev.seq for ev in bus.events] == [0, 1]
    assert bus.count == 2
    assert [ev.kind for ev in bus.events] == ["a", "b"]


def test_reserved_keys_rejected():
    bus = TraceBus()
    # "t" and "kind" already collide with emit's own parameters at call
    # time; "seq" is the one that must be caught by the payload guard.
    assert {"t", "kind", "seq"} <= RESERVED_KEYS
    with pytest.raises(ValueError, match="reserved"):
        bus.emit("a", t=0.0, seq=1)
    with pytest.raises(TypeError):
        bus.emit("a", t=0.0, kind="shadow")
    # The failed emits consumed no sequence numbers.
    assert bus.count == 0


def test_disabled_bus_is_a_noop():
    bus = TraceBus(enabled=False)
    assert bus.emit("a", t=0.0, x=1) is None
    assert bus.count == 0
    assert bus.events == []


def test_canonical_line_is_sorted_and_compact():
    line = canonical_line({"b": 1, "a": 2})
    assert line == '{"a":2,"b":1}'


def test_digest_is_order_and_content_sensitive():
    bus1, bus2, bus3 = TraceBus(), TraceBus(), TraceBus()
    bus1.emit("a", t=0.0, x=1)
    bus1.emit("b", t=1.0, x=2)
    bus2.emit("a", t=0.0, x=1)
    bus2.emit("b", t=1.0, x=2)
    bus3.emit("b", t=1.0, x=2)
    bus3.emit("a", t=0.0, x=1)
    assert bus1.digest == bus2.digest
    assert bus1.digest != bus3.digest


def test_digest_stable_across_kwarg_order():
    bus1, bus2 = TraceBus(), TraceBus()
    bus1.emit("a", t=0.0, x=1, y=2)
    bus2.emit("a", t=0.0, y=2, x=1)
    assert bus1.digest == bus2.digest


def test_numpy_payloads_are_sanitized():
    bus = TraceBus()
    bus.emit(
        "a",
        t=np.float64(1.5),
        count=np.int64(3),
        flag=np.bool_(True),
        vec=[np.int32(1), np.int32(2)],
    )
    payload = json.loads(bus.events[0].line())
    assert payload == {
        "seq": 0, "t": 1.5, "kind": "a",
        "count": 3, "flag": True, "vec": [1, 2],
    }
    # The digest path sanitizes identically to the kept event.
    assert digest_of(bus.events) == bus.digest


def test_buffered_digest_matches_eager_event_digest():
    # Encoding is deferred; reading .digest must drain the buffer and
    # agree with a per-event recomputation.
    bus = TraceBus()
    for i in range(10):
        bus.emit("k", t=float(i), i=i)
    assert digest_of(bus.events) == bus.digest
    # Reading the digest mid-stream must not corrupt later folding.
    bus.emit("k", t=99.0, i=99)
    assert digest_of(bus.events) == bus.digest


def test_drain_threshold_crossing_preserves_digest():
    small, big = TraceBus(), TraceBus()
    n = TraceBus._DRAIN_EVERY + 10
    for i in range(n):
        big.emit("k", t=float(i), i=i)
        small.emit("k", t=float(i), i=i)
        small.digest  # force a drain after every event
    assert big.digest == small.digest


def test_file_sink_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    with TraceBus(path=str(path)) as bus:
        bus.emit("a", t=0.0, x=1)
        bus.emit("b", t=2.5, y="s")
        # Int keys come back as strings, which sort "10" < "2".
        bus.emit("c", t=3.0, fired={2: 1, 10: 3})
        live_digest = bus.digest
    assert digest_of(bus.events) == live_digest
    events = read_trace(str(path))
    assert [ev.kind for ev in events] == ["a", "b", "c"]
    assert events[1].data == {"y": "s"}
    assert events[2].data == {"fired": {"2": 1, "10": 3}}
    assert digest_of(events) == live_digest
    summary = summarize_trace(str(path))
    assert summary["events"] == 3
    assert summary["digest"] == live_digest
    assert summary["t_first"] == 0.0 and summary["t_last"] == 3.0


def test_diff_traces_reports_divergence(tmp_path):
    pa, pb = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    with TraceBus(path=pa) as a:
        a.emit("x", t=0.0, v=1)
        a.emit("y", t=1.0, v=2)
    with TraceBus(path=pb) as b:
        b.emit("x", t=0.0, v=1)
        b.emit("y", t=1.0, v=3)
        b.emit("z", t=2.0, v=4)
    d = diff_traces(pa, pb)
    assert not d["identical"]
    assert d["first_divergence"]["index"] == 1
    assert d["kind_delta"] == {"z": 1}
    same = diff_traces(pa, pa)
    assert same["identical"] and same["first_divergence"] is None


def test_subscriber_sees_events_and_can_unsubscribe():
    bus = TraceBus()
    seen: list[TraceEvent] = []
    bus.subscribe(seen.append)
    bus.emit("a", t=0.0)
    bus.unsubscribe(seen.append)
    bus.emit("b", t=1.0)
    assert [ev.kind for ev in seen] == ["a"]


def test_pool_events_carry_epoch_and_delta_sizes():
    """The driver emits pool.dispatch/pool.merge itself, stamped with
    epoch identity, and carries no shipping sizes: the events are
    byte-identical whether the solves ran serial or parallel."""
    from repro.experiments.e02_placement_scalability import (
        make_instance,
        split_into_pods,
    )
    from repro.perf.engine import PlacementEngine, PlacementTask
    from repro.placement import GreedyController

    from repro.placement import PlacementProblem

    def run(parallelism):
        bus = TraceBus()
        pods = split_into_pods(make_instance(40, seed=0), 20)
        controllers = [GreedyController() for _ in pods]
        with PlacementEngine(parallelism) as engine:
            engine.trace = bus
            for epoch in range(2):
                tasks = [
                    PlacementTask(
                        key=f"pod-{i}", problem=p, controller=controllers[i],
                        trace_ctx={"t": 60.0 * epoch, "epoch": str(epoch)},
                    )
                    for i, p in enumerate(pods)
                ]
                solutions = engine.solve_batch(tasks)
                # Next epoch continues from the solved placements (as the
                # real epoch loop does) with unchanged demand.
                pods = [
                    PlacementProblem(
                        server_cpu=p.server_cpu,
                        server_mem=p.server_mem,
                        app_cpu_demand=p.app_cpu_demand,
                        app_mem=p.app_mem,
                        current=s.placement,
                    )
                    for p, s in zip(pods, solutions)
                ]
        return bus

    serial, parallel = run(1), run(2)
    assert serial.digest == parallel.digest
    dispatches = [ev for ev in serial.events if ev.kind == "pool.dispatch"]
    merges = [ev for ev in serial.events if ev.kind == "pool.merge"]
    assert len(dispatches) == 2 and len(merges) == 4
    # Dispatch names the epoch and its tasks; merge carries the solution
    # CRCs.  Neither says how or where a task ran.
    for epoch, ev in enumerate(dispatches):
        assert ev.data == {"epoch": str(epoch), "tasks": ["pod-0", "pod-1"]}
    for ev in merges:
        assert set(ev.data) == {"key", "epoch", "placement_crc", "load_crc"}
