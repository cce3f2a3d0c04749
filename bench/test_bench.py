"""Self-tests of the benchmark's plumbing (``--smoke`` scale).

Run from the repository root: ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import compare, worker
from bench.run import ROOT, load_spec
from bench.tracing import Tracer
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
METRIC_LINE = re.compile(r"^  (\S+) = (\S+) (\S+)$")


def _bench(tmp_path, *args) -> tuple[str, list[dict], dict]:
    """Run ``bench/run.py --smoke`` over all workloads; returns its
    stdout, the per-workload results and the final JSON line."""
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
         "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return (
        proc.stdout,
        json.loads(out.read_text()),
        json.loads(proc.stdout.strip().splitlines()[-1]),
    )


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _bench(tmp_path_factory.mktemp("untraced"), "--seed", "0")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return (*_bench(tmp, "--seed", "0", "--trace", "1"), tmp)


def _digests(results) -> dict[str, str]:
    return {r["workload"]: r["outcome_digest"] for r in results}


def test_spec_is_well_formed():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_printed_metrics_match_spec(untraced, traced):
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for stdout, results, last, *_ in (untraced, traced):
        printed = [METRIC_LINE.match(line) for line in stdout.splitlines()]
        printed = [m.groups() for m in printed if m]
        assert printed
        for name, value, unit in printed:
            assert NAME.match(name)
            assert units[name] == unit
            float(value)
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    wanted = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    for trace, (_, results, last, *_) in enumerate((untraced, traced)):
        assert sorted(last["metrics"]) == sorted(
            f"{r['workload']}.{n}" for r in results for n in wanted[trace]
        )
        for r in results:
            assert all(r["checks"].values()), r["failures"]


def test_same_seed_same_digest_other_seed_differs(untraced, tmp_path):
    _, again, _ = _bench(tmp_path / "again", "--seed", "0")
    _, other, _ = _bench(tmp_path / "other", "--seed", "1")
    base = _digests(untraced[1])
    assert _digests(again) == base
    other = _digests(other)
    assert all(other[w] != base[w] for w in base)


def test_tracing_changes_no_outcome(untraced, traced):
    assert _digests(traced[1]) == _digests(untraced[1])
    for r in traced[1]:
        assert r["epochs_traced"] >= 1
        assert "trace.overhead_frac" in r["metrics"]


def test_spans_nest_and_self_times_are_non_negative(traced):
    tmp = traced[3]
    for wl in WORKLOADS:
        spans = [
            json.loads(line)
            for line in (tmp / f"spans-{wl}-seed0.jsonl").read_text().splitlines()
        ]
        assert spans
        child_ns = [0] * len(spans)
        for s in spans:
            assert s["end_ns"] >= s["start_ns"]
            if s["parent"] is None:
                assert s["name"] == "mega.run_epoch"
                continue
            parent = spans[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
            assert parent["epoch"] == s["epoch"]
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        for s, c in zip(spans, child_ns):
            assert s["end_ns"] - s["start_ns"] - c >= 0


def test_wrappers_are_removed_after_a_traced_epoch():
    from repro.core.mega import (
        MegaConfig, MegaControlPlaneConfig, MegaScaleDriver, MegaSteeringConfig,
    )
    from repro.faults.mega import MegaFaultInjector
    from repro.faults.schedule import FaultSchedule

    with MegaScaleDriver(
        MegaConfig.tiny(),
        control_plane=MegaControlPlaneConfig(wired_apps=8, vips_per_app=2),
        steering=MegaSteeringConfig(requests_per_epoch=500, knob_period=1),
    ) as driver:
        MegaFaultInjector(driver, FaultSchedule([]))
        driver.run_epoch()
        tracer = Tracer()
        tracer.install(driver)
        assert Tracer.leftovers(driver)
        driver.run_epoch()
        tracer.uninstall()
        assert Tracer.leftovers(driver) == []
        names = {s["name"] for s in tracer.spans}
        assert {"mega.run_epoch", "sparse.solve", "dns.resolve", "knobs.k1"} <= names
        assert all(s["end_ns"] is not None for s in tracer.spans)
        assert min(tracer.self_ns()) >= 0
        # A second install after removal starts from a clean driver.
        tracer.install(driver)
        tracer.uninstall()


def test_placement_only_driver_traces_placement_layers_only():
    from repro.core.mega import MegaConfig, MegaScaleDriver

    with MegaScaleDriver(MegaConfig.tiny()) as driver:
        tracer = Tracer()
        tracer.install(driver)
        driver.run_epoch()
        tracer.uninstall()
        assert Tracer.leftovers(driver) == []
    incl, _, calls = tracer.totals_s()
    assert calls["sparse.solve"] > 0
    assert calls["dns.resolve"] == calls["bridge.sync"] == 0
    assert incl["dns.resolve"] == 0.0


def test_tail_keeps_ten_samples_beyond():
    walls = [float(i) for i in range(23)]
    value, pct = worker._tail(walls)
    assert sum(w > value for w in walls) == 10
    assert pct == pytest.approx(100 * 13 / 23)
    assert worker._tail(walls[:20]) == (9.0, 50.0)
    assert worker._tail(walls[:19]) == (0.0, 0.0)


def test_judge_rules():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [v * 0.8 for v in parent]
    assert compare.judge(parent, faster, "lower", 0.1, "rel")[0] == "gain"
    assert compare.judge(parent[:9], faster[:9], "lower", 0.1, "rel")[0] != "gain"
    slower = [v * 1.2 for v in parent]
    assert compare.judge(parent, slower, "lower", 0.1, "rel")[0] == "REGRESSION"
    same = list(parent)
    assert compare.judge(parent, same, "lower", 0.1, "rel")[0] == "within bound"
    noisy = [1.0, 2.0, 0.5, 1.5, 0.7, 1.9, 0.6, 1.2, 0.8, 1.1]
    assert compare.judge(noisy, noisy, "lower", 0.1, "rel")[0] == "unresolved"
    assert compare.judge([0.0] * 10, [0.002] * 10, "lower", 0.001, "abs")[0] == (
        "REGRESSION"
    )


def test_judge_paired_rules_when_parent_varies_by_seed():
    # reject_frac per seed: the spread across seeds (~0.02) is far wider
    # than the 0.001 bound, yet each seed repeats exactly.
    parent = [0.16, 0.17, 0.15, 0.18, 0.16, 0.14, 0.17, 0.19, 0.15, 0.16]
    worse = [p + 0.01 for p in parent]
    assert compare.judge(parent, worse, "lower", 0.001, "abs")[0] == "unresolved"
    assert compare.judge_paired(parent, worse, "lower", 0.001, "abs")[0] == (
        "REGRESSION"
    )
    assert compare.judge_paired(parent, parent, "lower", 0.001, "abs")[0] == (
        "within bound"
    )
    slightly = [p + 0.0005 for p in parent]
    assert compare.judge_paired(parent, slightly, "lower", 0.001, "abs")[0] == (
        "within bound"
    )
    better = [p - 0.0001 for p in parent]
    assert compare.judge_paired(parent, better, "lower", 0.001, "abs")[0] == "gain"
    assert compare.judge_paired(parent[:9], better[:9], "lower", 0.001, "abs")[0] == (
        "within bound"
    )
    assert compare.DETERMINISTIC <= set(compare.EXTRA)


def test_compare_reports_each_workload(untraced, tmp_path):
    parent = compare.index(untraced[1])
    lines, ok = compare.compare(parent, parent)
    assert ok
    for wl in WORKLOADS:
        assert f"== {wl}: 1 pairs, seeds [0]" in lines
    assert sum("outcome_digest: unchanged" in line for line in lines) == len(WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steer_heavy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
