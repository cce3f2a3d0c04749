"""The BENCH lanes (``repro bench`` / ``mega`` / ``dataplane``): JSON
output, the lane checks and the regression gate."""

import io
import json
import pathlib

import pytest

from repro.perf import bench


TINY_PLACEMENT = [
    (bench.bench_pod_epoch, dict(n_servers=40, pod_size=10, epochs=2, workers=2)),
    (bench.bench_solver, dict(kind="greedy", n_servers=40)),
]


@pytest.fixture
def tiny_fixtures(monkeypatch):
    monkeypatch.setattr(bench, "QUICK_PLACEMENT", TINY_PLACEMENT)


def test_pod_epoch_workload_is_deterministic():
    wid, metrics = bench.bench_pod_epoch(
        n_servers=40, pod_size=10, epochs=2, workers=2
    )
    assert wid == "pod_epoch[servers=40,pods=4,epochs=2,workers=2]"
    assert metrics["identical"] is True
    assert metrics["pods"] == 4
    assert metrics["pool_spawns"] == 1
    assert metrics["serial_wall_s"] > 0
    assert metrics["solver_iterations"] >= metrics["pods"] * metrics["epochs"]


def test_run_suite_schema(tiny_fixtures):
    result = bench.run_suite("placement", quick=True)
    assert result["schema"] == bench.SCHEMA
    assert result["suite"] == "placement"
    assert len(result["workloads"]) == len(TINY_PLACEMENT)
    # Every workload records the core count it ran on (the cpu-aware
    # regression gate keys off this, not the file-level field).
    import os

    for metrics in result["workloads"].values():
        assert metrics["cpu_count"] == os.cpu_count()


def test_compare_to_baseline_flags_regressions():
    baseline = {"workloads": {"w[1]": {"wall_s": 1.0}, "w[2]": {"cold_wall_s": 2.0}}}
    current = {
        "workloads": {
            "w[1]": {"wall_s": 2.5},  # 2.5x: regression at max 2.0
            "w[2]": {"cold_wall_s": 3.0},  # 1.5x: fine
            "w[3]": {"wall_s": 99.0},  # not in baseline: skipped
        }
    }
    violations, skipped = bench.compare_to_baseline(current, baseline, max_ratio=2.0)
    assert len(violations) == 1
    assert "w[1]" in violations[0]
    assert skipped == []
    assert bench.compare_to_baseline(current, baseline, max_ratio=3.0) == ([], [])


def test_compare_to_baseline_skips_parallel_walls_across_core_counts():
    """The stale-baseline trap: a parallel wall time recorded on a
    different core count is warned about and not gated; same-core
    baselines still gate it, and serial walls always gate."""
    baseline = {
        "workloads": {
            "w[1]": {"parallel_wall_s": 1.0, "serial_wall_s": 1.0, "cpu_count": 1}
        }
    }
    current = {
        "workloads": {
            "w[1]": {"parallel_wall_s": 9.0, "serial_wall_s": 1.0, "cpu_count": 4}
        }
    }
    violations, skipped = bench.compare_to_baseline(current, baseline, max_ratio=2.0)
    assert violations == []
    assert len(skipped) == 1 and "cpu_count" in skipped[0]

    # Same machine shape: the parallel regression is caught again.
    current["workloads"]["w[1]"]["cpu_count"] = 1
    violations, skipped = bench.compare_to_baseline(current, baseline, max_ratio=2.0)
    assert len(violations) == 1 and "parallel_wall_s" in violations[0]
    assert skipped == []

    # A schema-1 baseline (no recorded cpu_count) also skips.
    del baseline["workloads"]["w[1]"]["cpu_count"]
    violations, skipped = bench.compare_to_baseline(current, baseline, max_ratio=2.0)
    assert violations == []
    assert len(skipped) == 1


def test_speedup_gate_skips_on_undersized_runner():
    result = {
        "workloads": {
            "fast": {"speedup": 2.4, "workers": 4, "cpu_count": 8},
            "slow": {"speedup": 0.7, "workers": 4, "cpu_count": 8},
            "tiny": {"speedup": 0.3, "workers": 4, "cpu_count": 1},
            "nothreads": {"speedup": 0.1},  # no workers key: not gated
        }
    }
    failures, skipped = bench.speedup_gate(result, min_speedup=1.0)
    assert len(failures) == 1 and "slow" in failures[0]
    assert len(skipped) == 1 and "tiny" in skipped[0]


def test_cmd_bench_writes_json_and_gates(tiny_fixtures, tmp_path):
    out = io.StringIO()
    rc = bench.cmd_bench(
        quick=True,
        out_dir=str(tmp_path / "run1"),
        workers=2,
        baseline=None,
        max_regression=2.0,
        out=out,
        min_speedup=0.0,  # speedup >= 0 always: gates nothing, but runs
    )
    assert rc == 0
    for filename in bench.BENCH_FILES.values():
        payload = json.loads((tmp_path / "run1" / filename).read_text())
        assert payload["quick"] is True
        assert payload["workloads"]

    # Same fixtures vs their own baseline: no regression.
    rc = bench.cmd_bench(
        quick=True,
        out_dir=str(tmp_path / "run2"),
        workers=2,
        baseline=str(tmp_path / "run1"),
        max_regression=50.0,
        out=io.StringIO(),
    )
    assert rc == 0

    # An absurdly strict gate must fail and say why.
    out = io.StringIO()
    rc = bench.cmd_bench(
        quick=True,
        out_dir=str(tmp_path / "run3"),
        workers=2,
        baseline=str(tmp_path / "run1"),
        max_regression=1e-6,
        out=out,
    )
    assert rc == 1
    assert "REGRESSION" in out.getvalue()


def test_cmd_bench_reads_baseline_before_writing_into_it(tiny_fixtures, tmp_path):
    """``--out`` equal to ``--baseline`` must still gate against the old
    file: an impossible baseline fails instead of being overwritten by the
    run and then compared with itself."""
    wid, _ = bench.bench_solver(**TINY_PLACEMENT[1][1])
    (tmp_path / bench.BENCH_FILES["placement"]).write_text(
        json.dumps({"workloads": {wid: {"wall_s": 1e-6}}})
    )
    out = io.StringIO()
    rc = bench.cmd_bench(
        quick=True,
        out_dir=str(tmp_path),
        workers=2,
        baseline=str(tmp_path),
        max_regression=2.0,
        out=out,
    )
    assert rc == 1
    assert f"REGRESSION {wid}: metric 'wall_s' regressed" in out.getvalue()
    # The run still replaced the entry it re-measured.
    payload = json.loads((tmp_path / bench.BENCH_FILES["placement"]).read_text())
    assert payload["workloads"][wid]["wall_s"] > 1e-6


def test_write_and_gate_refuses_unreadable_out_file(tmp_path):
    """An existing output file that is not valid JSON (here, one left with
    merge-conflict markers) fails the lane with a message naming it, and
    is left byte-for-byte as it was instead of being rewritten with only
    this run's workloads."""
    dest = tmp_path / bench.BENCH_FILES["placement"]
    conflicted = (
        '<<<<<<< HEAD\n{"workloads": {"w[full]": {"wall_s": 1.0}}}\n'
        '=======\n{"workloads": {}}\n>>>>>>> other\n'
    )
    dest.write_text(conflicted)
    out = io.StringIO()
    rc = bench.write_and_gate(
        "bench",
        True,
        {"placement": {"w[quick]": {"wall_s": 0.5}}},
        [],
        str(tmp_path),
        None,
        2.0,
        (),
        out,
    )
    assert rc == 1
    assert "bench FAILED" in out.getvalue()
    assert str(dest) in out.getvalue()
    assert dest.read_text() == conflicted


def test_compare_to_baseline_names_metric_and_units():
    """Satellite of the mega lane: a violation message must say *which*
    metric regressed and in what units, not just print two numbers."""
    baseline = {
        "workloads": {"w[1]": {"wall_s": 1.0, "peak_rss_mb": 100.0}}
    }
    current = {
        "workloads": {"w[1]": {"wall_s": 5.0, "peak_rss_mb": 300.0}}
    }
    violations, _ = bench.compare_to_baseline(current, baseline, max_ratio=2.0)
    assert len(violations) == 2
    by_metric = {m: v for v in violations for m in ("wall_s", "peak_rss_mb") if m in v}
    assert "metric 'wall_s' regressed" in by_metric["wall_s"]
    assert " s " in by_metric["wall_s"]
    assert "metric 'peak_rss_mb' regressed" in by_metric["peak_rss_mb"]
    assert " MB " in by_metric["peak_rss_mb"]


def test_compare_to_baseline_gates_construction_time():
    """The mega lanes' ``bootstrap_wall_s`` is gated like a wall time."""
    baseline = {"workloads": {"mega[1]": {"bootstrap_wall_s": 0.08}}}
    slow = {"workloads": {"mega[1]": {"bootstrap_wall_s": 0.17}}}
    violations, _ = bench.compare_to_baseline(slow, baseline, max_ratio=2.0)
    assert len(violations) == 1
    assert "metric 'bootstrap_wall_s' regressed" in violations[0]
    fine = {"workloads": {"mega[1]": {"bootstrap_wall_s": 0.15}}}
    assert bench.compare_to_baseline(fine, baseline, max_ratio=2.0) == ([], [])


def test_run_suite_records_peak_rss(tiny_fixtures):
    result = bench.run_suite("placement", quick=True)
    for metrics in result["workloads"].values():
        assert metrics["peak_rss_mb"] > 0


def test_cmd_mega_faults_lane_merges_and_gates(tmp_path):
    """``repro mega --faults`` adds the E18 fault-lane workload next to
    the fault-free entry and gates recovery, MTTR and the mirror CRC."""
    out = io.StringIO()
    rc = bench.cmd_mega(
        quick=True,
        out_dir=str(tmp_path),
        epochs=2,
        baseline=None,
        max_regression=2.0,
        max_rss_mb=8192.0,
        faults=True,
        out=out,
    )
    assert rc == 0
    payload = json.loads((tmp_path / bench.MEGA_FILE).read_text())
    wids = sorted(payload["workloads"])
    assert any(w.startswith("mega[") for w in wids)
    fwid = next(w for w in wids if w.startswith("mega_faults["))
    metrics = payload["workloads"][fwid]
    assert metrics["faults_injected"] == 12
    assert metrics["recovered"] is True
    assert metrics["auditor_ok"] is True
    assert metrics["rip_mirror_verified"] is True
    assert metrics["mttr_pod_s"] == pytest.approx(60.0)
    assert metrics["mttr_server_s"] == pytest.approx(60.0)
    assert metrics["satisfied_fraction_min"] >= 0.98
    assert metrics["rip_records_total"] > 0
    text = out.getvalue()
    assert "mega_faults[" in text and "mega ok" in text
    # A refactor must not drop or rename a gated key: each entry written
    # has exactly the keys of the committed quick-scale entry.
    committed = json.loads(
        (pathlib.Path(__file__).parents[2] / bench.MEGA_FILE).read_text()
    )["workloads"]
    for wid, entry in payload["workloads"].items():
        assert set(entry) == set(committed[wid]), wid


@pytest.mark.slow
def test_cmd_mega_quick_writes_json_and_gates(tmp_path):
    out = io.StringIO()
    rc = bench.cmd_mega(
        quick=True,
        out_dir=str(tmp_path),
        epochs=2,
        baseline=None,
        max_regression=2.0,
        max_rss_mb=8192.0,
        out=out,
    )
    assert rc == 0
    payload = json.loads((tmp_path / bench.MEGA_FILE).read_text())
    assert payload["schema"] == bench.SCHEMA
    (wid, metrics), = payload["workloads"].items()
    assert wid.startswith("mega[pods=60,")
    assert metrics["epochs"] == 2
    assert metrics["satisfied_fraction_min"] >= 0.98
    assert metrics["wall_per_epoch_s"] > 0

    # Re-running into the same directory merges, and an absurd RSS budget
    # fails with a message naming the metric.
    out = io.StringIO()
    rc = bench.cmd_mega(
        quick=True,
        out_dir=str(tmp_path),
        epochs=2,
        baseline=str(tmp_path),
        max_regression=2.0,
        max_rss_mb=1.0,
        out=out,
    )
    assert rc == 1
    assert "peak_rss_mb" in out.getvalue()


# ------------------------------------------- lane checks, synthetic metrics

MEGA_WID = "mega[pods=2,servers=8,apps=8,workers=1]"
FAULTS_WID = "mega_faults[pods=2,servers=8,apps=8,workers=1]"
DATAPLANE_WID = "dataplane[pods=2,servers=8,apps=8,req=10]"


def _mega_metrics(**change):
    return {
        "wall_per_epoch_s": 0.1,
        "peak_rss_mb": 100.0,
        "satisfied_fraction_min": 1.0,
        **change,
    }


def _faults_metrics(**change):
    return {
        **_mega_metrics(),
        "recovered": True,
        "auditor_ok": True,
        "rip_mirror_verified": True,
        "mttr_pod_s": 60.0,
        "mttr_server_s": 60.0,
        **change,
    }


def _dataplane_metrics(**change):
    return {
        "requests": 10,
        "opened": 7,
        "rejected": 2,
        "unserved": 1,
        "auditor_ok": True,
        "peak_rss_mb": 100.0,
        "speedup_vs_object": 40.0,
        **change,
    }


def _cmd_mega(monkeypatch, tmp_path, mega, faults, baseline=None):
    """``cmd_mega --faults`` on synthetic lane metrics (no E17/E18 run)."""
    monkeypatch.setattr(bench, "bench_mega", lambda *a, **k: mega)
    monkeypatch.setattr(bench, "bench_mega_faults", lambda *a, **k: faults)
    out = io.StringIO()
    rc = bench.cmd_mega(
        quick=True,
        out_dir=str(tmp_path),
        epochs=2,
        baseline=baseline,
        max_regression=2.0,
        max_rss_mb=1000.0,
        faults=True,
        out=out,
    )
    return rc, out.getvalue()


def _cmd_dataplane(monkeypatch, tmp_path, metrics):
    """``cmd_dataplane`` on synthetic lane metrics (no E19 run)."""
    monkeypatch.setattr(
        bench, "bench_dataplane", lambda *a, **k: (DATAPLANE_WID, metrics)
    )
    out = io.StringIO()
    rc = bench.cmd_dataplane(
        quick=True,
        out_dir=str(tmp_path),
        epochs=4,
        baseline=None,
        max_regression=2.0,
        max_rss_mb=1000.0,
        min_speedup=10.0,
        out=out,
    )
    return rc, out.getvalue()


@pytest.mark.parametrize(
    "change, message",
    [
        ({}, None),
        ({"recovered": False}, "fleet did not recover (pods still down)"),
        ({"mttr_pod_s": None}, "MTTR never recorded for a fault class"),
        ({"mttr_server_s": None}, "MTTR never recorded for a fault class"),
        ({"auditor_ok": False}, "invariant auditor reported violations"),
        ({"rip_mirror_verified": False}, "columnar RIP mirror diverged"),
        ({"peak_rss_mb": 1500.0}, "metric 'peak_rss_mb' exceeds budget"),
        ({"satisfied_fraction_min": 0.5}, "satisfied_fraction_min 0.5 < 0.98"),
    ],
)
def test_cmd_mega_fault_lane_checks(monkeypatch, tmp_path, change, message):
    rc, text = _cmd_mega(
        monkeypatch,
        tmp_path,
        (MEGA_WID, _mega_metrics()),
        (FAULTS_WID, _faults_metrics(**change)),
    )
    if message is None:
        assert rc == 0 and "mega ok" in text
        assert "FAILED" not in text
    else:
        assert rc == 1
        assert "mega FAILED (1 problem(s))" in text
        assert f"{FAULTS_WID}: {message}" in text


@pytest.mark.parametrize(
    "change, message",
    [
        ({}, None),
        ({"rejected": 3}, "steering outcome counters do not balance"),
        ({"auditor_ok": False}, "invariant auditor reported violations"),
        ({"peak_rss_mb": 1500.0}, "metric 'peak_rss_mb' exceeds budget"),
        ({"speedup_vs_object": 9.5}, "speedup_vs_object 9.50x < required 10.0x"),
    ],
)
def test_cmd_dataplane_lane_checks(monkeypatch, tmp_path, change, message):
    rc, text = _cmd_dataplane(monkeypatch, tmp_path, _dataplane_metrics(**change))
    if message is None:
        assert rc == 0 and "dataplane ok" in text
        assert "FAILED" not in text
    else:
        assert rc == 1
        assert "dataplane FAILED (1 problem(s))" in text
        assert f"{DATAPLANE_WID}: {message}" in text


def test_cmd_dataplane_full_scale_has_no_speedup_check(monkeypatch, tmp_path):
    """The object path races only at quick scale; a run without
    ``speedup_vs_object`` is not held to the floor."""
    metrics = _dataplane_metrics()
    del metrics["speedup_vs_object"]
    rc, text = _cmd_dataplane(monkeypatch, tmp_path, metrics)
    assert rc == 0 and "dataplane ok" in text


def test_lane_file_merges_by_id_and_gates_only_this_run(monkeypatch, tmp_path):
    """A lane file keeps the entries it already holds (the id encodes the
    scale), but only the workloads this run measured are gated."""
    stale = "mega[pods=60,servers=300000,apps=300000,workers=1]"
    out_dir, base_dir = tmp_path / "out", tmp_path / "base"
    out_dir.mkdir()
    base_dir.mkdir()
    (out_dir / bench.MEGA_FILE).write_text(
        json.dumps({"workloads": {stale: _mega_metrics(wall_per_epoch_s=99.0)}})
    )
    (base_dir / bench.MEGA_FILE).write_text(
        json.dumps(
            {
                "workloads": {
                    stale: _mega_metrics(),
                    FAULTS_WID: _faults_metrics(wall_per_epoch_s=1e-6),
                }
            }
        )
    )
    rc, text = _cmd_mega(
        monkeypatch,
        out_dir,
        (MEGA_WID, _mega_metrics()),
        (FAULTS_WID, _faults_metrics()),
        baseline=str(base_dir),
    )
    assert rc == 1
    assert "mega FAILED (1 problem(s))" in text
    assert f"REGRESSION {FAULTS_WID}: metric 'wall_per_epoch_s'" in text
    payload = json.loads((out_dir / bench.MEGA_FILE).read_text())
    assert sorted(payload["workloads"]) == sorted([stale, MEGA_WID, FAULTS_WID])
    assert payload["workloads"][stale]["wall_per_epoch_s"] == 99.0
    assert payload["workloads"][MEGA_WID]["cpu_count"] is not None
