"""The ``repro bench`` harness: JSON output, the regression gate, and the
trend reader."""

import io
import json

import pytest

from repro.perf import bench


TINY_PLACEMENT = [
    (bench.bench_pod_epoch, dict(n_servers=40, pod_size=10, epochs=2, workers=2)),
    (bench.bench_solver, dict(kind="greedy", n_servers=40)),
]
TINY_NETWORK = [
    (bench.bench_maxmin, dict(n_flows=50, n_links=10, resolves=2)),
]


@pytest.fixture
def tiny_fixtures(monkeypatch):
    monkeypatch.setattr(bench, "QUICK_PLACEMENT", TINY_PLACEMENT)
    monkeypatch.setattr(bench, "QUICK_NETWORK", TINY_NETWORK)


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


def test_maxmin_workload_identical_rates():
    _, metrics = bench.bench_maxmin(n_flows=50, n_links=10, resolves=3)
    assert metrics["identical"] is True
    assert metrics["wall_s"] > 0


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


def test_trend_lines(tmp_path):
    (tmp_path / "e02.json").write_text(
        json.dumps(
            {
                "name": "e02_placement_scalability",
                "tables": [
                    {
                        "title": "t",
                        "columns": ["servers", "tang(s)"],
                        "rows": [["100", "0.5"], ["800", "7.3"]],
                        "notes": [],
                    }
                ],
            }
        )
    )
    (tmp_path / "junk.json").write_text("{not json")
    lines = bench.trend_lines(tmp_path)
    assert lines == ["e02_placement_scalability: tang(s)=7.3"]
    assert bench.trend_lines(tmp_path / "missing") == []


def test_cmd_bench_writes_json_and_gates(tiny_fixtures, tmp_path):
    out = io.StringIO()
    rc = bench.cmd_bench(
        quick=True,
        out_dir=str(tmp_path / "run1"),
        workers=2,
        baseline=None,
        max_regression=2.0,
        results_dir=str(tmp_path / "no-results"),
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
        results_dir=str(tmp_path / "no-results"),
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
        results_dir=str(tmp_path / "no-results"),
        out=out,
    )
    assert rc == 1
    assert "REGRESSION" in out.getvalue()

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
        workers=1,
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


@pytest.mark.slow
def test_cmd_mega_quick_writes_json_and_gates(tmp_path):
    out = io.StringIO()
    rc = bench.cmd_mega(
        quick=True,
        out_dir=str(tmp_path),
        workers=1,
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
        workers=1,
        epochs=2,
        baseline=str(tmp_path),
        max_regression=2.0,
        max_rss_mb=1.0,
        out=out,
    )
    assert rc == 1
    assert "peak_rss_mb" in out.getvalue()
