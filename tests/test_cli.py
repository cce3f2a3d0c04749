"""Tests for the ``python -m repro`` CLI.

Output is captured via redirect_stdout because the suite runs with ``-s``
(so benchmark tables stream to the console).
"""

import contextlib
import io
import os
import subprocess
import sys

import pytest

from repro.cli import EXPERIMENTS, cmd_list, cmd_quickstart, main, run_experiment


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_list_covers_all_experiments():
    code, out, _ = run_main(["list"])
    assert code == 0
    for exp_id in EXPERIMENTS:
        assert exp_id in out


def test_unknown_experiment_rejected():
    code, _, err = run_main(["run", "e99"])
    assert code == 2
    assert "unknown experiment" in err


def test_run_fast_experiment():
    code, out, _ = run_main(["run", "e08"])
    assert code == 0
    assert "E8" in out
    assert "finished in" in out


def test_run_experiment_with_two_tables():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run_experiment("a2")
    assert "A2" in buf.getvalue()


def test_quickstart_command():
    code, out, _ = run_main(["quickstart"])
    assert code == 0
    assert "satisfied" in out
    assert "invariants hold: True" in out


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "e01" in result.stdout


def test_experiment_registry_modules_importable():
    import importlib

    for module_name, fn_name, _, _ in EXPERIMENTS.values():
        module = importlib.import_module(f"repro.experiments.{module_name}")
        assert callable(getattr(module, fn_name))


def test_faults_command():
    code, out, _ = run_main(["faults", "--seed", "42", "--duration", "1200"])
    assert code == 0  # exit code 0 iff the scenario recovered
    assert "failure recovery" in out
    assert "scenario recovered: True" in out


def test_controlplane_command():
    code, out, _ = run_main(
        ["controlplane", "--seed", "42", "--checkpoint-interval", "60"]
    )
    assert code == 0  # exit code 0 iff replay + reconciliation succeeded
    assert "control-plane crash safety" in out
    assert "scenario recovered: True" in out
    # per-class MTTR: the manager row sits alongside the hardware classes
    assert "manager" in out and "switch" in out


def test_controlplane_rejects_too_short_duration():
    code, _, err = run_main(["controlplane", "--duration", "100"])
    assert code == 2
    assert "too short" in err


def test_bench_command_quick(tmp_path, monkeypatch):
    import json

    from repro.perf import bench

    monkeypatch.setattr(
        bench,
        "QUICK_PLACEMENT",
        [(bench.bench_solver, dict(kind="greedy", n_servers=40))],
    )
    code, out, _ = run_main(["bench", "--quick", "--out", str(tmp_path)])
    assert code == 0
    assert "bench ok" in out
    for filename in ("BENCH_placement.json", "BENCH_controlplane.json"):
        payload = json.loads((tmp_path / filename).read_text())
        assert payload["quick"] is True and payload["workloads"]


def _e06_output(hash_seed: str) -> list[str]:
    """``repro run e06`` under one ``PYTHONHASHSEED``, with the wall-clock
    column and the "finished in" line masked."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-m", "repro", "run", "e06"],
        capture_output=True, text=True, timeout=600, env=env,
    )
    assert result.returncode == 0, result.stderr
    lines, wall = [], None
    for line in result.stdout.splitlines():
        cells = line.split("|")
        if wall is None and "max pod decision (ms)" in line:
            wall = [c.strip() for c in cells].index("max pod decision (ms)")
        elif wall is not None and len(cells) > wall and not line.startswith("-"):
            cells[wall] = "*"
        if "finished in" not in line:
            lines.append("|".join(cells))
    assert wall is not None
    return lines


def test_e06_does_not_depend_on_the_hash_seed():
    assert _e06_output("1") == _e06_output("2")


def test_trace_summary_and_diff_commands(tmp_path):
    from repro.obs import TraceBus

    pa, pb = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    with TraceBus(path=pa) as a:
        a.emit("x", t=0.0, v=1)
        a.emit("y", t=1.0, v=2)
    with TraceBus(path=pb) as b:
        b.emit("x", t=0.0, v=1)
        b.emit("y", t=1.0, v=3)
    code, out, _ = run_main(["trace", "summary", pa])
    assert code == 0
    assert "2 events, t=[0, 1]" in out
    code, out, _ = run_main(["trace", "diff", pa, pa])
    assert code == 0 and "traces identical" in out
    code, out, _ = run_main(["trace", "diff", pa, pb])
    assert code == 1 and "first divergence at event #1" in out
    code, _, err = run_main(["trace", "summary", str(tmp_path / "missing.jsonl")])
    assert code == 2 and "error" in err
