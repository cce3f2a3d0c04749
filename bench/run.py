"""Benchmark of record for the mega loop: run workloads, print metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload steer_heavy --seed 0
    python3 bench/run.py --seed 0 --trace 1 --out bench-out/bench.json
    PYTHONPATH=src python -m bench.run --seed 0 --workloads fleet_steady --traced

Each workload runs in its own fresh subprocess (``bench.worker``), one
after another, single-threaded.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with
``--trace 1``.  The exit code is 1 if a correctness check fails, and 2,
with no result printed, if a workload could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import WORKLOADS  # noqa: E402

#: A workload subprocess that has not finished by then is killed.
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_child(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool,
    src: Path, spans: Path,
) -> dict | None:
    """Run one workload in a fresh single-threaded interpreter; returns
    its result, or None if it crashed or timed out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(src)])
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [
        sys.executable, "-m", "bench.worker", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--spans", str(spans),
    ] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(result: dict, unit_of: dict[str, str]) -> None:
    """Print one workload's metrics, checks and digest."""
    r = result
    print(
        f"== {r['workload']} seed={r['seed']}: {r['epochs_warm']} warm + "
        f"{r['epochs_timed']} timed epochs ({r['epochs_traced']} traced), "
        f"setup x{len(r['setup_samples_s'])}"
    )
    off = [layer for layer, on in r["wired"].items() if not on]
    if off:
        print(f"  not wired: {', '.join(off)} (their per-layer metrics read 0)")
    for name, value in r["metrics"].items():
        print(f"  {name} = {value:.6g} {unit_of[name]}")
    for name, ok in r["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for failure in r["failures"]:
        print(f"  ! {failure}")
    print(f"  outcome_digest {r['outcome_digest']}")


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+",
        choices=sorted(WORKLOADS), default=sorted(WORKLOADS),
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", dest="trace", action="store_const", const=1)
    ap.add_argument(
        "--smoke", action="store_true",
        help="1 warm-up + 3 timed epochs, fleet_steady at quick scale",
    )
    ap.add_argument("--out", type=Path, default=ROOT / "bench-out" / "bench.json")
    ap.add_argument(
        "--src", type=Path, default=ROOT / "src",
        help="program sources to measure (compare.py points this at a ref)",
    )
    args = ap.parse_args(argv)
    # The workers run from the repository root.
    args.out, args.src = args.out.resolve(), args.src.resolve()
    if not (args.src / "repro").is_dir():
        print(f"no program sources under {args.src}", file=sys.stderr)
        return 2
    args.out.parent.mkdir(parents=True, exist_ok=True)
    unit_of = units(spec)
    results = []
    for wl in args.workloads:
        spans = args.out.parent / f"spans-{wl}-seed{args.seed}.jsonl"
        result = run_child(
            wl, args.seed, args.seconds, args.trace, args.smoke, args.src, spans
        )
        if result is None:
            return 2
        report(result, unit_of)
        results.append(result)
    args.out.write_text(json.dumps(results, indent=1) + "\n")

    key = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[key]]
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        for name in wanted:
            metrics[prefix + name] = {
                "value": r["metrics"][name], "unit": unit_of[name],
            }
    correct = all(all(r["checks"].values()) for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
