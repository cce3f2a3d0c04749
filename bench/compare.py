"""Paired A/B comparison of two program versions on the benchmark.

Two result directories (each holding ``--out`` files of ``bench/run.py``)::

    python3 bench/compare.py bench-out/parent bench-out/change

or two git refs, measured here with this checkout's benchmark code::

    python3 bench/compare.py HEAD~1 HEAD --pairs 10 --workloads steer_heavy

In ref mode each side's ``src/`` is exported with ``git archive`` into a
fresh directory under ``--out`` and the two sides run in alternating
order for every pair, pair *i* on seed ``--seed + i``.  Every workload
gets its own rows.  The rules for timed metrics:

* a change **gains** on a metric only if at least 10 pairs ran, it wins
  at least 9/10 of them (ties count for neither) and the medians differ
  by more than the parent's interquartile range;
* a metric whose parent spread is wider than its bound is **unresolved**,
  unless every run of the change reads better than every parent run;
* otherwise a median worse than the parent's by more than the bound is a
  **REGRESSION**.

The quality metrics (``DETERMINISTIC``) are a function of the seed: runs
on one seed read the same, so their spread across seeds is not noise.
They are judged on the per-seed paired difference: a **gain** needs at
least 10 pairs with 9/10 won, and a median paired difference worse than
the bound is a **REGRESSION**.

Every ratio is printed with its base, and ``outcome_digest`` equality is
reported per workload.  The exit code is 1 on any regression or failed
correctness check of the change.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

_REPO = str(Path(__file__).resolve().parent.parent)
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)

from bench.run import ROOT, load_spec  # noqa: E402

#: The one home of the bounds of the metrics judged here beyond the
#: end-to-end ones.  ``BENCHMARK.json`` cannot hold them: its per-layer
#: entries carry only a name, a unit and a direction, and its end-to-end
#: bounds are relative, for metrics that are never 0.  The quality
#: metrics can be 0, so some get absolute bounds; ``req_per_s`` is
#: whole-loop throughput.
EXTRA = {
    "req_per_s": ("higher", 0.10, "rel"),
    "unsatisfied_frac": ("lower", 0.0005, "abs"),
    "vm_changes_per_epoch": ("lower", 0.01, "rel"),
    "reject_frac": ("lower", 0.001, "abs"),
    "conn_drop_frac": ("lower", 0.001, "abs"),
}

#: Metrics that read the same on every run of one seed (their inputs are
#: hashed into ``outcome_digest``), judged pair by pair.
DETERMINISTIC = frozenset(
    {"unsatisfied_frac", "vm_changes_per_epoch", "reject_frac", "conn_drop_frac"}
)


#: Fewest pairs on which a gain can be claimed.
MIN_PAIRS = 10


def judged_metrics() -> dict[str, tuple[str, float, str]]:
    """``name -> (better, bound, 'rel' | 'abs')`` for every judged metric."""
    out = {m["name"]: (m["better"], m["bound"], "rel") for m in load_spec()["end_to_end"]}
    out.update(EXTRA)
    return out


def index(results: list[dict]) -> dict[tuple[str, int], dict]:
    """``(workload, seed) -> result``."""
    return {(r["workload"], r["seed"]): r for r in results}


def load_results(directory: Path) -> dict[tuple[str, int], dict]:
    """Index every result in the JSON files of *directory*."""
    return index(
        [r for path in sorted(directory.glob("*.json")) for r in json.loads(path.read_text())]
    )


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(
    parent: list[float], change: list[float], better: str, bound: float,
    kind: str,
) -> tuple[str, dict]:
    """Verdict for one metric on one workload over paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    allowed = bound * abs(pm) if kind == "rel" else bound
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (pm - cm)
    n = len(parent)
    stats = {
        "parent": (pm, p1, p3), "change": (cm, c1, c3), "wins": wins,
        "pairs": n,
    }
    if n >= MIN_PAIRS and wins >= math.ceil(0.9 * n) and gain > p3 - p1:
        return "gain", stats
    if p3 - p1 > allowed:
        all_better = max(sign * c for c in change) < min(sign * p for p in parent)
        return ("better" if all_better else "unresolved"), stats
    if -gain > allowed:
        return "REGRESSION", stats
    return "within bound", stats


def judge_paired(
    parent: list[float], change: list[float], better: str, bound: float,
    kind: str,
) -> tuple[str, dict]:
    """Verdict for a metric that is a function of the seed, from the
    per-seed differences between *change* and *parent* (same order)."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    allowed = bound * abs(pm) if kind == "rel" else bound
    worse = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(w < 0 for w in worse)
    n = len(parent)
    stats = {
        "parent": (pm, p1, p3), "change": (cm, c1, c3), "wins": wins,
        "pairs": n, "worse": (statistics.median(worse), max(worse)),
    }
    if n >= MIN_PAIRS and wins >= math.ceil(0.9 * n):
        return "gain", stats
    if statistics.median(worse) > allowed:
        return "REGRESSION", stats
    return "within bound", stats


def compare(parent: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines and whether the change is free of regressions and
    correctness failures."""
    metrics = judged_metrics()
    lines = []
    ok = True
    for wl in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted({s for w, s in parent if w == wl} & {s for w, s in change if w == wl})
        ps = [parent[(wl, s)] for s in seeds]
        cs = [change[(wl, s)] for s in seeds]
        lines.append(f"== {wl}: {len(seeds)} pairs, seeds {seeds}")
        for name, (better, bound, kind) in metrics.items():
            rule = judge_paired if name in DETERMINISTIC else judge
            verdict, st = rule(
                [r["metrics"][name] for r in ps], [r["metrics"][name] for r in cs],
                better, bound, kind,
            )
            pm, p1, p3 = st["parent"]
            cm, c1, c3 = st["change"]
            ratio = f"{cm / pm:.4f}x of base {pm:.6g}" if pm else f"base {pm:.6g}"
            paired = (
                f"; paired: median {st['worse'][0]:+.6g} worse, worst seed "
                f"{st['worse'][1]:+.6g}" if "worse" in st else ""
            )
            lines.append(
                f"  {name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}] change "
                f"{cm:.6g} [{c1:.6g}, {c3:.6g}] = {ratio}; wins "
                f"{st['wins']}/{st['pairs']}{paired}; bound {bound:g} {kind} "
                f"({better}) -> {verdict}"
            )
            ok &= verdict != "REGRESSION"
        same = sum(p["outcome_digest"] == c["outcome_digest"] for p, c in zip(ps, cs))
        lines.append(
            f"  outcome_digest: {'unchanged' if same == len(seeds) else 'CHANGED'}"
            f" ({same}/{len(seeds)} seeds identical)"
        )
        broken = [c["seed"] for c in cs if not all(c["checks"].values())]
        if broken:
            lines.append(f"  correctness checks FAILED for the change on seeds {broken}")
            ok = False
    return lines, ok


def _export_src(ref: str, dest: Path) -> Path:
    """Extract *ref*'s ``src/`` tree into *dest*; returns its ``src``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", ref, "src"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def run_pairs(refs: list[str], pairs: int, seed: int, workloads, out: Path) -> list[Path]:
    """Measure both refs *pairs* times, alternating which runs first.
    Exports and results go to a new directory under *out*, so no module
    or result of an earlier comparison can mix in."""
    out.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    print(f"comparison files in {out}", flush=True)
    sides = []
    for label, ref in zip(("parent", "change"), refs):
        src = _export_src(ref, out / "src" / label)
        (out / label).mkdir()
        sides.append((label, src))
    for i in range(pairs):
        order = sides if i % 2 == 0 else sides[::-1]
        for label, src in order:
            cmd = [
                sys.executable, str(ROOT / "bench" / "run.py"),
                "--seed", str(seed + i), "--src", str(src),
                "--out", str(out / label / f"pair{i:02d}.json"),
            ]
            if workloads:
                cmd += ["--workloads", *workloads]
            print(f"pair {i} {label}: seed {seed + i}", flush=True)
            rc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).returncode
            if rc == 2:
                print(f"pair {i} {label}: could not run; pair dropped", flush=True)
    return [out / label for label, _ in sides]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="result directory or git ref")
    ap.add_argument("change", help="result directory or git ref")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--out", type=Path, default=ROOT / "bench-out" / "compare")
    args = ap.parse_args(argv)
    dirs = [Path(args.parent), Path(args.change)]
    if not all(d.is_dir() for d in dirs):
        if args.pairs < MIN_PAIRS:
            ap.error("a claim needs at least 10 pairs")
        dirs = run_pairs(
            [args.parent, args.change], args.pairs, args.seed, args.workloads,
            args.out,
        )
    lines, ok = compare(load_results(dirs[0]), load_results(dirs[1]))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
