"""``repro bench`` / ``mega`` / ``dataplane`` — pinned performance
workloads with JSON trajectories.

Three lanes, each writing BENCH files so every later change has a
baseline to beat:

* ``repro bench`` — fixed-seed placement and control-plane
  micro-workloads -> ``BENCH_placement.json`` /
  ``BENCH_controlplane.json``;
* ``repro mega`` — the E17 mega-scale runner (plus, with ``--faults``,
  E18's fail/repair cycle) -> ``BENCH_mega.json``;
* ``repro dataplane`` — the E19 steered data plane ->
  ``BENCH_dataplane.json``.

Each lane runs its workloads, lists its own checks (parallel placements
byte-identical to serial, fleet recovered, steering counters balance, RSS
within budget, ...) and hands both to :func:`write_and_gate`, which reads
the ``--baseline DIR`` files, merges the new workloads into the output
files, writes them, and fails the run when a check fails or a guarded
metric regresses more than ``--max-regression`` (CI runs every lane on
its quick fixtures).

Quick fixtures are a subset of the full run (the full run includes them),
so a committed full baseline also covers the CI quick lane's keys.  Wall
times are hardware-dependent; speedups near 1.0 on single-core runners are
expected and recorded honestly (``cpu_count`` is in the JSON).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from typing import Optional

import numpy as np

from repro.perf.engine import PlacementEngine
from repro.perf.rss import peak_rss_mb
from repro.placement import DistributedController, GreedyController

SCHEMA = 2
#: Metrics guarded by the regression gate (wall times, plus the mega
#: suite's construction time, per-epoch wall and peak RSS).
GUARDED_METRICS = (
    "bootstrap_wall_s",
    "serial_wall_s",
    "parallel_wall_s",
    "wall_s",
    "off_wall_s",
    "noop_wall_s",
    "on_wall_s",
    "wall_per_epoch_s",
    "steer_wall_s",
    "peak_rss_mb",
)
#: Unit suffix per guarded metric; anything not listed is wall-clock
#: seconds.  Keeps regression messages unambiguous now that the gate
#: covers more than wall times.
METRIC_UNITS = {"peak_rss_mb": "MB"}
#: Metrics whose baseline comparison is meaningless across machines with
#: different core counts (the stale-baseline trap: a baseline recorded on
#: a 1-core runner makes any parallel wall time look like a win or a
#: regression depending on which side has more cores).  When a workload's
#: recorded ``cpu_count`` differs from the baseline's, these are skipped
#: with a warning instead of gated.
CPU_SENSITIVE_METRICS = ("parallel_wall_s",)

BENCH_FILES = {
    "placement": "BENCH_placement.json",
    "controlplane": "BENCH_controlplane.json",
}
#: The mega-scale lane writes its own file (run via ``repro mega``, not
#: ``repro bench`` — full scale is minutes of bootstrap work, not a
#: pinned micro-workload).
MEGA_FILE = "BENCH_mega.json"
DATAPLANE_FILE = "BENCH_dataplane.json"
LANE_FILES = {**BENCH_FILES, "mega": MEGA_FILE, "dataplane": DATAPLANE_FILE}


def bench_pod_epoch(
    n_servers: int, pod_size: int, epochs: int, workers: int, seed: int = 0
) -> tuple[str, dict]:
    """The E2-scale parallel pod-epoch workload: serial vs *workers*."""
    from repro.experiments.e02_placement_scalability import (
        make_instance,
        split_into_pods,
    )
    from repro.experiments.e15_parallel_scaling import (
        _demand_sequence,
        _run_pod_epochs,
    )

    base = make_instance(n_servers, seed=seed)
    pods = split_into_pods(base, pod_size)
    demand_seq = _demand_sequence(base, epochs, seed)
    with PlacementEngine(1) as serial:
        serial_wall, serial_sigs, maxflow_calls = _run_pod_epochs(
            base, pods, demand_seq, serial
        )
    with PlacementEngine(workers) as parallel:
        parallel_wall, parallel_sigs, _ = _run_pod_epochs(
            base, pods, demand_seq, parallel
        )
        pool_spawns = parallel.pool_spawns
    wid = (
        f"pod_epoch[servers={n_servers},pods={len(pods)},"
        f"epochs={epochs},workers={workers}]"
    )
    return wid, {
        "servers": n_servers,
        "apps": base.n_apps,
        "pods": len(pods),
        "epochs": epochs,
        "workers": workers,
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": round(parallel_wall, 4),
        "speedup": round(serial_wall / max(parallel_wall, 1e-9), 3),
        "identical": serial_sigs == parallel_sigs,
        "epoch_serial_s": round(serial_wall / epochs, 4),
        "epoch_parallel_s": round(parallel_wall / epochs, 4),
        "solver_iterations": maxflow_calls,
        "pool_spawns": pool_spawns,
    }


def bench_solver(kind: str, n_servers: int, seed: int = 0) -> tuple[str, dict]:
    """Single-solve micro-bench of the greedy / distributed controllers."""
    from repro.experiments.e02_placement_scalability import make_instance

    problem = make_instance(n_servers, seed=seed)
    if kind == "greedy":
        controller = GreedyController()
    else:
        controller = DistributedController(rng=np.random.default_rng(seed))
    t0 = time.perf_counter()
    sol = controller.solve(problem)
    wall = time.perf_counter() - t0
    wid = f"{kind}_solve[servers={n_servers}]"
    return wid, {
        "servers": n_servers,
        "apps": problem.n_apps,
        "wall_s": round(wall, 4),
        "satisfied": round(float(sol.satisfied().sum()), 3),
    }


def bench_obs(
    n_apps: int,
    epochs: int,
    workers: int,
    seed: int = 0,
    trace_out: Optional[str] = None,
) -> tuple[str, dict]:
    """Trace-bus overhead + trace determinism on a datacenter run.

    Times the same seeded epoch workload three ways: no bus passed
    (``off``), an explicitly disabled bus (``noop``) and a digest-only
    bus that keeps no events (``on``).  No timed run attaches the
    auditor, and ``on`` buffers fewer events than one drain batch, so
    its cost is emission only: encoding and hashing fall outside the
    timed section.  ``off`` and ``noop`` build the same disabled bus, so
    ``noop_overhead_pct`` measures the noise floor of the estimate, not
    a cost.  ``overhead_ok`` is the acceptance gate: the digest-only bus
    must stay within 5% of the ``off`` wall time, estimated from
    position-balanced interleaved rounds with best-of-3 retry on noisy
    runners (see the measurement comment below).  Separately, two
    audited runs assert that serial and parallel engines produce
    byte-identical trace digests.
    """
    from repro.core.datacenter import MegaDataCenter
    from repro.obs import TraceBus
    from repro.sim.rng import RngHub
    from repro.workload.generator import WorkloadBuilder

    duration_s = epochs * 60.0  # default PlatformConfig().epoch_s

    def one_run(trace, parallelism=1, audit=False):
        import gc

        apps = WorkloadBuilder(
            n_apps=n_apps, total_gbps=n_apps / 2.0, rng_hub=RngHub(seed)
        ).build()
        dc = MegaDataCenter(
            apps,
            n_pods=4,
            servers_per_pod=64,
            n_switches=4,
            trace=trace,
            audit=audit,
            parallelism=parallelism,
        )
        # Collect the previous run's garbage now so its GC debt is not
        # charged to this run's timed section.
        gc.collect()
        t0 = time.perf_counter()
        dc.run(duration_s)
        wall = time.perf_counter() - t0
        dc.close()
        return wall

    # One untimed warm-up run, then 9 interleaved rounds with the mode
    # order rotated so every mode occupies every within-round position
    # exactly 3 times (a position-balanced design: on CPU-quota'd
    # runners the later runs of a round are systematically slower, and
    # an unbalanced rotation turns that into fake overhead).  Each
    # estimate compares per-mode *sums* over all rounds: position
    # effects cancel by symmetry and machine-level throughput drift
    # hits every mode's sum equally, where a min-of-N comparison across
    # the session would keep both biases.  Timing noise on shared
    # runners only ever *inflates* an estimate, so when one lands over
    # the gate the measurement is retried (up to 3 estimates) and the
    # smallest is reported.
    one_run(None)
    factories = {
        "off": lambda: None,
        "noop": lambda: TraceBus(enabled=False),
        "on": lambda: TraceBus(keep_events=False),
    }
    order = list(factories)

    def estimate():
        walls = {mode: float("inf") for mode in factories}
        totals = {mode: 0.0 for mode in factories}
        for r in range(9):
            for mode in order[r % 3:] + order[: r % 3]:
                wall = one_run(factories[mode]())
                walls[mode] = min(walls[mode], wall)
                totals[mode] += wall
        return (
            (totals["on"] / totals["off"] - 1.0) * 100.0,
            (totals["noop"] / totals["off"] - 1.0) * 100.0,
            walls,
        )

    attempts = 0
    overhead_pct, noop_pct, walls = float("inf"), float("inf"), {}
    while attempts < 3:
        attempts += 1
        oh, noop, w = estimate()
        if oh < overhead_pct:
            overhead_pct, noop_pct, walls = oh, noop, w
        if overhead_pct <= 5.0:
            break
    off_wall, noop_wall, on_wall = walls["off"], walls["noop"], walls["on"]

    # Determinism witness: same seed, serial vs parallel engine, digests
    # must match byte-for-byte.  The serial run also produces the JSONL
    # artifact the CI lane uploads.
    trace_serial = TraceBus(path=trace_out)
    one_run(trace_serial, parallelism=1, audit=True)
    trace_serial.close()
    trace_parallel = TraceBus()
    one_run(trace_parallel, parallelism=workers, audit=True)
    serial_digest = trace_serial.digest
    parallel_digest = trace_parallel.digest

    wid = f"obs_overhead[apps={n_apps},epochs={epochs}]"
    return wid, {
        "apps": n_apps,
        "epochs": epochs,
        "off_wall_s": round(off_wall, 4),
        "noop_wall_s": round(noop_wall, 4),
        "on_wall_s": round(on_wall, 4),
        "noop_overhead_pct": round(noop_pct, 2),
        "overhead_pct": round(overhead_pct, 2),
        "overhead_ok": overhead_pct <= 5.0,
        "estimate_attempts": attempts,
        "trace_events": trace_serial.count,
        "trace_digest": serial_digest,
        "identical": serial_digest == parallel_digest,
    }


def bench_sharded_controlplane(
    shards: tuple[int, ...], n_requests: int, n_switches: int, seed: int = 0
) -> tuple[str, dict]:
    """Sharded control-plane storm: simulated throughput vs shard count.

    The guarded wall time is the host-side cost of draining the storm
    through all shard counts; the scaling claim itself is gated through
    ``monotonic_ok``, which is simulated-time and therefore deterministic
    across machines.
    """
    from repro.experiments.e16_sharded_control_plane import run as run_e16

    t0 = time.perf_counter()
    result = run_e16(
        seed=seed,
        shards=shards,
        n_requests=n_requests,
        n_switches=n_switches,
        integrated=False,
    )
    wall = time.perf_counter() - t0
    cases = sorted(result.throughput, key=lambda c: c.n_shards)
    metrics = {
        "shards": list(shards),
        "requests": n_requests,
        "wall_s": round(wall, 4),
        "monotonic_ok": result.throughput_monotonic,
        "chaos_converged": all(c.converged for c in result.chaos),
        "conflicts": sum(c.conflicts for c in result.chaos),
        "rollbacks": sum(c.rollbacks for c in result.chaos),
    }
    for case in cases:
        metrics[f"rps_shards_{case.n_shards}"] = round(case.throughput_rps, 3)
        metrics[f"speedup_shards_{case.n_shards}"] = round(
            case.speedup_vs_serial, 3
        )
    wid = f"sharded_controlplane[shards={','.join(map(str, shards))},requests={n_requests}]"
    return wid, metrics


# ------------------------------------------------------------------ suites

#: (workload fn, kwargs) per suite; quick fixtures run in both modes so the
#: committed full baseline covers the CI quick lane's keys.
QUICK_PLACEMENT = [
    (bench_pod_epoch, dict(n_servers=160, pod_size=20, epochs=2, workers=4)),
    (bench_solver, dict(kind="greedy", n_servers=200)),
    (bench_solver, dict(kind="distributed", n_servers=200)),
    (bench_obs, dict(n_apps=120, epochs=15, workers=2, trace_out=None)),
]
FULL_PLACEMENT = QUICK_PLACEMENT + [
    (bench_pod_epoch, dict(n_servers=400, pod_size=50, epochs=3, workers=4)),
]
QUICK_CONTROLPLANE = [
    (
        bench_sharded_controlplane,
        dict(shards=(1, 2, 4), n_requests=160, n_switches=8),
    ),
]
FULL_CONTROLPLANE = QUICK_CONTROLPLANE + [
    (
        bench_sharded_controlplane,
        dict(shards=(1, 2, 4, 8), n_requests=320, n_switches=16),
    ),
]


def run_suite(
    suite: str,
    quick: bool,
    workers: Optional[int] = None,
    out_dir: Optional[str] = None,
) -> dict:
    if suite == "placement":
        fixtures = QUICK_PLACEMENT if quick else FULL_PLACEMENT
    else:
        fixtures = QUICK_CONTROLPLANE if quick else FULL_CONTROLPLANE
    workloads = {}
    for fn, kwargs in fixtures:
        if workers is not None and "workers" in kwargs:
            kwargs = {**kwargs, "workers": workers}
        if "trace_out" in kwargs and out_dir is not None:
            kwargs = {
                **kwargs,
                "trace_out": str(pathlib.Path(out_dir) / "TRACE_obs.jsonl"),
            }
        wid, metrics = fn(**kwargs)
        # Recorded per workload (not just per file) so the regression
        # gate can tell, workload by workload, whether the baseline came
        # from a machine where parallel wall times are comparable.
        metrics["cpu_count"] = os.cpu_count()
        # Process-lifetime high-water mark at the time this workload
        # finished; within one suite run it is monotone across workloads.
        metrics["peak_rss_mb"] = round(peak_rss_mb(), 1)
        workloads[wid] = metrics
    return _lane_file(suite, quick, workloads)


def _lane_file(suite: str, quick: bool, workloads: dict) -> dict:
    return {
        "schema": SCHEMA,
        "suite": suite,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
    }


# ------------------------------------------------------- regression gating


def compare_to_baseline(
    current: dict, baseline: dict, max_ratio: float
) -> tuple[list[str], list[str]]:
    """Guarded wall-time metrics of workloads present in both runs.

    Returns ``(violations, skipped)``: human-readable regression
    violations (empty = no regression) and warnings for CPU-sensitive
    metrics that were *not* gated because the workload's recorded
    ``cpu_count`` differs from the baseline's (comparing a parallel wall
    time across machines with different core counts gates nothing real).
    A baseline workload with no recorded ``cpu_count`` (schema 1) skips
    the same way — it predates per-workload recording.
    """
    violations = []
    skipped = []
    base_workloads = baseline.get("workloads", {})
    for wid, metrics in current.get("workloads", {}).items():
        base = base_workloads.get(wid)
        if base is None:
            continue
        cores_differ = metrics.get("cpu_count") != base.get("cpu_count")
        for key in GUARDED_METRICS:
            if key not in metrics or key not in base:
                continue
            if cores_differ and key in CPU_SENSITIVE_METRICS:
                skipped.append(
                    f"{wid} {key}: baseline cpu_count={base.get('cpu_count')} "
                    f"!= current cpu_count={metrics.get('cpu_count')}; "
                    "speedup gate skipped"
                )
                continue
            old, new = float(base[key]), float(metrics[key])
            if old > 0 and new > old * max_ratio:
                unit = METRIC_UNITS.get(key, "s")
                violations.append(
                    f"{wid}: metric '{key}' regressed: {new:.4f} {unit} vs "
                    f"baseline {old:.4f} {unit} "
                    f"(x{new / old:.2f} > allowed x{max_ratio:.2f})"
                )
    return violations, skipped


def speedup_gate(result: dict, min_speedup: float) -> tuple[list[str], list[str]]:
    """Gate parallel workloads on absolute speedup vs serial.

    Returns ``(failures, skipped)``.  A workload is gated only when the
    machine it ran on has at least as many cores as the workload used
    workers — demanding a 4-worker speedup from a 1-core container is the
    stale-baseline trap in absolute form, so those are skipped with a
    warning instead.
    """
    failures = []
    skipped = []
    for wid, metrics in result.get("workloads", {}).items():
        if "speedup" not in metrics or "workers" not in metrics:
            continue
        cores = metrics.get("cpu_count") or 0
        if cores < metrics["workers"]:
            skipped.append(
                f"{wid}: cpu_count={cores} < workers={metrics['workers']}; "
                f"min-speedup gate skipped"
            )
            continue
        if float(metrics["speedup"]) < min_speedup:
            failures.append(
                f"{wid}: speedup {metrics['speedup']} < required {min_speedup}"
            )
    return failures, skipped


# ------------------------------------------------------------ write + gate


def write_and_gate(
    lane: str,
    quick: bool,
    runs: dict[str, dict],
    failures: list[str],
    out_dir: str,
    baseline: Optional[str],
    max_regression: float,
    show: tuple[str, ...],
    out,
) -> int:
    """Write one lane's BENCH files and give its verdict (0 ok, 1 failed).

    *runs* maps suite name (a :data:`LANE_FILES` key) to this run's
    ``{workload id: metrics}``; *failures* are the lane's own check
    failures.  Every ``--baseline`` file is read before any file is
    written, so an ``--out`` equal to the baseline directory still gates
    the run against the old numbers rather than against itself.  Each
    output file keeps the workloads already in it and replaces those this
    run re-measured, by workload id (the id encodes scale, so one
    committed file carries both the quick CI entries and the full-scale
    ones).  Only this run's workloads are gated.  An output file that
    exists but cannot be read as JSON (say, one left with merge-conflict
    markers) fails the lane before anything is written: rewriting it
    would silently drop the entries it holds.
    """
    out_path = pathlib.Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    base_dir = pathlib.Path(baseline) if baseline is not None else None
    bases = {}
    if base_dir is not None:
        for suite in runs:
            base_file = base_dir / LANE_FILES[suite]
            if base_file.is_file():
                bases[suite] = json.loads(base_file.read_text())
    kept = {}
    for suite in runs:
        dest = out_path / LANE_FILES[suite]
        if not dest.is_file():
            kept[suite] = {}
            continue
        try:
            kept[suite] = json.loads(dest.read_text()).get("workloads", {})
        except (json.JSONDecodeError, OSError) as exc:
            print(
                f"\n{lane} FAILED: cannot read existing {dest} ({exc}); "
                "fix or remove it, it was left untouched",
                file=out,
            )
            return 1
    failures = list(failures)
    for suite, workloads in runs.items():
        dest = out_path / LANE_FILES[suite]
        merged = kept[suite]
        for metrics in workloads.values():
            # Per workload, not just per file: the regression gate decides
            # workload by workload whether parallel walls are comparable.
            metrics["cpu_count"] = os.cpu_count()
        merged.update(workloads)
        dest.write_text(
            json.dumps(_lane_file(suite, quick, merged), indent=2) + "\n"
        )
        print(f"\n[{suite}] -> {dest}", file=out)
        for wid, metrics in workloads.items():
            print(f"  {wid}:", file=out)
            for key in show:
                if key in metrics:
                    print(f"    {key} = {metrics[key]}", file=out)
        if base_dir is None:
            continue
        if suite not in bases:
            print(
                f"  (no baseline {base_dir / LANE_FILES[suite]}; skipping gate)",
                file=out,
            )
            continue
        violations, skipped = compare_to_baseline(
            {"workloads": workloads}, bases[suite], max_regression
        )
        for s in skipped:
            print(f"  WARNING {s}", file=out)
        for v in violations:
            print(f"  REGRESSION {v}", file=out)
        failures.extend(violations)
    if failures:
        print(f"\n{lane} FAILED ({len(failures)} problem(s))", file=out)
        for f in failures:
            print(f"  {f}", file=out)
        return 1
    print(f"\n{lane} ok", file=out)
    return 0


def rss_budget_failures(runs: dict, max_rss_mb: float) -> list[str]:
    """The peak-RSS budget check shared by the mega and dataplane lanes."""
    return [
        f"{wid}: metric 'peak_rss_mb' exceeds budget: "
        f"{metrics['peak_rss_mb']:.1f} MB > allowed {max_rss_mb:.1f} MB"
        for wid, metrics in runs.items()
        if metrics["peak_rss_mb"] > max_rss_mb
    ]


# --------------------------------------------------------------- bench lane

#: (metric, failure message) — a bench workload fails when it records the
#: metric as ``False``; the message is formatted with its metrics.
BENCH_CHECKS = (
    ("identical", "parallel result differs from serial"),
    ("overhead_ok", "observability overhead {overhead_pct}% exceeds 5%"),
    ("monotonic_ok", "sharded throughput not monotonic in shard count"),
    ("chaos_converged", "a chaos case failed to converge to clean drift"),
)
BENCH_SHOW = GUARDED_METRICS + (
    "speedup",
    "identical",
    "overhead_pct",
    "overhead_ok",
    "monotonic_ok",
    "chaos_converged",
)


def cmd_bench(
    quick: bool,
    out_dir: str,
    workers: Optional[int],
    baseline: Optional[str],
    max_regression: float,
    out=None,
    min_speedup: Optional[float] = None,
) -> int:
    out = out if out is not None else sys.stdout
    # bench_obs writes its trace into out_dir while the suites run.
    pathlib.Path(out_dir).mkdir(parents=True, exist_ok=True)
    mode = "quick" if quick else "full"
    print(
        f"repro bench ({mode}, cpu_count={os.cpu_count()}) — "
        "pinned placement + control-plane workloads",
        file=out,
    )
    runs = {
        suite: run_suite(suite, quick, workers=workers, out_dir=out_dir)[
            "workloads"
        ]
        for suite in BENCH_FILES
    }
    failures = [
        f"{wid}: " + message.format(**metrics)
        for workloads in runs.values()
        for wid, metrics in workloads.items()
        for metric, message in BENCH_CHECKS
        if metrics.get(metric) is False
    ]
    if min_speedup is not None:
        gate_failures, gate_skipped = speedup_gate(
            {"workloads": runs["placement"]}, min_speedup
        )
        for s in gate_skipped:
            print(f"  WARNING {s}", file=out)
        failures.extend(gate_failures)
    return write_and_gate(
        "bench", quick, runs, failures, out_dir, baseline, max_regression,
        BENCH_SHOW, out,
    )


# --------------------------------------------------------------- mega lane

MEGA_SHOW = (
    "vms",
    "epochs",
    "bootstrap_wall_s",
    "first_epoch_wall_s",
    "wall_per_epoch_s",
    "peak_rss_mb",
    "satisfied_fraction_min",
    "faults_injected",
    "mttr_pod_s",
    "mttr_server_s",
    "dropped_gb",
    "pods_down_max",
    "recovered",
    "rip_records_total",
    "auditor_ok",
    "rip_mirror_verified",
)


def bench_mega(quick: bool, epochs: int = 2, seed: int = 0) -> tuple[str, dict]:
    """E17's mega-scale run (the bounded-memory driver) as a workload.

    ``wall_per_epoch_s`` is the steady-state epoch wall (epochs after the
    first); ``peak_rss_mb`` is the process high-water mark — the
    acceptance metric the paper-scale run is gated on.
    """
    from repro.experiments import e17_mega_scale as e17

    result = e17.run(full=not quick, epochs=epochs, seed=seed)
    cfg, rows = result.config, result.rows
    steady = rows[1:] or rows
    # The id keeps the in-process engine width its baselines were
    # committed under.
    wid = (
        f"mega[pods={cfg.n_pods},servers={cfg.n_servers},"
        f"apps={cfg.n_apps},workers=1]"
    )
    metrics = {
        "epochs": len(rows),
        "vms": rows[-1].vms,
        "bootstrap_wall_s": round(result.bootstrap_wall_s, 4),
        "wall_s": round(sum(r.wall_s for r in rows), 4),
        "first_epoch_wall_s": round(rows[0].wall_s, 4),
        "wall_per_epoch_s": round(
            sum(r.wall_s for r in steady) / len(steady), 4
        ),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "satisfied_fraction_min": round(
            min(r.satisfied_fraction for r in rows), 6
        ),
        "changes_last_epoch": rows[-1].changes,
    }
    return wid, metrics


def bench_mega_faults(
    quick: bool, epochs: int = 6, seed: int = 0
) -> tuple[str, dict]:
    """The fault lane: E18's scripted fail/repair cycle through the
    unified loop (columnar pods + sharded control plane + injector).

    The headline metrics are recovery economics — MTTR per fault class
    (one epoch interval by construction: the next placement epoch absorbs
    every failure) and demand black-holed — plus the same wall/RSS cost
    envelope the fault-free lane gates.
    """
    from repro.experiments import e18_mega_faults as e18

    t0 = time.perf_counter()
    result = e18.run(full=not quick, epochs=epochs, seed=seed)
    wall = time.perf_counter() - t0
    cfg = result.config
    rows = result.rows
    wid = (
        f"mega_faults[pods={cfg.n_pods},servers={cfg.n_servers},"
        f"apps={cfg.n_apps},workers=1]"
    )
    metrics = {
        "epochs": len(rows),
        "vms": rows[-1].vms,
        "bootstrap_wall_s": round(result.bootstrap_wall_s, 4),
        "wall_s": round(wall, 4),
        "wall_per_epoch_s": round(
            sum(r.wall_s for r in rows[1:]) / max(1, len(rows) - 1), 4
        ),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "faults_injected": result.faults_injected,
        "mttr_pod_s": result.mttr_pod_s,
        "mttr_server_s": result.mttr_server_s,
        "dropped_gb": round(result.dropped_gb, 4),
        "pods_down_max": max(r.pods_down for r in rows),
        "recovered": result.recovered,
        "satisfied_fraction_min": round(
            min(r.satisfied_fraction for r in rows), 6
        ),
        "rip_records_total": result.rip_records_total,
        "auditor_ok": result.auditor_ok,
        "rip_mirror_verified": result.rip_verified,
    }
    return wid, metrics


def cmd_mega(
    quick: bool,
    out_dir: str,
    epochs: int,
    baseline: Optional[str],
    max_regression: float,
    max_rss_mb: float,
    faults: bool = False,
    out=None,
) -> int:
    """Run the mega-scale lane, write ``BENCH_mega.json``, gate RSS,
    demand served, fault recovery and the baseline."""
    out = out if out is not None else sys.stdout
    mode = "quick" if quick else "full"
    print(
        f"repro mega ({mode}, cpu_count={os.cpu_count()}, epochs={epochs})",
        file=out,
    )
    runs = dict([bench_mega(quick, epochs=epochs)])
    if faults:
        # The fault lane needs the whole fail/repair cycle: failures in
        # epochs 1-2, repairs at epoch 4, so at least 6 epochs.
        fwid, fmetrics = bench_mega_faults(quick, epochs=max(epochs, 6))
        runs[fwid] = fmetrics
    failures = rss_budget_failures(runs, max_rss_mb) + [
        f"{wid}: satisfied_fraction_min "
        f"{metrics['satisfied_fraction_min']} < 0.98"
        for wid, metrics in runs.items()
        if metrics["satisfied_fraction_min"] < 0.98
    ]
    if faults:
        if not fmetrics["recovered"]:
            failures.append(f"{fwid}: fleet did not recover (pods still down)")
        if not fmetrics["auditor_ok"]:
            failures.append(f"{fwid}: invariant auditor reported violations")
        if not fmetrics["rip_mirror_verified"]:
            failures.append(
                f"{fwid}: columnar RIP mirror diverged from authority"
            )
        if fmetrics["mttr_pod_s"] is None or fmetrics["mttr_server_s"] is None:
            failures.append(f"{fwid}: MTTR never recorded for a fault class")
    return write_and_gate(
        "mega", quick, {"mega": runs}, failures, out_dir, baseline,
        max_regression, MEGA_SHOW, out,
    )


# ---------------------------------------------------------- dataplane lane

DATAPLANE_SHOW = (
    "epochs",
    "requests",
    "requests_per_s",
    "steer_wall_s",
    "dns_hit_rate",
    "opened",
    "rejected",
    "unserved",
    "dropped",
    "knobs_fired",
    "object_requests_per_s",
    "speedup_vs_object",
    "auditor_ok",
    "peak_rss_mb",
)


def bench_dataplane(
    quick: bool, epochs: int = 4, seed: int = 0
) -> tuple[str, dict]:
    """The traffic data plane lane: E19's steered epochs as a pinned
    workload.

    Headline metrics are steering throughput (``requests_per_s`` over the
    columnar path's own wall, excluding placement) and peak RSS; at quick
    scale the object data plane races the same stream so the committed
    baseline records the measured ``speedup_vs_object`` the PR gates on.
    """
    from repro.experiments import e19_dataplane as e19

    t0 = time.perf_counter()
    result = e19.run(full=not quick, epochs=epochs, seed=seed)
    wall = time.perf_counter() - t0
    cfg, sc = result.config, result.steering
    rows = result.rows
    wid = (
        f"dataplane[pods={cfg.n_pods},servers={cfg.n_servers},"
        f"apps={cfg.n_apps},req={sc.requests_per_epoch}]"
    )
    metrics = {
        "epochs": len(rows),
        "requests": result.requests_total,
        "bootstrap_wall_s": round(result.bootstrap_wall_s, 4),
        "wall_s": round(wall, 4),
        "steer_wall_s": round(result.steer_wall_total_s, 4),
        "requests_per_s": round(result.requests_per_s, 1),
        "dns_hit_rate": round(
            sum(r.dns_hits for r in rows) / max(result.requests_total, 1), 4
        ),
        "opened": sum(r.conns_opened for r in rows),
        "rejected": sum(r.conns_rejected for r in rows),
        "unserved": sum(r.unserved for r in rows),
        "dropped": sum(r.conns_dropped for r in rows),
        "alive_final": rows[-1].conns_alive if rows else 0,
        "knobs_fired": dict(sorted(result.knob_events.items())),
        "auditor_ok": result.auditor_ok,
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }
    if result.speedup_vs_object is not None:
        metrics["object_requests_per_s"] = round(
            result.object_requests_per_s, 1
        )
        metrics["speedup_vs_object"] = round(result.speedup_vs_object, 2)
    return wid, metrics


def cmd_dataplane(
    quick: bool,
    out_dir: str,
    epochs: int,
    baseline: Optional[str],
    max_regression: float,
    max_rss_mb: float,
    min_speedup: float = 10.0,
    out=None,
) -> int:
    """Run the data-plane lane, write ``BENCH_dataplane.json``, gate
    throughput, the quick-scale object-path speedup, and peak RSS."""
    out = out if out is not None else sys.stdout
    mode = "quick" if quick else "full"
    print(
        f"repro dataplane ({mode}, cpu_count={os.cpu_count()}, "
        f"epochs={epochs})",
        file=out,
    )
    wid, metrics = bench_dataplane(quick, epochs=epochs)
    failures = rss_budget_failures({wid: metrics}, max_rss_mb)
    if metrics["opened"] + metrics["rejected"] + metrics["unserved"] != (
        metrics["requests"]
    ):
        failures.append(f"{wid}: steering outcome counters do not balance")
    if not metrics["auditor_ok"]:
        failures.append(f"{wid}: invariant auditor reported violations")
    if metrics.get("speedup_vs_object", min_speedup) < min_speedup:
        failures.append(
            f"{wid}: speedup_vs_object {metrics['speedup_vs_object']:.2f}x "
            f"< required {min_speedup:.1f}x"
        )
    return write_and_gate(
        "dataplane", quick, {"dataplane": {wid: metrics}}, failures, out_dir,
        baseline, max_regression, DATAPLANE_SHOW, out,
    )
