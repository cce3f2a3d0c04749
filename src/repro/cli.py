"""Command-line interface: run experiments and demos without writing code.

Usage::

    python -m repro list
    python -m repro run e04                 # one experiment, prints its table(s)
    python -m repro run e02 e12             # several
    python -m repro run all                 # the full suite (slow)
    python -m repro quickstart              # build + run a small platform
    python -m repro faults --seed 42        # scripted failure-recovery scenario
    python -m repro controlplane --seed 42  # manager crash + journal replay
    python -m repro bench --quick           # pinned perf workloads -> BENCH_*.json
    python -m repro mega --quick            # bounded-memory paper-scale lane
    python -m repro dataplane --quick       # columnar steering lane -> BENCH_dataplane.json
    python -m repro trace summary run.jsonl # per-kind counts + digest
    python -m repro trace diff a.jsonl b.jsonl  # first divergence, exit 1 if differ
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

#: experiment id -> (module, callable, kwargs, description)
EXPERIMENTS: dict[str, tuple[str, str, dict, str]] = {
    "e01": ("e01_architecture", "run", {}, "Fig.1 end-to-end architecture"),
    "e02": ("e02_placement_scalability", "run", {}, "placement runtime vs scale"),
    "e03": ("e03_fabric_sizing", "run", {}, "LB fabric sizing arithmetic"),
    "e04": ("e04_selective_exposure", "run", {}, "K1 exposure vs naive BGP"),
    "e05": ("e05_vip_transfer", "run", {}, "K2 transfer: pause prob + balance"),
    "e06": ("e06_server_transfer", "run", {}, "K3 transfer + elephant pods"),
    "e07": ("e07_dynamic_deployment", "run", {}, "K4 relief vs turbulence"),
    "e08": ("e08_agility", "run", {}, "knob reaction latencies"),
    "e09": ("e09_viprip_manager", "run", {}, "VIP/RIP manager throughput"),
    "e10": ("e10_two_layer", "run", {}, "single vs two-LB-layer conflict"),
    "e11": ("e11_vip_tradeoff", "run", {}, "VIPs-per-app trade-off"),
    "e12": ("e12_quality", "run", {}, "placement quality comparison"),
    "e13": ("e13_failure_recovery", "run", {}, "fault injection + graceful recovery"),
    "e14": ("e14_control_plane", "run", {}, "control-plane crash safety + anti-entropy"),
    "e15": ("e15_parallel_scaling", "run", {}, "parallel pod-epoch scaling sweep"),
    "e16": (
        "e16_sharded_control_plane",
        "run",
        {},
        "sharded control plane: throughput / conflicts / convergence",
    ),
    "e17": (
        "e17_mega_scale",
        "run",
        {},
        "mega scale: paper Section I size through the bounded-memory driver",
    ),
    "e18": (
        "e18_mega_faults",
        "run",
        {},
        "mega faults: pod losses + server crashes through the unified "
        "loop; MTTR, drop and RIP-mirror accounting",
    ),
    "e19": (
        "e19_dataplane",
        "run",
        {},
        "mega data plane: columnar request steering + K1/K2 knobs at "
        "scale, raced against the object path",
    ),
    "a1": ("ablations", "run_pod_size", {}, "ablation: pod size"),
    "a2": ("ablations", "run_drain_ablation", {}, "ablation: K2 drain-first"),
    "a3": ("ablations", "run_damping_ablation", {}, "ablation: K1 damping"),
    "a4": ("ablations", "run_compartmentalization", {}, "ablation: switch pooling"),
    "x1": ("extensions", "run_energy", {}, "extension: energy/consolidation"),
    "x2": ("extensions", "run_link_costs", {}, "extension: link usage costs"),
    "x3": ("extensions", "run_coplacement", {}, "extension: tier co-placement"),
}


def _tables_of(result) -> list:
    tables = [result.table()]
    extra = getattr(result, "balance_table", None)
    if callable(extra):
        tables.append(extra())
    return tables


def run_experiment(exp_id: str, out=None) -> None:
    out = out if out is not None else sys.stdout
    module_name, fn_name, kwargs, _ = EXPERIMENTS[exp_id]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    fn = getattr(module, fn_name)
    t0 = time.perf_counter()
    result = fn(**kwargs)
    elapsed = time.perf_counter() - t0
    for table in _tables_of(result):
        print(file=out)
        print(table.render(), file=out)
    print(f"  [{exp_id} finished in {elapsed:.1f}s]", file=out)


def cmd_list(out=None) -> None:
    out = out if out is not None else sys.stdout
    print("available experiments:", file=out)
    for exp_id, (_, _, _, desc) in EXPERIMENTS.items():
        print(f"  {exp_id:>4}  {desc}", file=out)


def cmd_quickstart(out=None) -> None:
    out = out if out is not None else sys.stdout
    from repro.core import MegaDataCenter, PlatformConfig
    from repro.sim import RngHub
    from repro.workload import WorkloadBuilder

    apps = WorkloadBuilder(n_apps=20, total_gbps=10.0, rng_hub=RngHub(0)).build()
    dc = MegaDataCenter(
        apps, config=PlatformConfig(), n_pods=3, servers_per_pod=8, n_switches=4
    )
    dc.run(1800.0)
    print(f"satisfied: {dc.satisfied.current:.1%}", file=out)
    print(f"links:     {dc.link_utilizations()}", file=out)
    print(f"invariants hold: {dc.invariants_ok()}", file=out)


def cmd_faults(
    seed: int,
    duration_s: float,
    serialized: bool,
    fail_link: bool,
    out=None,
) -> int:
    """Run the scripted failure-recovery scenario and print its report."""
    out = out if out is not None else sys.stdout
    from repro.experiments.e13_failure_recovery import run as run_e13

    try:
        result = run_e13(
            seed=seed,
            duration_s=duration_s,
            serialized_reconfig=serialized,
            fail_link=fail_link,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(file=out)
    print(result.table().render(), file=out)
    return 0 if result.recovered else 1


def cmd_controlplane(
    seed: int,
    duration_s: float,
    checkpoint_intervals: list[float] | None,
    shards: list[int] | None = None,
    out=None,
) -> int:
    """Run the control-plane crash-safety scenario and print its report.

    Exit status 0 means the scripted manager crash mid-``move_vip`` was
    recovered via journal replay and the injected drift was repaired by
    the anti-entropy reconciler within its convergence bound.

    With ``--shards`` the sharded scenario (E16) runs instead: a
    reconfiguration storm plus seeded shard crashes / partitions, and
    exit 0 means throughput scaled monotonically with shard count and
    every chaos case converged to a clean drift report.
    """
    out = out if out is not None else sys.stdout
    if shards:
        from repro.experiments.e16_sharded_control_plane import run as run_e16

        try:
            result = run_e16(seed=seed, shards=tuple(sorted(set(shards))))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(file=out)
        print(result.table().render(), file=out)
        return 0 if result.accepted else 1
    from repro.experiments.e14_control_plane import DEFAULT_INTERVALS, run as run_e14

    intervals = (
        tuple(checkpoint_intervals) if checkpoint_intervals else DEFAULT_INTERVALS
    )
    try:
        result = run_e14(
            seed=seed, duration_s=duration_s, checkpoint_intervals=intervals
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(file=out)
    print(result.table().render(), file=out)
    for monitor in result.monitors[:1]:
        print(file=out)
        print(monitor.table().render(), file=out)
    return 0 if result.recovered else 1


def cmd_trace_summary(paths: list[str], out=None) -> int:
    """Summarize one or more JSONL trace files."""
    out = out if out is not None else sys.stdout
    from repro.obs import summarize_trace

    status = 0
    for path in paths:
        try:
            s = summarize_trace(path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            status = 2
            continue
        span = (
            f"t=[{s['t_first']:g}, {s['t_last']:g}]"
            if s["events"]
            else "empty"
        )
        print(f"{path}: {s['events']} events, {span}", file=out)
        print(f"  digest {s['digest']}", file=out)
        for kind in sorted(s["kinds"]):
            print(f"  {kind:>16}  {s['kinds'][kind]}", file=out)
    return status


def cmd_trace_diff(path_a: str, path_b: str, out=None) -> int:
    """Diff two trace files; exit 0 iff they are identical."""
    out = out if out is not None else sys.stdout
    from repro.obs import diff_traces

    try:
        d = diff_traces(path_a, path_b)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for side in ("a", "b"):
        info = d[side]
        print(
            f"{side}: {info['path']}  events={info['events']}  "
            f"digest={info['digest'][:16]}…",
            file=out,
        )
    if d["identical"]:
        print("traces identical", file=out)
        return 0
    div = d["first_divergence"]
    print(f"first divergence at event #{div['index']}:", file=out)
    print(f"  a: {div['a']}", file=out)
    print(f"  b: {div['b']}", file=out)
    if d["kind_delta"]:
        print(f"event-count delta (b - a): {d['kind_delta']}", file=out)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Mega Data Center for Elastic Internet Applications'",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_p = sub.add_parser("run", help="run one or more experiments")
    run_p.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    sub.add_parser("quickstart", help="build and run a small platform")
    faults_p = sub.add_parser(
        "faults", help="run the scripted failure-recovery scenario"
    )
    faults_p.add_argument("--seed", type=int, default=42, help="scenario seed")
    faults_p.add_argument(
        "--duration", type=float, default=3600.0, help="simulated seconds"
    )
    faults_p.add_argument(
        "--serialized",
        action="store_true",
        help="route recovery through the serialized VIP/RIP manager",
    )
    faults_p.add_argument(
        "--fail-link",
        action="store_true",
        help="also fail one access link (exercises the K1 re-steer)",
    )
    cp_p = sub.add_parser(
        "controlplane",
        help="run the control-plane crash-safety scenario (journal replay "
        "+ anti-entropy reconciliation)",
    )
    cp_p.add_argument("--seed", type=int, default=42, help="scenario seed")
    cp_p.add_argument(
        "--duration", type=float, default=1800.0, help="simulated seconds"
    )
    cp_p.add_argument(
        "--checkpoint-interval",
        type=float,
        action="append",
        dest="checkpoint_intervals",
        metavar="SECONDS",
        help="checkpoint interval to sweep (repeatable; default 60/240/960)",
    )
    cp_p.add_argument(
        "--shards",
        type=int,
        action="append",
        dest="shards",
        metavar="N",
        help="run the sharded scenario (E16) at this shard count instead "
        "(repeatable, e.g. --shards 1 --shards 2 --shards 4)",
    )
    # Flags every BENCH lane shares (bench, mega, dataplane).
    lane_p = argparse.ArgumentParser(add_help=False)
    lane_p.add_argument(
        "--quick",
        action="store_true",
        help="quick fixtures only, as the lane's CI smoke job runs them "
        "(mega and dataplane: 1/10 scale)",
    )
    lane_p.add_argument(
        "--out", default=".", metavar="DIR", help="where to write BENCH_*.json"
    )
    lane_p.add_argument(
        "--baseline",
        metavar="DIR",
        help="directory holding baseline BENCH_*.json to gate against "
        "(read before --out is written, so it may be the same directory)",
    )
    lane_p.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail if a guarded metric exceeds baseline x this ratio",
    )
    rss_p = argparse.ArgumentParser(add_help=False)
    rss_p.add_argument(
        "--max-rss-mb",
        type=float,
        default=8192.0,
        help="fail if peak RSS exceeds this many MB (acceptance budget)",
    )
    bench_p = sub.add_parser(
        "bench",
        parents=[lane_p],
        help="run pinned perf workloads; writes BENCH_placement.json / "
        "BENCH_network.json / BENCH_controlplane.json",
    )
    bench_p.add_argument(
        "--workers",
        type=int,
        default=4,
        help="parallel engine width for the pod-epoch workload",
    )
    bench_p.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail if a parallel workload's speedup falls below X "
        "(skipped with a warning when the runner has fewer cores than "
        "the workload's workers)",
    )
    mega_p = sub.add_parser(
        "mega",
        parents=[lane_p, rss_p],
        help="run the paper-scale bounded-memory epoch driver (300k "
        "servers / 300k apps / ~6M VMs); writes BENCH_mega.json and gates "
        "peak RSS",
    )
    mega_p.add_argument(
        "--epochs", type=int, default=2, help="placement epochs to run"
    )
    mega_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="placement engine width (process-pool workers)",
    )
    mega_p.add_argument(
        "--faults",
        action="store_true",
        help="also run the fault lane (E18's scripted fail/repair cycle); "
        "adds a mega_faults workload entry gated on recovery, MTTR and "
        "the RIP-mirror CRC",
    )
    dp_p = sub.add_parser(
        "dataplane",
        parents=[lane_p, rss_p],
        help="run the mega traffic data plane lane (E19); writes "
        "BENCH_dataplane.json and gates throughput, the object-path "
        "speedup and peak RSS",
    )
    dp_p.add_argument(
        "--epochs", type=int, default=4, help="steered epochs to run"
    )
    dp_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel engine width for the placement half of the loop",
    )
    dp_p.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        metavar="X",
        help="fail if the columnar path is not at least X times faster "
        "than the object path (checked when the race runs, i.e. --quick, "
        "where the object data plane steers the same stream)",
    )
    trace_p = sub.add_parser(
        "trace", help="summarize or diff JSONL trace files"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    trace_sum_p = trace_sub.add_parser(
        "summary", help="per-kind event counts, time span and content digest"
    )
    trace_sum_p.add_argument("files", nargs="+", metavar="FILE")
    trace_diff_p = trace_sub.add_parser(
        "diff",
        help="compare two traces; exit 1 and show the first divergence "
        "if they differ",
    )
    trace_diff_p.add_argument("file_a", metavar="A")
    trace_diff_p.add_argument("file_b", metavar="B")

    args = parser.parse_args(argv)
    if args.command == "list":
        cmd_list()
        return 0
    if args.command == "quickstart":
        cmd_quickstart()
        return 0
    if args.command == "faults":
        return cmd_faults(
            args.seed, args.duration, args.serialized, args.fail_link
        )
    if args.command == "controlplane":
        return cmd_controlplane(
            args.seed, args.duration, args.checkpoint_intervals, args.shards
        )
    if args.command == "bench":
        from repro.perf.bench import cmd_bench

        return cmd_bench(
            quick=args.quick,
            out_dir=args.out,
            workers=args.workers,
            baseline=args.baseline,
            max_regression=args.max_regression,
            min_speedup=args.min_speedup,
        )
    if args.command == "mega":
        from repro.perf.bench import cmd_mega

        return cmd_mega(
            quick=args.quick,
            out_dir=args.out,
            workers=args.workers,
            epochs=args.epochs,
            baseline=args.baseline,
            max_regression=args.max_regression,
            max_rss_mb=args.max_rss_mb,
            faults=args.faults,
        )
    if args.command == "dataplane":
        from repro.perf.bench import cmd_dataplane

        return cmd_dataplane(
            quick=args.quick,
            out_dir=args.out,
            workers=args.workers,
            epochs=args.epochs,
            baseline=args.baseline,
            max_regression=args.max_regression,
            max_rss_mb=args.max_rss_mb,
            min_speedup=args.min_speedup,
        )
    if args.command == "trace":
        if args.trace_command == "summary":
            return cmd_trace_summary(args.files)
        return cmd_trace_diff(args.file_a, args.file_b)
    ids = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [e for e in ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        cmd_list(out=sys.stderr)
        return 2
    for exp_id in ids:
        run_experiment(exp_id)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
