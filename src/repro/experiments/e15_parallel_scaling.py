"""E15 — parallel pod-epoch scaling (pods x workers sweep).

The paper's pods are "independently managed" (Section III-A), which makes
the per-epoch placement solves embarrassingly parallel.  This experiment
sweeps pod count x engine worker count over drifting-demand epochs and
reports epoch wall time, speedup vs the serial engine, and whether the
parallel placements are byte-identical to serial (they must be — the
engine's determinism contract).

Speedups track ``min(pods, workers, cores)``; on a single-core host every
parallel row is a slowdown (process overhead with no concurrency), which
is recorded honestly — the ``identical`` column is the correctness claim,
the speedup column is hardware-dependent.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import Table
from repro.experiments.e02_placement_scalability import (
    make_instance,
    split_into_pods,
)
from repro.experiments.e12_quality import _drift
from repro.perf.engine import PlacementEngine, PlacementTask
from repro.placement import PlacementProblem, TangController


def _demand_sequence(base: PlacementProblem, epochs: int, seed: int):
    rng = np.random.default_rng(seed + 1)
    seq = [base.app_cpu_demand]
    for _ in range(epochs - 1):
        seq.append(_drift(seq[-1], rng))
    return seq


def _run_pod_epochs(
    base: PlacementProblem,
    pods: list[PlacementProblem],
    demand_seq,
    engine: PlacementEngine,
):
    """Run the epoch sequence through *engine* with fresh per-pod Tang
    controllers; returns (wall_s, per-epoch solution signatures, max-flow
    calls counted in-process)."""
    controllers = [TangController() for _ in pods]
    placements = [p.current.copy() for p in pods]
    signatures = []
    tracing = engine.trace is not None and engine.trace.enabled
    t0 = time.perf_counter()
    for epoch, demand in enumerate(demand_seq):
        full = PlacementProblem(
            server_cpu=base.server_cpu,
            server_mem=base.server_mem,
            app_cpu_demand=demand,
            app_mem=base.app_mem,
            current=np.vstack(placements),
        )
        epoch_pods = split_into_pods(full, pods[0].n_servers)
        ctx = {"t": 60.0 * epoch, "epoch": str(epoch)} if tracing else None
        tasks = [
            PlacementTask(
                key=f"pod-{i}", problem=p, controller=controllers[i],
                trace_ctx=ctx,
            )
            for i, p in enumerate(epoch_pods)
        ]
        solutions = engine.solve_batch(tasks)
        placements = [s.placement for s in solutions]
        signatures.append(
            [(s.placement.tobytes(), s.load.tobytes()) for s in solutions]
        )
    wall = time.perf_counter() - t0
    # Counters accrue on these controller objects only when the engine
    # solves in-process; a pool solves shipped copies.
    return wall, signatures, sum(c.maxflow_calls for c in controllers)


@dataclass
class E15Row:
    pods: int
    servers: int
    workers: int
    epochs: int
    wall_s: float
    epoch_s: float
    speedup: float
    identical: bool


@dataclass
class E15Result:
    rows: list[E15Row] = field(default_factory=list)
    cpu_count: int = 1

    def table(self) -> Table:
        t = Table(
            "E15 — parallel pod-epoch scaling (engine workers vs serial)",
            [
                "pods",
                "servers",
                "workers",
                "epochs",
                "wall(s)",
                "epoch(s)",
                "speedup",
                "identical",
            ],
        )
        for r in self.rows:
            t.add_row(
                r.pods,
                r.servers,
                r.workers,
                r.epochs,
                round(r.wall_s, 3),
                round(r.epoch_s, 3),
                round(r.speedup, 2),
                r.identical,
            )
        t.add_note(
            f"host cpu_count={self.cpu_count}; speedup tracks "
            "min(pods, workers, cores) — rows with workers > cores measure "
            "pool overhead, not parallelism"
        )
        return t

    def all_identical(self) -> bool:
        return all(r.identical for r in self.rows)


def run(
    pod_counts: tuple[int, ...] = (4, 8),
    workers_list: tuple[int, ...] = (1, 2, 4),
    pod_size: int = 20,
    epochs: int = 2,
    seed: int = 0,
) -> E15Result:
    result = E15Result(cpu_count=os.cpu_count() or 1)
    for n_pods in pod_counts:
        n_servers = n_pods * pod_size
        base = make_instance(n_servers, seed=seed)
        pods = split_into_pods(base, pod_size)
        demand_seq = _demand_sequence(base, epochs, seed)
        serial_wall, serial_sigs = None, None
        for workers in workers_list:
            with PlacementEngine(workers) as engine:
                wall, sigs, _ = _run_pod_epochs(base, pods, demand_seq, engine)
            if workers == 1 or serial_wall is None:
                serial_wall, serial_sigs = wall, sigs
            result.rows.append(
                E15Row(
                    pods=len(pods),
                    servers=n_servers,
                    workers=workers,
                    epochs=epochs,
                    wall_s=wall,
                    epoch_s=wall / epochs,
                    speedup=serial_wall / max(wall, 1e-9),
                    identical=sigs == serial_sigs,
                )
            )
    return result


def trace_digest(
    workers: int,
    n_pods: int = 4,
    pod_size: int = 20,
    epochs: int = 3,
    seed: int = 0,
) -> str:
    """Digest of the E15 workload's trace at *workers* — the golden-trace
    witness that pool.dispatch/pool.merge events (epoch identity, task
    keys, solution CRCs) are byte-identical across engine parallelism
    levels."""
    from repro.obs import TraceBus

    base = make_instance(n_pods * pod_size, seed=seed)
    pods = split_into_pods(base, pod_size)
    demand_seq = _demand_sequence(base, epochs, seed)
    bus = TraceBus(keep_events=False)
    with PlacementEngine(workers) as engine:
        engine.trace = bus
        _run_pod_epochs(base, pods, demand_seq, engine)
    return bus.digest
