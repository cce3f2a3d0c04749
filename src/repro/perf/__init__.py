"""Performance engine: parallel pod-epoch placement and the bench harness.

The paper's scalability argument (Sections I, III) is that logical pods
make placement *embarrassingly parallel*: "each pod manager runs an
existing centralized placement algorithm within its pod" independently.
:class:`PlacementEngine` realizes that claim — the pure solve stage of
every pod's epoch (:class:`PlacementProblem` in, ``PlacementSolution``
out) is fanned across a persistent process pool, while the stateful apply
stage (VM boots/stops, RIP wiring) stays in the main process in
deterministic pod order, so results are bit-identical to the serial loop.

``repro bench`` (:mod:`repro.perf.bench`) pins the placement/epoch and
sharded control-plane workloads and writes ``BENCH_placement.json`` /
``BENCH_controlplane.json`` so every later change has a machine-readable
trajectory to beat; ``repro mega`` and ``repro
dataplane`` write ``BENCH_mega.json`` / ``BENCH_dataplane.json`` through
the same gate.
"""

from repro.perf.engine import (
    PlacementEngine,
    PlacementTask,
    derive_seed,
    solve_placement_task,
)
from repro.perf.rss import peak_rss_mb

__all__ = [
    "PlacementEngine",
    "PlacementTask",
    "derive_seed",
    "solve_placement_task",
    "peak_rss_mb",
]
