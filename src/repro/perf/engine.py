"""Pod-epoch placement engine: one solve path, in-process or pooled.

The engine executes a *batch* of independent placement solves, one per
pod.  Pods are independently managed (Section III-A), so nothing a solve
needs lives outside its task:

* ``parallelism=1`` runs :func:`solve_placement_task` in-process, in
  task order.  This is the serial reference.  Here a task's problem may
  be a builder called just before its solve, and an ``apply`` callback
  may adopt each solution as soon as it is solved, so a batch holds one
  pod's working state at a time (the mega loop runs this way).
* ``parallelism>1`` maps the same function over one persistent
  ``ProcessPoolExecutor``.  Each task ships whole (problem and
  controller) and its solution ships back; workers keep no state
  between solves.  Problems must be built up front.

Determinism contract (property-tested): results and trace digests are
bit-identical across parallelism levels.  No controller's result
depends on state carried between solves, and randomized controllers are
reseeded from :attr:`PlacementTask.seed` in whichever process solves.
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

import numpy as np

from repro.placement.problem import PlacementProblem, PlacementSolution


@dataclass
class PlacementTask:
    """One pod's pure solve stage.

    Attributes
    ----------
    key:
        Caller identity (pod name).  Batches are merged in task order.
    problem:
        The placement instance to solve, or a zero-argument callable that
        builds it just before the solve (in-process engine only: a
        builder does not ship to a worker).
    controller:
        Any object with ``solve(problem) -> PlacementSolution``.  Must be
        picklable for ``parallelism > 1``; it ships with every task.
    seed:
        When set and the controller has an ``rng`` attribute, the solving
        process replaces it with ``default_rng(seed)`` before solving —
        the hook that keeps randomized controllers identical across
        parallelism levels.
    trace_ctx:
        Opaque trace context (e.g. ``{"t": ..., "epoch": ...}``) used to
        stamp pool.dispatch/merge events, which the driver emits itself.
    """

    key: str
    problem: Union[PlacementProblem, Callable[[], PlacementProblem]]
    controller: object
    seed: Optional[int] = None
    trace_ctx: Optional[dict] = None


def derive_seed(key: str, epoch) -> int:
    """Stable per-(pod, epoch) seed: identical across processes and runs
    (unlike ``hash()``, which is salted per interpreter)."""
    return zlib.crc32(f"{key}:{epoch}".encode()) & 0x7FFFFFFF


def solve_placement_task(task: PlacementTask) -> PlacementSolution:
    """Run one task's pure solve stage in the calling process.

    This is the whole solve semantics of the engine: build the problem
    if the task carries a builder, re-seed the controller's RNG when the
    task carries a seed, then ``solve``.  The serial path calls it
    directly; pool workers run it on the shipped task.
    """
    problem = task.problem() if callable(task.problem) else task.problem
    controller = task.controller
    if task.seed is not None and hasattr(controller, "rng"):
        controller.rng = np.random.default_rng(task.seed)
    return controller.solve(problem)


def _crc(arr) -> int:
    """CRC32 over a dense array's exact bytes."""
    return zlib.crc32(np.ascontiguousarray(arr))


class PlacementEngine:
    """Fan independent placement solves across a persistent process pool.

    Parameters
    ----------
    parallelism:
        Worker count; defaults to ``os.cpu_count()``.  ``1`` solves
        in-process (no pool is ever created), so it is the serial
        reference the parallel path must match bit-for-bit.
    """

    def __init__(self, parallelism: Optional[int] = None):
        self.parallelism = (
            int(parallelism) if parallelism is not None else (os.cpu_count() or 1)
        )
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Optional trace bus (set by the datacenter facade).  Dispatch
        #: and merge events never mention worker identity or pool width,
        #: so traces are identical across parallelism levels.
        self.trace = None
        #: Batches dispatched (one per epoch in the datacenter loop).
        self.batches = 0
        #: Individual pod solves executed.
        self.tasks_solved = 0
        #: Pool creations — stays at <= 1 per engine lifetime, which is
        #: the point: workers persist across epochs.
        self.pool_spawns = 0

    def solve_batch(
        self,
        tasks: Iterable[PlacementTask],
        apply: Optional[Callable[[PlacementTask, PlacementSolution], object]] = None,
    ) -> list:
        """Solve every task; results are returned in task order.

        Without *apply* the results are the solutions.  With it, each
        solution is handed to ``apply(task, solution)`` as soon as it is
        solved (in-process; after the whole map on a pool) and not kept;
        the results are what *apply* returned.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        self.batches += 1
        self.tasks_solved += len(tasks)
        tracing = self.trace is not None and self.trace.enabled
        ctx = tasks[0].trace_ctx
        if tracing and ctx is not None:
            self.trace.emit(
                "pool.dispatch", t=ctx.get("t", 0.0), epoch=ctx.get("epoch"),
                tasks=[t.key for t in tasks],
            )
        if self.parallelism == 1:
            solved = (solve_placement_task(t) for t in tasks)
        else:
            if any(callable(t.problem) for t in tasks):
                raise ValueError("problem builders need parallelism=1")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.parallelism)
                self.pool_spawns += 1
            try:
                solved = list(self._pool.map(solve_placement_task, tasks))
            except BaseException:
                # A dead worker breaks the pool; drop it so the next batch
                # starts a fresh one.
                self.close()
                raise
        results = []
        merges = []
        solved = iter(solved)
        # Not ``zip``: its result tuple would keep each solution alive
        # through the next task's solve.
        for task in tasks:
            solution = next(solved)
            if tracing and task.trace_ctx is not None:
                # CRCs of the solution arrays: cheap witnesses that the
                # parallel merge is bit-identical to the serial solve.
                merges.append(
                    (task, _crc(solution.placement), _crc(solution.load))
                )
            results.append(solution if apply is None else apply(task, solution))
            del solution
        for task, placement_crc, load_crc in merges:
            tctx = task.trace_ctx
            self.trace.emit(
                "pool.merge", t=tctx.get("t", 0.0), key=task.key,
                epoch=tctx.get("epoch"),
                placement_crc=placement_crc,
                load_crc=load_crc,
            )
        return results

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "PlacementEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
