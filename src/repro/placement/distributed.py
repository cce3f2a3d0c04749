"""Distributed placement: independent per-app agents with sampled views.

The paper (Section I-A) notes distributed approaches "improve scalability
at the expense of the quality of their solutions".  Here each application
agent sees only a stale epoch-start snapshot of server occupancy and a
small random sample of candidate servers; agents do not coordinate, so they
collide on attractive servers and leave demand stranded — which is exactly
the quality gap experiments E2/E12 quantify.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from repro.placement.greedy import _BufferRing, waterfill_load
from repro.placement.problem import (
    PlacementProblem,
    PlacementSolution,
    count_changes,
)


@dataclass
class DistributedController:
    """Uncoordinated per-app placement agents.

    Parameters
    ----------
    sample_size:
        Servers each agent samples when it needs more capacity
        (power-of-d-choices flavour).
    rng:
        Random source; defaults to a fixed-seed generator for repeatability.
    """

    sample_size: int = 4
    rng: Optional[np.random.Generator] = None
    name: ClassVar[str] = "distributed"
    _ring: _BufferRing = field(
        default_factory=_BufferRing, init=False, repr=False, compare=False
    )

    def solve(self, problem: PlacementProblem) -> PlacementSolution:
        t0 = time.perf_counter()
        rng = self.rng if self.rng is not None else np.random.default_rng(0)
        placement = self._ring.copy_of(problem.current)

        # Stale epoch-start snapshot every agent plans against.
        load0 = waterfill_load(problem, problem.current)
        snapshot_free_cpu = problem.server_cpu - load0.sum(axis=1)
        snapshot_satisfied = load0.sum(axis=0)

        # Live state used only for admission (a real server rejects a
        # placement it cannot hold; the agent does not retry).
        live_free_mem = problem.server_mem - problem.mem_used(placement)

        order = rng.permutation(problem.n_apps)
        for a in order:
            a = int(a)
            residual = problem.app_cpu_demand[a] - snapshot_satisfied[a]
            if residual <= 1e-9:
                continue
            sample = rng.choice(
                problem.n_servers,
                size=min(self.sample_size, problem.n_servers),
                replace=False,
            )
            # Agent ranks its sample by the *stale* free CPU — a stable
            # argsort over the snapshot replaces the Python sorted()+skip
            # loop (ties keep sample order, so placements are unchanged
            # for the same seed); open/not-mine filtering is vectorized.
            ranked = sample[np.argsort(-snapshot_free_cpu[sample], kind="stable")]
            viable = ranked[
                (snapshot_free_cpu[ranked] > 1e-9) & ~placement[ranked, a]
            ]
            for s in viable:
                s = int(s)
                # Admission control against live memory.
                if live_free_mem[s] < problem.app_mem[a] - 1e-9:
                    continue
                placement[s, a] = True
                live_free_mem[s] -= problem.app_mem[a]
                residual -= min(residual, snapshot_free_cpu[s])
                if residual <= 1e-9:
                    break

        load = waterfill_load(problem, placement)
        changes = count_changes(problem.current, placement)
        return PlacementSolution(
            placement=placement,
            load=load,
            changes=changes,
            wall_time_s=time.perf_counter() - t0,
        )
