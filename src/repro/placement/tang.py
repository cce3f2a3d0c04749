"""Centralized application placement controller (Tang et al., WWW 2007).

The algorithm alternates two phases until demand is met or it stops
improving:

1. **load shifting** — with the placement fixed, route divisible CPU demand
   from apps to their instances so as to maximize total satisfied demand.
   This is a max-flow problem on the bipartite app/server graph (source ->
   app: demand; app -> server where placed: unbounded; server -> sink: CPU
   capacity) and we solve it exactly, as Tang et al. do.
2. **placement changing** — start new instances for apps with residual
   demand on servers with spare memory and CPU (stopping idle instances to
   make room when necessary), minimizing placement changes by adding at
   most one instance per app per iteration.

The exact max-flow per iteration is what makes the controller's runtime
grow superlinearly with the instance count — the behaviour the paper quotes
("about half a minute ... for about 7,000 servers and 17,500 applications")
and that experiment E2 reproduces in shape.

Every solve starts cold: a fresh flow graph per load-shift round and no
state carried between solves, as in the original WWW 2007 controller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.placement.problem import (
    PlacementProblem,
    PlacementSolution,
    count_changes,
)

_SCALE = 10**6  # float -> int capacity scaling for exact max-flow

# Flow-graph node encoding: all nodes are plain ints — app *a* is node
# ``a``, server *s* is node ``a_count + s``, and source/sink are the two
# sentinels below.  Integer hashes are the same in every interpreter
# (unlike salted str/tuple hashes), so preflow-push's hash-ordered
# internals — and therefore the exact flow decomposition — are identical
# across processes.  That is what lets a *committed* golden trace digest
# cover Tang solution CRCs: with string node labels the digest changed
# with PYTHONHASHSEED.
_SRC, _DST = -1, -2


@dataclass
class TangController:
    """Centralized placement controller.

    Parameters
    ----------
    max_iterations:
        Load-shift / placement-change rounds.
    """

    max_iterations: int = 10
    #: Label used in experiment tables.
    name: ClassVar[str] = "tang-centralized"
    #: Max-flow solves performed (one per load-shift call).
    maxflow_calls: int = field(default=0, init=False, compare=False)
    #: Load-shift rounds of the most recent :meth:`solve`.
    last_solve_iterations: int = field(default=0, init=False, compare=False)

    def solve(self, problem: PlacementProblem) -> PlacementSolution:
        t0 = time.perf_counter()
        placement = problem.current.copy()
        load = self._load_shift(problem, placement)
        self.last_solve_iterations = 1
        for _ in range(self.max_iterations):
            residual = problem.app_cpu_demand - load.sum(axis=0)
            if residual.max(initial=0.0) <= 1e-9:
                break
            if not self._placement_change(problem, placement, load, residual):
                break
            load = self._load_shift(problem, placement)
            self.last_solve_iterations += 1
        changes = count_changes(problem.current, placement)
        return PlacementSolution(
            placement=placement,
            load=load,
            changes=changes,
            wall_time_s=time.perf_counter() - t0,
        )

    # -- phase 1: exact load shifting --------------------------------------
    def _load_shift(
        self, problem: PlacementProblem, placement: np.ndarray
    ) -> np.ndarray:
        """Max-flow on a fresh bipartite graph for the fixed placement."""
        import networkx as nx

        demand_int = (problem.app_cpu_demand * _SCALE).astype(np.int64)
        cpu_int = (problem.server_cpu * _SCALE).astype(np.int64)
        self.maxflow_calls += 1
        s_count, a_count = placement.shape
        g = nx.DiGraph()
        for a in range(a_count):
            if demand_int[a] > 0:
                g.add_edge(_SRC, a, capacity=int(demand_int[a]))
        for s in range(s_count):
            if cpu_int[s] > 0:
                g.add_edge(a_count + s, _DST, capacity=int(cpu_int[s]))
        servers_of = placement.T  # A x S view
        for a in range(a_count):
            if demand_int[a] <= 0:
                continue
            for s in np.nonzero(servers_of[a])[0]:
                g.add_edge(a, a_count + int(s))  # uncapacitated
        load = np.zeros((s_count, a_count))
        if g.number_of_edges() == 0 or _SRC not in g or _DST not in g:
            return load
        _, flow = nx.maximum_flow(
            g, _SRC, _DST, flow_func=nx.algorithms.flow.preflow_push
        )
        # Single pass over the flow dict: each app->server edge appears
        # exactly once, so visit order cannot change the result.
        for node, out in flow.items():
            if not 0 <= node < a_count:
                continue
            for dst, f in out.items():
                if f > 0 and dst >= a_count:
                    load[dst - a_count, node] = f / _SCALE
        return load

    # -- phase 2: placement changing -----------------------------------------
    def _placement_change(
        self,
        problem: PlacementProblem,
        placement: np.ndarray,
        load: np.ndarray,
        residual: np.ndarray,
    ) -> bool:
        """Mutates *placement* in place; returns True if anything changed."""
        free_cpu = problem.server_cpu - load.sum(axis=1)
        free_mem = problem.server_mem - problem.mem_used(placement)
        changed = False
        # Apps with residual demand, most starved first.
        for a in np.argsort(-residual, kind="stable"):
            if residual[a] <= 1e-9:
                break
            if problem.max_instances is not None and (
                placement[:, a].sum() >= problem.max_instances[a]
            ):
                continue
            mem_a = problem.app_mem[a]
            # Candidate servers: spare memory, spare CPU, app not placed.
            candidates = (
                (free_mem >= mem_a - 1e-9)
                & (free_cpu > 1e-9)
                & ~placement[:, a]
            )
            if not candidates.any():
                # Try to free memory by stopping an idle instance of a
                # satisfied app on the server with the most spare CPU.
                s = self._make_room(problem, placement, load, residual, mem_a, free_cpu, free_mem)
                if s is None:
                    continue
                changed = True
            else:
                cand_idx = np.nonzero(candidates)[0]
                s = int(cand_idx[np.argmax(free_cpu[cand_idx])])
            placement[s, a] = True
            free_mem[s] -= mem_a
            changed = True
        return changed

    def _make_room(
        self,
        problem: PlacementProblem,
        placement: np.ndarray,
        load: np.ndarray,
        residual: np.ndarray,
        mem_needed: float,
        free_cpu: np.ndarray,
        free_mem: np.ndarray,
    ):
        """Stop one idle instance of a demand-satisfied app to free memory.

        Returns the freed server index, or None.  Mutates placement and
        free_mem.
        """
        satisfied = residual <= 1e-9
        idle = placement & (load <= 1e-12) & satisfied[None, :]
        # Prefer the server with most spare CPU whose freed memory suffices.
        for s in np.argsort(-free_cpu, kind="stable"):
            apps = np.nonzero(idle[int(s)])[0]
            for a in apps:
                if free_mem[s] + problem.app_mem[a] >= mem_needed - 1e-9:
                    placement[int(s), int(a)] = False
                    free_mem[s] += problem.app_mem[a]
                    return int(s)
        return None
