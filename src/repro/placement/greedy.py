"""Agile greedy pod-level controller (in the spirit of Zhang et al. [28]).

The manager favours cheap actions: first re-balance load across the
instances that already exist (the placement-free analogue of VM capacity
adjustment, knob K5), then start new instances first-fit-decreasing for
whatever demand is left, and finally stop instances that are idle and
unneeded.  Runtime is O((S + A) log S) per epoch — the pod-scale behaviour
the hierarchical architecture depends on.
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

#: Proportional-filling rounds of :func:`waterfill_load`.
WATERFILL_ROUNDS = 12


class _BufferRing:
    """Two-slot reusable array pool for per-epoch working copies.

    Hoists the per-solve ``current.copy()`` allocation: the controller
    writes into a preallocated buffer instead of allocating a fresh S x A
    matrix every epoch.  Two slots alternate so the placement returned by
    one solve stays intact through the *next* solve, when epoch loops
    feed it back as ``problem.current``.
    """

    __slots__ = ("_slots", "_next")

    def __init__(self):
        self._slots = [None, None]
        self._next = 0

    def copy_of(self, src: np.ndarray) -> np.ndarray:
        buf = self._slots[self._next]
        if (
            buf is None
            or buf is src
            or buf.shape != src.shape
            or buf.dtype != src.dtype
        ):
            buf = np.empty(src.shape, dtype=src.dtype)
            self._slots[self._next] = buf
        self._next = 1 - self._next
        np.copyto(buf, src)
        return buf


def waterfill_load(problem: PlacementProblem, placement: np.ndarray) -> np.ndarray:
    """Distribute divisible app demand over placed instances.

    Iterative proportional filling: each round every unsatisfied app asks
    its instances (on servers with spare CPU) for an equal share of its
    remaining demand; servers grant proportionally down to their free
    capacity.  Converges geometrically; not exactly max-flow-optimal, which
    is precisely the quality gap between the greedy manager and Tang's
    exact load shifting (experiment E12 measures it).
    """
    s_count, a_count = placement.shape
    load = np.zeros((s_count, a_count))
    remaining = problem.app_cpu_demand.copy()
    free = problem.server_cpu.astype(float).copy()
    for _ in range(WATERFILL_ROUNDS):
        open_servers = free > 1e-12
        p = placement & open_servers[:, None]
        counts = p.sum(axis=0)
        active = (remaining > 1e-12) & (counts > 0)
        if not active.any():
            break
        want = np.where(p[:, active], (remaining[active] / counts[active])[None, :], 0.0)
        want_per_server = want.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(
                want_per_server > 1e-15,
                np.minimum(1.0, free / want_per_server),
                0.0,
            )
        grant = want * scale[:, None]
        load[:, active] += grant
        free -= grant.sum(axis=1)
        free = np.maximum(free, 0.0)
        remaining[active] -= grant.sum(axis=0)
        remaining = np.maximum(remaining, 0.0)
    return load


@dataclass
class GreedyController:
    """Fast first-fit-decreasing pod controller.

    ``packing=True`` switches instance starts from worst-fit (spread for
    headroom, the default) to best-fit (pack for consolidation — the
    energy-aware mode of Section VI).
    """

    stop_idle: bool = True
    packing: bool = False
    name: ClassVar[str] = "greedy-agile"
    _ring: _BufferRing = field(
        default_factory=_BufferRing, init=False, repr=False, compare=False
    )

    def solve(self, problem: PlacementProblem) -> PlacementSolution:
        t0 = time.perf_counter()
        placement = self._ring.copy_of(problem.current)
        load = waterfill_load(problem, placement)
        residual = problem.app_cpu_demand - load.sum(axis=0)
        free_cpu = problem.server_cpu - load.sum(axis=1)
        free_mem = problem.server_mem - problem.mem_used(placement)

        # Start instances, most starved app first; a server ordering by
        # spare CPU makes this first-fit-decreasing on both sides.
        for a in np.argsort(-residual, kind="stable"):
            a = int(a)
            if residual[a] <= 1e-9:
                continue
            mem_a = problem.app_mem[a]
            # The candidate mask's app-invariant parts are hoisted out of
            # the grant loop: each grant only touches the chosen server
            # (placed -> out of the mask; its free CPU/mem changes affect
            # no other server), so an extra instance costs O(1), not O(S).
            candidates = (
                (free_mem >= mem_a - 1e-9)
                & (free_cpu > 1e-9)
                & ~placement[:, a]
            )
            n_placed = int(placement[:, a].sum())
            while residual[a] > 1e-9:
                if problem.max_instances is not None and (
                    n_placed >= problem.max_instances[a]
                ):
                    break
                if not candidates.any():
                    break
                idx = np.nonzero(candidates)[0]
                if self.packing:
                    # Best-fit: tightest server that can absorb the whole
                    # residual, else the roomiest (residual spans servers).
                    enough = idx[free_cpu[idx] >= residual[a] - 1e-9]
                    if len(enough):
                        s = int(enough[np.argmin(free_cpu[enough])])
                    else:
                        s = int(idx[np.argmax(free_cpu[idx])])
                else:
                    s = int(idx[np.argmax(free_cpu[idx])])
                placement[s, a] = True
                candidates[s] = False
                n_placed += 1
                grant = min(residual[a], free_cpu[s])
                load[s, a] += grant
                residual[a] -= grant
                free_cpu[s] -= grant
                free_mem[s] -= mem_a

        if self.stop_idle:
            self._consolidate(problem, placement, load)

        changes = count_changes(problem.current, placement)
        return PlacementSolution(
            placement=placement,
            load=load,
            changes=changes,
            wall_time_s=time.perf_counter() - t0,
        )

    @staticmethod
    def _consolidate(
        problem: PlacementProblem, placement: np.ndarray, load: np.ndarray
    ) -> None:
        """Stop instances whose load fits in their siblings' spare capacity.

        Keeps at least one instance per app that has any.  Mutates
        *placement* and *load* in place.
        """
        free_cpu = problem.server_cpu - load.sum(axis=1)
        for a in range(problem.n_apps):
            servers = list(np.nonzero(placement[:, a])[0])
            if len(servers) <= 1:
                continue
            # Try to evict lightest-loaded instances first.
            servers.sort(key=lambda s: (load[s, a], s))
            for s in servers:
                if placement[:, a].sum() <= 1:
                    break
                amount = load[s, a]
                siblings = [int(o) for o in np.nonzero(placement[:, a])[0] if o != s]
                if sum(free_cpu[o] for o in siblings) + 1e-12 < amount:
                    continue
                placement[s, a] = False
                load[s, a] = 0.0
                free_cpu[s] += amount
                rest = amount
                for o in siblings:
                    take = min(rest, free_cpu[o])
                    load[o, a] += take
                    free_cpu[o] -= take
                    rest -= take
                    if rest <= 1e-12:
                        break
