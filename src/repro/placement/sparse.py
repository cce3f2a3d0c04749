"""Sparse (CSR) placement state for mega-scale pods.

At the paper's headline scale (Section I: ~300k servers, ~300k apps,
~6M VM instances) a dense S x A boolean per pod is already ~500 MB and the
float load matrix ~4 GB — per pod.  But the placement itself is sparse:
each app keeps ~20 instances, so a pod holds ~100k (server, app) entries.
This module stores the placement as a CSR index list (rows = servers) and
re-implements the pod controller's waterfill + instance-start loop as
O(nnz) vectorised segment operations.

Bit-identity contract
---------------------
:class:`SparseGreedyController` delegates to the *exact* dense
:class:`~repro.placement.greedy.GreedyController` kernel whenever
``S * A <= dense_limit`` (densify -> solve -> sparsify; both conversions
are lossless), so at e15 scale the sparse path is bit-identical to the
dense reference and golden trace digests are unchanged.  Above the limit
it switches to the O(nnz) bulk algorithm, which is deterministic but not
float-identical to the dense kernel (numpy's pairwise dense sums and
``bincount``'s sequential sums associate differently).

Within the bulk algorithm, work shrinks with the entries still in play
without moving a bit.  :func:`sparse_waterfill` drops an entry once its
server is full or its app is met; such an entry's want and grant would be
exactly ``0.0``, and since ``bincount`` adds weights in entry order
starting from ``+0.0`` and ``x + 0.0 == x`` for every non-negative ``x``,
every per-server and per-app sum is the same with or without it.  A
round in which no server caps its wants grants ``want * 1.0 == want``, so
it reuses the per-server want sums as its grant sums.  A bulk solve that
starts and stops nothing returns the current placement object itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.placement.greedy import GreedyController
from repro.placement.problem import PlacementProblem, PlacementSolution

#: Rounds of bulk instance starts per solve; each round gives every
#: still-starved app at most one new instance.
START_ROUNDS = 48


class SparsePlacement:
    """Boolean S x A placement matrix in CSR form (implicit True values).

    ``indices[indptr[s]:indptr[s+1]]`` are the app columns placed on server
    ``s``, strictly increasing within each row.
    """

    __slots__ = ("shape", "indptr", "indices")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        check: bool = True,
    ):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if check:
            self._validate()

    def _validate(self) -> None:
        s, a = self.shape
        if self.indptr.shape != (s + 1,):
            raise ValueError("indptr must have n_servers + 1 entries")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("indptr endpoints inconsistent with indices")
        if s and (np.diff(self.indptr) < 0).any():
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= a
        ):
            raise ValueError("app index out of range")
        if self.indices.size > 1:
            d = np.diff(self.indices)
            boundary = np.zeros(self.indices.size - 1, dtype=bool)
            starts = self.indptr[1:-1]
            starts = starts[(starts > 0) & (starts < self.indices.size)]
            boundary[starts - 1] = True
            if (d[~boundary] <= 0).any():
                raise ValueError("row entries must be strictly increasing")

    # -- constructors -------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparsePlacement":
        dense = np.asarray(dense, dtype=bool)
        rows, cols = np.nonzero(dense)  # row-major: sorted rows, cols in-row
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(rows, minlength=dense.shape[0]), out=indptr[1:]
        )
        return cls(dense.shape, indptr, cols.astype(np.int64), check=False)

    @classmethod
    def from_entries(
        cls,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        check: bool = True,
    ) -> Tuple["SparsePlacement", np.ndarray]:
        """Build from (server, app) entry lists in any order.

        Returns ``(placement, order)`` where ``order`` is the permutation
        that row-major-sorted the entries — apply it to any per-entry
        payload (e.g. loads) to keep it aligned with ``indices``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        order = np.lexsort((cols, rows))
        rows = rows[order]
        cols = cols[order]
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(shape, indptr, cols, check=check), order

    # -- ndarray-ish surface ------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    # -- views --------------------------------------------------------
    def rows(self) -> np.ndarray:
        """Per-entry server index (aligned with ``indices``)."""
        return np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )

    def instance_counts(self) -> np.ndarray:
        return np.bincount(self.indices, minlength=self.shape[1])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=bool)
        out[self.rows(), self.indices] = True
        return out

    # -- row surgery (mega-scale fault paths) -------------------------
    def drop_row(self, r: int) -> Tuple["SparsePlacement", np.ndarray]:
        """Remove server row *r* entirely (the server left the pod).

        Returns ``(placement, kept)`` where ``kept`` is the boolean mask
        of surviving entries — apply it to any per-entry payload (loads)
        to keep it aligned.  Rows above *r* shift down by one, mirroring
        ``Pod.remove_server`` renumbering in the object model.
        """
        s, _a = self.shape
        if not 0 <= r < s:
            raise IndexError(f"row {r} out of range for {s} servers")
        lo, hi = int(self.indptr[r]), int(self.indptr[r + 1])
        kept = np.ones(self.nnz, dtype=bool)
        kept[lo:hi] = False
        indptr = np.concatenate(
            [self.indptr[: r + 1], self.indptr[r + 2 :] - (hi - lo)]
        )
        return (
            SparsePlacement(
                (s - 1, self.shape[1]), indptr, self.indices[kept], check=False
            ),
            kept,
        )

    def insert_empty_row(self, r: int) -> "SparsePlacement":
        """Insert an empty server row at index *r* (a server rejoined);
        entry payloads stay aligned since no entry is added."""
        s, _a = self.shape
        if not 0 <= r <= s:
            raise IndexError(f"insert position {r} out of range")
        indptr = np.insert(self.indptr, r, self.indptr[r])
        return SparsePlacement(
            (s + 1, self.shape[1]), indptr, self.indices, check=False
        )

    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "SparsePlacement":
        """An all-False placement (every VM of the pod is gone)."""
        return cls(
            shape,
            np.zeros(shape[0] + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            check=False,
        )


@dataclass
class SparseSolution:
    """CSR analogue of :class:`PlacementSolution`.

    ``load`` holds one float per placement entry, aligned with
    ``placement.indices``.
    """

    placement: SparsePlacement
    load: np.ndarray
    changes: int = 0
    wall_time_s: float = 0.0

    def satisfied(self) -> np.ndarray:
        return np.bincount(
            self.placement.indices,
            weights=self.load,
            minlength=self.placement.shape[1],
        )

    def server_load(self) -> np.ndarray:
        return np.bincount(
            self.placement.rows(),
            weights=self.load,
            minlength=self.placement.shape[0],
        )

    @classmethod
    def from_dense(cls, sol: PlacementSolution) -> "SparseSolution":
        placement = SparsePlacement.from_dense(sol.placement)
        # Boolean-mask selection is row-major, i.e. aligned with `indices`.
        load = np.ascontiguousarray(sol.load[sol.placement], dtype=float)
        return cls(
            placement=placement,
            load=load,
            changes=sol.changes,
            wall_time_s=sol.wall_time_s,
        )

    def validate(self, problem: PlacementProblem, atol: float = 1e-6) -> None:
        """Sparse hard-constraint check (mirrors PlacementSolution)."""
        cur = problem.current
        if self.placement.shape != cur.shape:
            raise ValueError("placement shape mismatch")
        if (self.load < -atol).any():
            raise ValueError("negative load assignment")
        if (self.server_load() > problem.server_cpu + atol).any():
            raise ValueError("server CPU capacity exceeded")
        mem = np.bincount(
            self.placement.rows(),
            weights=problem.app_mem[self.placement.indices],
            minlength=self.placement.shape[0],
        )
        if (mem > problem.server_mem + 1e-9).any():
            raise ValueError("server memory capacity exceeded")
        if (self.satisfied() > problem.app_cpu_demand + atol).any():
            raise ValueError("app served more than its demand")
        if problem.max_instances is not None:
            if (self.placement.instance_counts() > problem.max_instances).any():
                raise ValueError("per-app instance cap exceeded")


def sparse_waterfill(
    server_cpu: np.ndarray,
    app_cpu_demand: np.ndarray,
    placement: SparsePlacement,
    rounds: int = 12,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Waterfill over a CSR placement, O(entries still in play) per round.

    Same iterative proportional-filling scheme as
    :func:`repro.placement.greedy.waterfill_load`: each round, every
    unmet app splits its remaining demand evenly over its instances on
    open servers, and each server scales its entries' wants down to its
    free CPU.  Segment sums run over entry lists via ``bincount`` instead
    of dense axis reductions, so the float associativity differs from the
    dense kernel (see module docstring).  *rows* is ``placement.rows()``,
    passed in when the caller already has it.

    Only *live* entries — open server, unmet app — take part in a round.
    ``free`` and ``remaining`` only shrink, so each round filters the
    previous round's live set.  Whether every entry is still live is
    decided in O(S + A): every server that may hold a live entry is
    open, and every app with a live instance is unmet.  Only when that
    fails does an O(entries) filter run, testing just the side that
    failed.  A round in which no server caps its wants grants ``want``
    itself and reuses the per-server want sums.  Loads are bit-identical
    to walking every entry every round: a dead entry's want and grant
    would be exactly ``0.0`` (see module docstring).
    """
    s_count, a_count = placement.shape
    if rows is None:
        rows = placement.rows()
    cols = placement.indices
    n_entries = cols.size
    remaining = np.asarray(app_cpu_demand, dtype=float).copy()
    free = np.asarray(server_cpu, dtype=float).copy()
    load = None  # the first grant, once a round has made one
    live = None  # entry ids of the live set; None while it is every entry
    # Every server holding a live entry is a holder; a holder that lost
    # its entries to met apps has no grants left, so it stays open.
    holders = placement.indptr[1:] > placement.indptr[:-1]
    counts = np.bincount(cols, minlength=a_count)  # live instances per app
    per_app_want = np.zeros(a_count)
    for _ in range(rounds):
        srv_open = free > 1e-12
        app_unmet = remaining > 1e-12
        if not app_unmet.any() or not srv_open.any():
            break
        srv_ok = srv_open[holders].all()
        app_ok = (app_unmet | (counts == 0)).all()
        if not (srv_ok and app_ok):
            if srv_ok:
                in_play = app_unmet[cols]
            elif app_ok:
                in_play = srv_open[rows]
            else:
                in_play = srv_open[rows] & app_unmet[cols]
            live = np.flatnonzero(in_play) if live is None else live[in_play]
            rows, cols = rows[in_play], cols[in_play]
            counts = np.bincount(cols, minlength=a_count)
            holders &= srv_open
        if rows.size == 0:
            break
        np.divide(remaining, counts, out=per_app_want, where=counts > 0)
        want = per_app_want[cols]
        want_per_server = np.bincount(rows, weights=want, minlength=s_count)
        safe = np.where(want_per_server > 1e-15, want_per_server, 1.0)
        scale = np.where(
            want_per_server > 1e-15, np.minimum(1.0, free / safe), 0.0
        )
        if ((scale == 1.0) | (want_per_server == 0.0)).all():
            grant, granted = want, want_per_server
        else:
            grant = want * scale[rows]
            granted = np.bincount(rows, weights=grant, minlength=s_count)
        if load is None and live is None:
            # ``0.0 + g == g``: grants are never ``-0.0``.
            load = grant
        elif load is None:
            load = np.zeros(n_entries)
            load[live] = grant
        elif live is None:
            load += grant
        else:
            load[live] += grant
        free -= granted
        np.maximum(free, 0.0, out=free)
        remaining -= np.bincount(cols, weights=grant, minlength=a_count)
        np.maximum(remaining, 0.0, out=remaining)
    return np.zeros(n_entries) if load is None else load


def _segment_prefix(values: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums restarting at each segment start index."""
    csum = np.cumsum(values)
    offsets = np.where(seg_starts > 0, csum[seg_starts - 1], 0.0)
    lengths = np.diff(np.append(seg_starts, values.shape[0]))
    return csum - np.repeat(offsets, lengths)


@dataclass
class SparseGreedyController:
    """Pod controller over CSR placements with a dense reference mode.

    ``S * A <= dense_limit`` delegates to the bit-exact dense
    :class:`GreedyController` kernel; above it, a deterministic O(nnz)
    bulk algorithm runs: sparse waterfill, then round-based bulk instance
    starts (most-starved apps spread over roomiest servers, memory-admitted
    per server in priority order), then idle-instance stops keeping at
    least one instance per placed app.
    """

    stop_idle: bool = True
    dense_limit: int = 1 << 22
    name: str = "greedy-sparse"
    _dense: Optional[GreedyController] = field(
        default=None, init=False, repr=False, compare=False
    )

    def solve(self, problem: PlacementProblem) -> SparseSolution:
        if problem.n_servers * problem.n_apps <= self.dense_limit:
            return self._solve_dense(problem)
        return self._solve_bulk(problem)

    # -- reference mode ----------------------------------------------
    def _solve_dense(self, problem: PlacementProblem) -> SparseSolution:
        t0 = time.perf_counter()
        cur = problem.current
        dense_cur = cur.to_dense() if isinstance(cur, SparsePlacement) else cur
        dense_problem = PlacementProblem(
            server_cpu=problem.server_cpu,
            server_mem=problem.server_mem,
            app_cpu_demand=problem.app_cpu_demand,
            app_mem=problem.app_mem,
            current=dense_cur,
            max_instances=problem.max_instances,
        )
        if self._dense is None:
            self._dense = GreedyController(stop_idle=self.stop_idle)
        sol = SparseSolution.from_dense(self._dense.solve(dense_problem))
        sol.wall_time_s = time.perf_counter() - t0
        return sol

    # -- bulk mode ----------------------------------------------------
    def _solve_bulk(self, problem: PlacementProblem) -> SparseSolution:
        t0 = time.perf_counter()
        cur = problem.current
        if not isinstance(cur, SparsePlacement):
            cur = SparsePlacement.from_dense(cur)
        s_count, a_count = cur.shape
        rows = cur.rows()
        cols = cur.indices
        load = sparse_waterfill(
            problem.server_cpu, problem.app_cpu_demand, cur, rows=rows
        )
        residual = problem.app_cpu_demand - np.bincount(
            cols, weights=load, minlength=a_count
        )
        np.maximum(residual, 0.0, out=residual)
        new_rows, new_cols, new_load = [], [], []
        n_inst = None
        # The start loop's state is built only if some app is still
        # starved after the waterfill; otherwise the loop's first test
        # ends it before the state is read.
        if (residual > 1e-9).any():
            free_cpu = problem.server_cpu - np.bincount(
                rows, weights=load, minlength=s_count
            )
            np.maximum(free_cpu, 0.0, out=free_cpu)
            free_mem = problem.server_mem - np.bincount(
                rows, weights=problem.app_mem[cols], minlength=s_count
            )
            n_inst = cur.instance_counts()
            # CSR rows are row-major with strictly increasing columns, so
            # the entry keys arrive sorted; each round merges its few new
            # keys in, keeping every set operation O(nnz) per pod.
            old_keys = rows * np.int64(a_count) + cols
            key_sorted = old_keys

        for rnd in range(START_ROUNDS):
            needy = np.flatnonzero(residual > 1e-9)
            if problem.max_instances is not None and needy.size:
                needy = needy[n_inst[needy] < problem.max_instances[needy]]
            if needy.size == 0:
                break
            needy = needy[np.argsort(-residual[needy], kind="stable")]
            open_srv = np.flatnonzero(free_cpu > 1e-9)
            if open_srv.size == 0:
                break
            open_srv = open_srv[np.argsort(-free_cpu[open_srv], kind="stable")]
            # k-th starved app -> (k + round)-th roomiest open server; the
            # round offset rotates assignments so a (server, app) collision
            # this round resolves to a different server next round.
            srv = open_srv[(np.arange(needy.size) + rnd) % open_srv.size]
            key = srv * np.int64(a_count) + needy
            if key_sorted.size:
                pos = np.searchsorted(key_sorted, key)
                exists = (pos < key_sorted.size) & (
                    key_sorted[np.minimum(pos, key_sorted.size - 1)] == key
                )
            else:
                # A freshly restored pod starts with zero placements —
                # nothing can collide.
                exists = np.zeros(key.shape, dtype=bool)
            srv, apps = srv[~exists], needy[~exists]
            if srv.size == 0:
                continue
            # Memory admission: within each server, admit in demand-priority
            # order while the running memory sum fits the server's headroom.
            by_srv = np.argsort(srv, kind="stable")
            srv, apps = srv[by_srv], apps[by_srv]
            seg_starts = np.flatnonzero(np.diff(srv, prepend=srv[0] - 1))
            mem_need = _segment_prefix(problem.app_mem[apps], seg_starts)
            admit = mem_need <= free_mem[srv] + 1e-9
            srv, apps = srv[admit], apps[admit]
            if srv.size == 0:
                continue
            per_srv = np.bincount(srv, minlength=s_count)
            grant = np.minimum(residual[apps], free_cpu[srv] / per_srv[srv])
            np.maximum(grant, 0.0, out=grant)
            free_cpu -= np.bincount(srv, weights=grant, minlength=s_count)
            np.maximum(free_cpu, 0.0, out=free_cpu)
            free_mem -= np.bincount(
                srv, weights=problem.app_mem[apps], minlength=s_count
            )
            residual[apps] -= grant
            np.maximum(residual, 0.0, out=residual)
            n_inst[apps] += 1
            new_rows.append(srv)
            new_cols.append(apps)
            new_load.append(grant)
            new_keys = np.sort(srv * np.int64(a_count) + apps)
            key_sorted = np.insert(
                key_sorted, np.searchsorted(key_sorted, new_keys), new_keys
            )

        n_old = cols.size
        all_rows = np.concatenate([rows] + new_rows) if new_rows else rows
        all_cols = np.concatenate([cols] + new_cols) if new_cols else cols
        all_load = np.concatenate([load] + new_load) if new_load else load

        if not self.stop_idle:
            keep = np.ones(all_load.size, dtype=bool)
        else:
            keep = all_load > 1e-12
            # An all-true mask keeps every app's instances: no rescue.
            if not keep.all():
                if n_inst is None:
                    n_inst = cur.instance_counts()
                kept_counts = np.bincount(all_cols[keep], minlength=a_count)
                # n_inst == bincount(all_cols) here, so it marks the
                # placed apps.
                rescue = np.flatnonzero((n_inst > 0) & (kept_counts == 0))
                if rescue.size:
                    # Keep the (lowest server, app) entry of each app that
                    # would otherwise lose its last instance.
                    rescued = np.zeros(a_count, dtype=bool)
                    rescued[rescue] = True
                    cand = np.flatnonzero(rescued[all_cols])
                    cand = cand[np.lexsort((all_rows[cand], all_cols[cand]))]
                    keep[cand[np.searchsorted(all_cols[cand], rescue)]] = True

        if not new_rows and keep.all():
            # Nothing started or stopped: the placement is the current one.
            solution = SparseSolution(placement=cur, load=load, changes=0)
            solution.wall_time_s = time.perf_counter() - t0
            return solution

        # Surviving old entries stay row-major sorted; merge the kept new
        # entries in by key.  With nothing started there is nothing to
        # merge (and the start loop never built `old_keys`).
        keep_old, keep_new = keep[:n_old], keep[n_old:]
        add_cols = all_cols[n_old:][keep_new]
        add_keys = all_rows[n_old:][keep_new] * np.int64(a_count) + add_cols
        by_key = np.argsort(add_keys)
        at = (
            np.searchsorted(old_keys[keep_old], add_keys[by_key])
            if new_rows
            else np.zeros(0, dtype=np.intp)
        )
        indptr = np.zeros(s_count + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(all_rows[keep], minlength=s_count), out=indptr[1:]
        )
        placement = SparsePlacement(
            (s_count, a_count),
            indptr,
            np.insert(cols[keep_old], at, add_cols[by_key]),
            check=False,
        )
        solution = SparseSolution(
            placement=placement,
            load=np.insert(
                load[keep_old], at, all_load[n_old:][keep_new][by_key]
            ),
            # The `exists` probe keeps new keys off old ones, so the
            # symmetric difference is old entries dropped + new ones kept.
            changes=int(n_old - keep_old.sum()) + add_keys.size,
            wall_time_s=0.0,
        )
        solution.wall_time_s = time.perf_counter() - t0
        return solution
