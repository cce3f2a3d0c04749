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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.placement.greedy import GreedyController
from repro.placement.problem import PlacementProblem, PlacementSolution


class SparsePlacement:
    """Boolean S x A placement matrix in CSR form (implicit True values).

    ``indices[indptr[s]:indptr[s+1]]`` are the app columns placed on server
    ``s``, strictly increasing within each row.  ``shape``, ``tobytes``
    and ``nbytes`` mirror the ndarray surface, so solution CRCs treat
    dense and CSR placements alike.
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

    @property
    def nbytes(self) -> int:
        return int(self.indptr.nbytes + self.indices.nbytes)

    def tobytes(self) -> bytes:
        header = np.asarray(self.shape, dtype=np.int64).tobytes()
        return header + self.indptr.tobytes() + self.indices.tobytes()

    # -- views --------------------------------------------------------
    def rows(self) -> np.ndarray:
        """Per-entry server index (aligned with ``indices``)."""
        return np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )

    def keys(self) -> np.ndarray:
        """Sorted flat entry keys ``server * A + app``."""
        return self.rows() * np.int64(self.shape[1]) + self.indices

    def row(self, s: int) -> np.ndarray:
        return self.indices[self.indptr[s] : self.indptr[s + 1]]

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

    def equals(self, other: "SparsePlacement") -> bool:
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparsePlacement(shape={self.shape}, nnz={self.nnz})"


def sparse_count_changes(before: SparsePlacement, after: SparsePlacement) -> int:
    """Placement churn (starts + stops) between two CSR placements."""
    kb, ka = before.keys(), after.keys()
    common = np.intersect1d(kb, ka, assume_unique=True).size
    return int(kb.size + ka.size - 2 * common)


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

    def to_dense(self) -> PlacementSolution:
        rows = self.placement.rows()
        placement = self.placement.to_dense()
        load = np.zeros(self.placement.shape)
        load[rows, self.placement.indices] = self.load
        return PlacementSolution(
            placement=placement,
            load=load,
            changes=self.changes,
            wall_time_s=self.wall_time_s,
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
) -> np.ndarray:
    """O(nnz)-per-round waterfill over a CSR placement.

    Same iterative proportional-filling scheme as
    :func:`repro.placement.greedy.waterfill_load`; segment sums run over
    entry lists via ``bincount`` instead of dense axis reductions, so the
    float associativity differs (see module docstring).
    """
    s_count, a_count = placement.shape
    rows = placement.rows()
    cols = placement.indices
    load = np.zeros(rows.shape[0])
    remaining = np.asarray(app_cpu_demand, dtype=float).copy()
    free = np.asarray(server_cpu, dtype=float).copy()
    for _ in range(rounds):
        entry_open = free[rows] > 1e-12
        counts = np.bincount(cols[entry_open], minlength=a_count)
        active = (remaining > 1e-12) & (counts > 0)
        if not active.any():
            break
        entry_act = entry_open & active[cols]
        want = np.zeros_like(load)
        act_cols = cols[entry_act]
        want[entry_act] = remaining[act_cols] / counts[act_cols]
        want_per_server = np.bincount(rows, weights=want, minlength=s_count)
        safe = np.where(want_per_server > 1e-15, want_per_server, 1.0)
        scale = np.where(
            want_per_server > 1e-15, np.minimum(1.0, free / safe), 0.0
        )
        grant = want * scale[rows]
        load += grant
        free -= np.bincount(rows, weights=grant, minlength=s_count)
        np.maximum(free, 0.0, out=free)
        remaining -= np.bincount(cols, weights=grant, minlength=a_count)
        np.maximum(remaining, 0.0, out=remaining)
    return load


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
    packing: bool = False
    dense_limit: int = 1 << 22
    rounds: int = 12
    start_rounds: int = 48
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
            self._dense = GreedyController(
                stop_idle=self.stop_idle, packing=self.packing
            )
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
            problem.server_cpu, problem.app_cpu_demand, cur, rounds=self.rounds
        )
        residual = problem.app_cpu_demand - np.bincount(
            cols, weights=load, minlength=a_count
        )
        np.maximum(residual, 0.0, out=residual)
        free_cpu = problem.server_cpu - np.bincount(
            rows, weights=load, minlength=s_count
        )
        np.maximum(free_cpu, 0.0, out=free_cpu)
        free_mem = problem.server_mem - np.bincount(
            rows, weights=problem.app_mem[cols], minlength=s_count
        )
        n_inst = cur.instance_counts()

        key_sorted = np.sort(rows * np.int64(a_count) + cols)
        new_rows, new_cols, new_load = [], [], []

        for rnd in range(self.start_rounds):
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
            key_sorted = np.sort(
                np.concatenate([key_sorted, srv * np.int64(a_count) + apps])
            )

        all_rows = np.concatenate([rows] + new_rows) if new_rows else rows
        all_cols = np.concatenate([cols] + new_cols) if new_cols else cols
        all_load = np.concatenate([load] + new_load) if new_load else load

        if self.stop_idle and all_load.size:
            keep = all_load > 1e-12
            kept_counts = np.bincount(
                all_cols[keep], minlength=a_count
            )
            placed_apps = np.unique(all_cols)
            rescue = placed_apps[kept_counts[placed_apps] == 0]
            if rescue.size:
                # Keep the (lowest server, app) entry of each app that
                # would otherwise lose its last instance.
                order = np.lexsort((all_rows, all_cols))
                first = order[np.searchsorted(all_cols[order], rescue)]
                keep[first] = True
            all_rows, all_cols, all_load = (
                all_rows[keep],
                all_cols[keep],
                all_load[keep],
            )

        placement, order = SparsePlacement.from_entries(
            (s_count, a_count), all_rows, all_cols, check=False
        )
        solution = SparseSolution(
            placement=placement,
            load=np.ascontiguousarray(all_load[order]),
            changes=sparse_count_changes(cur, placement),
            wall_time_s=0.0,
        )
        solution.wall_time_s = time.perf_counter() - t0
        return solution
