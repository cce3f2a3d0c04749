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
are lossless), so on pods that small the sparse path is bit-identical to
the dense reference; the tiny mega run's golden trace digest
(``e18_mega_faults_seed3``) pins the delegation.  Above the limit
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
it reuses the per-server want sums as its grant sums.

A bulk solve that starts and stops nothing returns the current placement
object itself, with a :class:`SteadySummary` of its multi-instance apps
attached, and the next solve of that object runs round 1 in closed form.
An app with one instance is exact there: its want is ``x / 1 == x``, and
if no server caps the round it is granted ``x`` and left
``x - (0.0 + x) == 0.0``, so it is met and out of every later round, and
its shortfall is ``0.0``.  The later rounds then run over the
multi-instance apps alone, renumbered with their entries kept in entry
order, and add each round's grants into the same per-entry buffer, so
every load and every per-app sum adds the same terms in the same order.
If a server caps round 1, the live-set rounds continue from its state
over every entry.

The start loop's work follows the instances it can start.  A round that
starts nothing writes no state (no residual, free CPU, free memory,
instance count or key), so every round until the next one that starts
an instance sees the same state.  The starved apps and open servers are
therefore sorted again only after a round that started one, and a round
whose rotation offers no server with free memory for the smallest
starved app's VM is skipped; once no open server has that memory, the
loop ends (:func:`_has_room` says why the memory test is conservative
under the admission test's rounding).  Collisions are probed against
the fixed sorted keys of the current placement and a small sorted array
of the keys this solve started, never a copy of all of them.  The stop
pass keeps old and started entries apart and copies the old ones only
when one of them stops; only rescuing an app's last instance puts both
in one array.  ``indptr`` moves by each row's kept starts less its
stops, and the kept starts merge in by key, one ``np.insert`` each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Optional, Tuple

import numpy as np

from repro.placement.greedy import GreedyController
from repro.placement.problem import (
    VALIDATE_ATOL,
    PlacementProblem,
    PlacementSolution,
)

#: Rounds of bulk instance starts per solve; each round gives every
#: still-starved app at most one new instance.  Rounds that provably
#: start nothing (their offered servers lack memory for the smallest
#: starved VM) are skipped, the loop ends once no open server has that
#: memory, and a round that starts nothing costs no re-sort: none of
#: this moves an outcome of the full count of rounds.
START_ROUNDS = 48


#: Largest column id the int32 ``indices`` can hold.
_INT32_MAX = int(np.iinfo(np.int32).max)

#: Spacing of float64 at 1.0.
_EPS = float(np.finfo(float).eps)


class SparsePlacement:
    """Boolean S x A placement matrix in CSR form (implicit True values).

    ``indices[indptr[s]:indptr[s+1]]`` are the app columns placed on server
    ``s``, strictly increasing within each row.  ``indptr`` is int64;
    ``indices`` is int32, half the bytes of the one column per VM a pod
    keeps (a placement whose column ids would not fit is refused, not
    wrapped).  ``np.bincount`` and fancy indexing cast int32 ids to intp
    on every call, several times slower than on intp ids, so a consumer
    that reads ``indices`` more than once casts it once
    (:meth:`cols`) and reuses that copy.
    """

    __slots__ = ("shape", "indptr", "indices", "summary")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        check: bool = True,
    ):
        self.shape = (int(shape[0]), int(shape[1]))
        if self.shape[1] - 1 > _INT32_MAX:
            raise ValueError(
                f"{self.shape[1]} app columns: column ids past {_INT32_MAX} "
                f"do not fit the int32 indices"
            )
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        #: The :class:`SteadySummary` a bulk solve that kept this placement
        #: attached; ``None`` until one did.
        self.summary: Optional[SteadySummary] = None
        if check:
            self._validate()

    def __reduce__(self):
        # The summary is a solve cache: a copy (a pickle shipped to a pool
        # worker, a deep copy) starts without one.
        return (SparsePlacement, (self.shape, self.indptr, self.indices, False))

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
        return cls(dense.shape, indptr, cols, check=False)

    @classmethod
    def from_entries(
        cls,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> Tuple["SparsePlacement", np.ndarray]:
        """Build from (server, app) entry lists in any order; the result is
        always validated.

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
        return cls(shape, indptr, cols), order

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

    def cols(self) -> np.ndarray:
        """``indices`` as intp, for code that indexes or bins by them."""
        return self.indices.astype(np.intp)

    def instance_counts(self) -> np.ndarray:
        return np.bincount(self.cols(), minlength=self.shape[1])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=bool)
        out[self.rows(), self.cols()] = True
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
            np.zeros(0, dtype=np.int32),
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
            self.placement.cols(),
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

    def validate(self, problem: PlacementProblem) -> None:
        """Sparse hard-constraint check (mirrors PlacementSolution)."""
        cur = problem.current
        if self.placement.shape != cur.shape:
            raise ValueError("placement shape mismatch")
        if (self.load < -VALIDATE_ATOL).any():
            raise ValueError("negative load assignment")
        if (self.server_load() > problem.server_cpu + VALIDATE_ATOL).any():
            raise ValueError("server CPU capacity exceeded")
        if not problem.placement_feasible(self.placement):
            raise ValueError("server memory capacity exceeded")
        if (self.satisfied() > problem.app_cpu_demand + VALIDATE_ATOL).any():
            raise ValueError("app served more than its demand")
        if problem.max_instances is not None:
            if (self.placement.instance_counts() > problem.max_instances).any():
                raise ValueError("per-app instance cap exceeded")


class SteadySummary(NamedTuple):
    """What a repeat solve of one unchanged placement reuses.

    Built by :meth:`of` when a bulk solve hands the current placement back
    unchanged.  An app with one instance needs no entry list of its own
    (its want is its demand); only the apps with two or more instances,
    their entries and the apps with none are kept, all int32.
    """

    #: Entry ids of apps with at least 2 instances, ascending.
    entries: np.ndarray
    #: Each such entry's app as an index into ``apps``.
    local: np.ndarray
    #: The apps with at least 2 instances, ascending.
    apps: np.ndarray
    #: Their instance counts.
    counts: np.ndarray
    #: The apps with no instance.
    absent: np.ndarray

    @classmethod
    def of(cls, cols: np.ndarray, counts: np.ndarray) -> "SteadySummary":
        """Summary of a placement whose entry columns are *cols*, with
        per-app instance counts *counts*."""
        multi = counts > 1
        apps = np.flatnonzero(multi)
        entries = np.flatnonzero(multi[cols])
        return cls(
            entries=entries.astype(np.int32),
            local=np.searchsorted(apps, cols[entries]).astype(np.int32),
            apps=apps.astype(np.int32),
            counts=counts[apps].astype(np.int32),
            absent=np.flatnonzero(counts == 0).astype(np.int32),
        )

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self)

    @staticmethod
    def nbytes_of(counts: np.ndarray) -> int:
        """:attr:`nbytes` of the summary of per-app instance counts
        *counts*, without building it."""
        multi = counts[counts > 1]
        return 4 * (
            2 * int(multi.sum()) + 2 * multi.size + int((counts == 0).sum())
        )


def sparse_waterfill(
    server_cpu: np.ndarray,
    app_cpu_demand: np.ndarray,
    placement: SparsePlacement,
    rounds: int = 12,
    rows: Optional[np.ndarray] = None,
    cols: Optional[np.ndarray] = None,
    counts: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Waterfill over a CSR placement, O(entries still in play) per round.

    Same iterative proportional-filling scheme as
    :func:`repro.placement.greedy.waterfill_load`: each round, every
    unmet app splits its remaining demand evenly over its instances on
    open servers, and each server scales its entries' wants down to its
    free CPU.  Segment sums run over entry lists via ``bincount`` instead
    of dense axis reductions, so the float associativity differs from the
    dense kernel (see module docstring).  *rows*, *cols* and *counts* are
    ``placement.rows()``, ``placement.cols()`` and the per-app instance
    counts, passed in when the caller already has them.

    Returns ``(load, unmet)``: one load per entry, and each app's demand
    less the sum of its loads, floored at 0.

    A placement with a :class:`SteadySummary` solves round 1 in closed
    form: every want is the app's demand, divided only for the apps with
    several instances.  If no server caps that round, every other app is
    met exactly, and later rounds run over the multi-instance apps alone;
    otherwise the live-set rounds continue from round 1's state over
    every entry.  Loads are bit-identical either way (see module
    docstring).
    """
    s_count, a_count = placement.shape
    if rows is None:
        rows = placement.rows()
    if cols is None:
        cols = placement.cols()
    demand = np.asarray(app_cpu_demand, dtype=float)
    free = np.asarray(server_cpu, dtype=float).copy()
    # Every server holding a live entry is a holder; a holder that lost
    # its entries to met apps has no grants left, so it stays open.
    holders = placement.indptr[1:] > placement.indptr[:-1]
    summary = placement.summary
    if summary is None or rounds < 1 or not (free[holders] > 1e-12).all():
        if counts is None:
            counts = np.bincount(cols, minlength=a_count)
        load = _live_rounds(free, demand, rows, cols, counts, holders, rounds)
        return load, _shortfall(demand, cols, load)

    # Round 1.  A met app's entries take no part: their want is 0.0.
    if a_count and demand.min() > 1e-12:
        live_demand = demand
    else:
        live_demand = np.where(demand > 1e-12, demand, 0.0)
    entries = summary.entries.astype(np.intp)
    local = summary.local.astype(np.intp)
    want = live_demand[cols]  # x / 1 == x
    want[entries] = (live_demand[summary.apps] / summary.counts)[local]
    want_per_server = np.bincount(rows, weights=want, minlength=s_count)
    scale = _scale(want_per_server, free)
    if not ((scale == 1.0) | (want_per_server == 0.0)).all():
        grant = want
        grant *= scale[rows]
        free -= np.bincount(rows, weights=grant, minlength=s_count)
        np.maximum(free, 0.0, out=free)
        remaining = _shortfall(demand, cols, grant)
        counts = np.ones(a_count, dtype=np.intp)
        counts[summary.apps] = summary.counts
        counts[summary.absent] = 0
        load = _live_rounds(
            free, remaining, rows, cols, counts, holders, rounds - 1, load=grant
        )
        return load, _shortfall(demand, cols, load)

    # Every app with one live instance got x - (0.0 + x) == 0.0 left; the
    # later rounds see only the multi-instance apps, renumbered, with
    # their entries in entry order, so each load sums its grants in the
    # same order.
    free -= want_per_server
    np.maximum(free, 0.0, out=free)
    multi_demand = demand[summary.apps]
    remaining = _shortfall(multi_demand, local, want[entries])
    counts = summary.counts.astype(np.intp)
    load = _live_rounds(
        free, remaining, rows[entries], local, counts, holders, rounds - 1,
        load=want, at=entries,
    )
    # A met app's demand less its load: 0.0, or its demand while it had
    # no live want.
    unmet = demand - live_demand
    unmet[summary.apps] = _shortfall(multi_demand, local, load[entries])
    unmet[summary.absent] = demand[summary.absent]
    np.maximum(unmet, 0.0, out=unmet)
    return load, unmet


def _shortfall(
    demand: np.ndarray, cols: np.ndarray, load: np.ndarray
) -> np.ndarray:
    """``max(demand - bincount(cols, load), 0)`` per column, written into
    the sums' buffer: each column's loads are added in entry order."""
    # An empty bincount comes back as integers.
    served = np.bincount(cols, weights=load, minlength=demand.size).astype(
        float, copy=False
    )
    shortfall = np.subtract(demand, served, out=served)
    np.maximum(shortfall, 0.0, out=shortfall)
    return shortfall


def _scale(want_per_server: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Per-server factor scaling the wants down to the free CPU."""
    safe = np.where(want_per_server > 1e-15, want_per_server, 1.0)
    return np.where(want_per_server > 1e-15, np.minimum(1.0, free / safe), 0.0)


def _live_rounds(
    free: np.ndarray,
    remaining: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    counts: np.ndarray,
    holders: np.ndarray,
    rounds: int,
    load: Optional[np.ndarray] = None,
    at: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Up to *rounds* waterfill rounds over the entries ``(rows, cols)``.

    *free* and *holders* are per server and updated in place;
    *remaining* and *counts* (live instances) are per column and never
    written.  Each round's grants are added into *load* at entry ids *at*
    (``None``: every entry, in order); with no *load* the first grant
    becomes it.  Returns the load.

    Only *live* entries — open server, unmet app — take part in a round.
    ``free`` and ``remaining`` only shrink, so each round filters the
    previous round's live set.  Whether every entry is still live is
    decided in O(S + columns): every server that may hold a live entry
    is open, and every column with a live instance is unmet.  Only when
    that fails does an O(entries) filter run, testing just the side that
    failed.  A round in which no server caps its wants grants ``want``
    itself and reuses the per-server want sums.
    """
    s_count = free.size
    n_entries = rows.size
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
            at = np.flatnonzero(in_play) if at is None else at[in_play]
            rows, cols = rows[in_play], cols[in_play]
            counts = np.bincount(cols, minlength=remaining.size)
            holders &= srv_open
        if rows.size == 0:
            break
        # Every live entry's column has a live instance, so no count is 0.
        want = remaining[cols]
        want /= counts[cols]
        want_per_server = np.bincount(rows, weights=want, minlength=s_count)
        scale = _scale(want_per_server, free)
        # A round's wants become its grants in place.
        grant = want
        if ((scale == 1.0) | (want_per_server == 0.0)).all():
            granted = want_per_server
        else:
            grant *= scale[rows]
            granted = np.bincount(rows, weights=grant, minlength=s_count)
        if load is None and at is None:
            # ``0.0 + g == g``: grants are never ``-0.0``.
            load = grant
        elif load is None:
            load = np.zeros(n_entries)
            load[at] = grant
        elif at is None:
            load += grant
        else:
            load[at] += grant
        free -= granted
        np.maximum(free, 0.0, out=free)
        remaining = _shortfall(remaining, cols, grant)
    return np.zeros(n_entries) if load is None else load


def _segment_prefix(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums of *values* restarting wherever the sorted
    *keys* change: each sum is the running total less the total before
    its segment."""
    csum = np.cumsum(values)
    ends = np.flatnonzero(keys[1:] != keys[:-1])
    bounds = np.concatenate(([0], ends + 1, [keys.size]))
    offsets = np.zeros(ends.size + 1)
    offsets[1:] = csum[ends]
    return csum - np.repeat(offsets, bounds[1:] - bounds[:-1])


def _in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of *keys* occur in the ascending array *sorted_keys*."""
    if sorted_keys.size == 0:
        # A freshly restored pod starts with zero placements.
        return np.zeros(keys.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    # A key past the last one lands on the last, which is smaller.
    return sorted_keys[np.minimum(pos, sorted_keys.size - 1)] == keys


def _has_room(free_mem: np.ndarray, app_mem: np.ndarray) -> np.ndarray:
    """Which servers, with free memory *free_mem*, a start round may admit
    a VM of the starved apps, sized *app_mem*, on.  A server left out
    provably admits none.

    A round admits a VM when its memory need is ``<= free + 1e-9``.  The
    first need on a server is the VM's size ``m`` as a difference of
    running sums, ``fl(fl(c + m) - c)`` (:func:`_segment_prefix`), which
    rounds at most ``ulp(c + m) <= eps * (c + m)`` below ``m``; a round
    offers each starved app at most once, so ``c + m`` is at most
    ``app_mem.sum()``, and the later needs on that server are no
    smaller.  With one VM size (the mega pods' 4 GB) every running sum
    is a whole multiple and exact.  The slack covers that bound, the
    float sum of ``app_mem`` and this comparison's own rounding.
    """
    room = free_mem + 1e-9
    slack = 4 * _EPS * (app_mem.sum() + np.abs(room))
    return room + slack >= app_mem.min()


def _first_offer(roomy: np.ndarray, n_apps: int, n_open: int, rnd: int) -> int:
    """The first start round from *rnd* on that offers one of the
    positions *roomy* in the order of the *n_open* open servers: round
    ``r`` offers the ``k``-th of the *n_apps* starved apps to position
    ``(k + r) % n_open``."""
    if n_apps >= n_open:
        return rnd
    ahead = (roomy - rnd) % n_open
    return rnd + max(0, int(ahead.min()) - n_apps + 1)


@dataclass
class SparseGreedyController:
    """Pod controller over CSR placements with a dense reference mode.

    ``S * A <= dense_limit`` delegates to the bit-exact dense
    :class:`GreedyController` kernel; above it, a deterministic O(nnz)
    bulk algorithm runs: sparse waterfill, then round-based bulk instance
    starts (most-starved apps spread over roomiest servers, memory-admitted
    per server in priority order), then idle-instance stops keeping at
    least one instance per placed app; the old entries are copied only to
    drop one, and the kept starts merge into them by key.

    The start rounds re-sort the starved apps and open servers only after
    a round that started an instance, since a round that starts nothing
    changes no state.  For the same reason a round that offers only
    servers without memory for the smallest starved app's VM is skipped,
    and the rounds end once no open server has that memory.
    """

    dense_limit: int = 1 << 22
    name: ClassVar[str] = "greedy-sparse"
    _dense: GreedyController = field(
        default_factory=GreedyController, init=False, repr=False, compare=False
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
        # One intp copy of the int32 columns serves the whole solve.
        cols = cur.cols()
        # A placement without a summary has its instance counts taken
        # once, for the waterfill and for the summary a no-change solve
        # leaves on it.
        n_inst = (
            np.bincount(cols, minlength=a_count) if cur.summary is None else None
        )
        load, residual = sparse_waterfill(
            problem.server_cpu,
            problem.app_cpu_demand,
            cur,
            rows=rows,
            cols=cols,
            counts=n_inst,
        )
        # The starved apps, ascending.  Residuals only fall and instance
        # counts only rise, so the set only shrinks; so does the set of
        # CPU-open servers, since free CPU only falls.  Each re-sort
        # filters the last one's sets instead of every app and server.
        starved = np.flatnonzero(residual > 1e-9)
        new_rows, new_cols, new_load = rows[:0], cols[:0], load[:0]
        # The start loop's state is built only if some app is starved
        # after the waterfill; otherwise the loop's first test ends it.
        if starved.size:
            free_cpu = problem.server_cpu - np.bincount(
                rows, weights=load, minlength=s_count
            )
            np.maximum(free_cpu, 0.0, out=free_cpu)
            free_mem = problem.server_mem - np.bincount(
                rows, weights=problem.app_mem[cols], minlength=s_count
            )
            if n_inst is None:
                n_inst = np.bincount(cols, minlength=a_count)
            up = np.flatnonzero(free_cpu > 1e-9)
            # CSR rows are row-major with strictly increasing columns, so
            # the old entry keys arrive sorted and stay fixed; the keys
            # this solve starts go to a small sorted array of their own,
            # and a candidate is probed against both.
            old_keys = rows * np.int64(a_count) + cols
            new_keys = old_keys[:0]

        # Sorted afresh only after a round that started an instance; a
        # round that offers no server with room is skipped (see the
        # module docstring).
        resort = True
        wait = 0
        for rnd in range(START_ROUNDS):
            if rnd < wait:
                continue
            if resort:
                starved = starved[residual[starved] > 1e-9]
                if problem.max_instances is not None and starved.size:
                    starved = starved[
                        n_inst[starved] < problem.max_instances[starved]
                    ]
                if starved.size == 0:
                    break
                up = up[free_cpu[up] > 1e-9]
                if up.size == 0:
                    break
                room = _has_room(free_mem[up], problem.app_mem[starved])
                if not room.any():
                    break
                needy = starved[np.argsort(-residual[starved], kind="stable")]
                by_cpu = np.argsort(-free_cpu[up], kind="stable")
                open_srv = up[by_cpu]
                # Positions in `open_srv` of the servers with room.
                roomy = np.flatnonzero(room[by_cpu])
                resort = False
            wait = _first_offer(roomy, needy.size, open_srv.size, rnd)
            if wait > rnd:
                continue
            # k-th starved app -> (k + round)-th roomiest open server; the
            # round offset rotates assignments so a (server, app) collision
            # this round resolves to a different server next round.
            srv = open_srv[(np.arange(needy.size) + rnd) % open_srv.size]
            key = srv * np.int64(a_count) + needy
            fresh = ~(_in_sorted(old_keys, key) | _in_sorted(new_keys, key))
            srv, apps = srv[fresh], needy[fresh]
            if srv.size == 0:
                continue
            # Memory admission: within each server, admit in demand-priority
            # order while the running memory sum fits the server's headroom.
            by_srv = np.argsort(srv, kind="stable")
            srv, apps = srv[by_srv], apps[by_srv]
            mem_need = _segment_prefix(problem.app_mem[apps], srv)
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
            # Only the admitted apps' residuals move (each app is offered
            # once a round); the rest are already floored at 0.
            residual[apps] = np.maximum(residual[apps] - grant, 0.0)
            n_inst[apps] += 1
            new_rows = np.concatenate((new_rows, srv))
            new_cols = np.concatenate((new_cols, apps))
            new_load = np.concatenate((new_load, grant))
            # A stable sort of a sorted run and a short tail merges them.
            new_keys = np.concatenate(
                (new_keys, srv * np.int64(a_count) + apps)
            )
            new_keys.sort(kind="stable")
            resort = True

        # Entries with no load stop, old and started ones kept apart.
        keep_old, keep_new = load > 1e-12, new_load > 1e-12
        if not (keep_old.all() and keep_new.all()):
            if n_inst is None:
                n_inst = np.bincount(cols, minlength=a_count)
            kept = np.bincount(cols[keep_old], minlength=a_count)
            kept += np.bincount(new_cols[keep_new], minlength=a_count)
            # n_inst counts every entry, so it marks the placed apps.
            rescue = np.flatnonzero((n_inst > 0) & (kept == 0))
            if rescue.size:
                # Keep the (lowest server, app) entry of each app that
                # would otherwise lose its last instance.
                all_rows = np.concatenate((rows, new_rows))
                all_cols = np.concatenate((cols, new_cols))
                keep = np.concatenate((keep_old, keep_new))
                rescued = np.zeros(a_count, dtype=bool)
                rescued[rescue] = True
                cand = np.flatnonzero(rescued[all_cols])
                cand = cand[np.lexsort((all_rows[cand], all_cols[cand]))]
                keep[cand[np.searchsorted(all_cols[cand], rescue)]] = True
                keep_old, keep_new = keep[: cols.size], keep[cols.size :]

        stops_old = not keep_old.all()
        if not (new_rows.size or stops_old):
            # Nothing started or stopped: the placement is the current one,
            # and the next solve of it reuses its summary.  Its arrays go
            # read-only so that the summary cannot go stale under them.
            # A summary may take a byte per VM (a pod holds twelve): past
            # that most instances belong to multi-instance apps, which the
            # closed form does not skip.
            if (
                cur.summary is None
                and cur.nnz <= _INT32_MAX  # int32 entry ids
                and SteadySummary.nbytes_of(n_inst) <= cur.nnz
            ):
                cur.summary = SteadySummary.of(cols, n_inst)
                cur.indptr.flags.writeable = False
                cur.indices.flags.writeable = False
            wall = time.perf_counter() - t0
            return SparseSolution(cur, load, changes=0, wall_time_s=wall)

        add_rows = new_rows[keep_new]
        per_row = np.bincount(add_rows, minlength=s_count)
        indices, changes = cur.indices, add_rows.size
        if stops_old:
            gone = rows[~keep_old]
            per_row -= np.bincount(gone, minlength=s_count)
            indices, load = indices[keep_old], load[keep_old]
            changes += gone.size
        del rows, cols  # the merge below peaks without them
        indptr = cur.indptr.copy()
        indptr[1:] += np.cumsum(per_row)
        # Kept old entries stay row-major sorted; merge the kept starts in
        # by key (with none started, the loop never built `old_keys`).
        if new_rows.size:
            add_cols = new_cols[keep_new]
            add_keys = add_rows * np.int64(a_count) + add_cols
            by_key = np.argsort(add_keys)
            at = np.searchsorted(
                old_keys[keep_old] if stops_old else old_keys, add_keys[by_key]
            )
            del old_keys
            indices = np.insert(indices, at, add_cols[by_key])
            load = np.insert(load, at, new_load[keep_new][by_key])
        return SparseSolution(
            placement=SparsePlacement(
                (s_count, a_count), indptr, indices, check=False
            ),
            load=load,
            # The collision probe keeps new keys off old ones, so the
            # symmetric difference is old entries dropped + new ones kept.
            changes=changes,
            wall_time_s=time.perf_counter() - t0,
        )
