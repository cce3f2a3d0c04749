"""Vectorized weighted-DNS tables with columnar TTL caches.

One :class:`VectorizedDnsTable` replaces an authority plus a whole
resolver population on the hot path: per-app VIP weight vectors become
the segments of one flat CDF in CSR order (each built through the
shared :func:`repro.dns.policy.weighted_cdf`, so a batched count is
bit-identical to the scalar ``AuthoritativeDNS.resolve``), with a row per
app in a :func:`~repro.dns.policy.pick_table` that a cache miss reads
its answer from (:func:`~repro.dns.policy.table_pick`); a K1
:meth:`~VectorizedDnsTable.set_weights` rewrites one app's slice and
row.  Every resolver's TTL cache becomes one row of a
``(n_resolvers, n_apps)`` cache instead of a per-resolver dict.  A cell
is one 8-byte record ``(gen int32, vip int32)``: ``vip`` is the cached
answer's slot and ``gen`` numbers the write time in a small per-table
array of write times (generation 0 is "never", at ``-inf``), so a cell's
expiry is ``write_time[gen] + ttl_eff[resolver]`` — the very float sum a
write would have stored.  A batch addresses the cells through flat ids
``resolver * n_apps + app`` and reads each request's record in one
gather, whatever the number of apps in the batch.

Sequential-equivalence contract (what the differential harness proves):
resolving a batch of requests must behave exactly as if each request were
processed one at a time through an object resolver —

* a request whose cache cell is fresh (``now < expires``) is a hit and
  keeps the cached VIP, leaving its ``u_dns`` unconsumed;
* the **first** stale occurrence of each ``(resolver, app)`` pair in the
  batch draws a fresh answer with its own ``u_dns`` and writes the cache;
* later occurrences of the same pair in the same batch then *hit* that
  fresh entry (positive TTL) — unless the TTL is zero, in which case the
  entry is already expired and every occurrence draws independently.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.dns.policy import pick_bins, pick_table, table_pick, weighted_cdf

#: One cache cell: the write generation and the cached VIP slot.
_CELL = np.dtype([("gen", np.int32), ("vip", np.int32)])
_GEN_CAPACITY = 64
_MAX_GEN = np.iinfo(np.int32).max


def _pack(gen, vip) -> np.ndarray:
    """Cell records ``(gen, vip)`` (broadcast) as the ``int64`` words the
    cache is read and written in."""
    rec = np.empty(np.broadcast(gen, vip).shape, dtype=_CELL)
    rec["gen"] = gen
    rec["vip"] = vip
    return rec.view(np.int64)


class VectorizedDnsTable:
    """Columnar authority + resolver-population cache for a fixed app set.

    ``apps`` fixes the app slots; ``zones[app]`` maps VIP name → weight
    (the VIP *set* is fixed at construction, weights change via
    :meth:`set_weights` — the K1 re-steer path).  VIPs are name-sorted
    within each app's segment, matching ``AuthoritativeDNS``'s record
    order, and get global *slots* ``vip_indptr[a] + offset``.

    The resolvers' cache is one 8-byte ``(gen, vip)`` record per flat
    cell, read and written as whole ``int64`` words; ``vip`` is -1 before
    the cell's first answer, and the cell expires at
    ``_gen_t[gen] + ttl_eff[resolver]``.
    """

    def __init__(
        self,
        apps: Sequence[str],
        zones: Mapping[str, Mapping[str, float]],
        n_resolvers: int,
        ttl_s: float,
        violators: Optional[np.ndarray] = None,
        violation_factor: float = 10.0,
    ):
        if ttl_s < 0:
            raise ValueError("ttl_s must be non-negative")
        if violation_factor < 1:
            raise ValueError("violation_factor must be >= 1")
        self.apps = list(apps)
        self.n_apps = len(self.apps)
        self.n_resolvers = int(n_resolvers)
        self.ttl_s = float(ttl_s)
        self.violation_factor = float(violation_factor)
        self._app_slot = {a: i for i, a in enumerate(self.apps)}
        counts = np.zeros(self.n_apps, dtype=np.int64)
        names: list[str] = []
        for i, app in enumerate(self.apps):
            zone = zones[app]
            if not zone:
                raise ValueError(f"app {app}: empty VIP set")
            vips = sorted(zone)
            counts[i] = len(vips)
            names.extend(vips)
        self.vip_indptr = np.zeros(self.n_apps + 1, dtype=np.int64)
        np.cumsum(counts, out=self.vip_indptr[1:])
        self.vip_names = names
        self.weights = np.zeros(len(names))
        #: ``cdf[vip_indptr[a]:vip_indptr[a + 1]]`` is app ``a``'s VIP CDF.
        self.cdf = np.zeros(len(names))
        for i, app in enumerate(self.apps):
            self._rebuild_segment(i, zones[app])
        #: Row ``a`` is app ``a``'s :func:`~repro.dns.policy.pick_table`.
        self.pick = pick_table(
            self.cdf, self.vip_indptr, pick_bins(int(counts.max(initial=0)))
        )
        self.weight_updates = 0
        # -- resolver population cache columns -------------------------
        if violators is None:
            violators = np.zeros(self.n_resolvers, dtype=bool)
        violators = np.asarray(violators, dtype=bool)
        if violators.shape != (self.n_resolvers,):
            raise ValueError("violators mask must align with resolvers")
        self.ttl_eff = self.ttl_s * np.where(violators, violation_factor, 1.0)
        self._cells = np.empty(self.n_resolvers * self.n_apps, dtype=_CELL)
        #: The cells as one ``int64`` word each: a gather or a scatter
        #: moves a whole record at once.
        self._words = self._cells.view(np.int64)
        self._words.fill(_pack(0, -1))  # generation 0: never written
        #: ``_gen_t[g]`` is generation ``g``'s write time; the first
        #: ``_n_gens`` are in use.
        self._gen_t = np.full(_GEN_CAPACITY, -np.inf)
        self._n_gens = 1
        self.cache_hits = 0
        self.cache_misses = 0

    def _generation(self, now: float) -> int:
        """The generation that records a write at *now*: the latest one if
        it was written at *now* too, else a new one."""
        g = self._n_gens - 1
        if g > 0 and self._gen_t[g] == now:
            return g
        g += 1
        if g > _MAX_GEN:
            raise OverflowError("more DNS cache write times than int32 holds")
        if g == self._gen_t.size:
            self._gen_t = np.concatenate([self._gen_t, np.empty_like(self._gen_t)])
        self._gen_t[g] = now
        self._n_gens = g + 1
        return g

    # -- configuration (K1 surface) -----------------------------------
    def _rebuild_segment(self, slot: int, zone: Mapping[str, float]) -> None:
        lo, hi = int(self.vip_indptr[slot]), int(self.vip_indptr[slot + 1])
        vips = self.vip_names[lo:hi]
        if sorted(zone) != vips:
            raise ValueError(
                f"app {self.apps[slot]}: VIP set changed "
                f"({sorted(zone)} != {vips})"
            )
        w = np.asarray([zone[v] for v in vips], dtype=float)
        if (w < 0).any() or w.sum() <= 0:
            raise ValueError(f"app {self.apps[slot]}: bad weight vector")
        self.weights[lo:hi] = w
        self.cdf[lo:hi] = weighted_cdf(w)

    def set_weights(self, app: str, weights: Mapping[str, float]) -> None:
        """K1 re-steer: replace one app's VIP weight vector, and its row
        of the pick table, in place."""
        slot = self._app_slot[app]
        self._rebuild_segment(slot, weights)
        lo, hi = self.vip_indptr[slot : slot + 2]
        bins = self.pick.shape[1] - 1
        self.pick[slot] = pick_table(self.cdf[lo:hi], [0, hi - lo], bins)[0]
        self.weight_updates += 1

    def zone(self, app: str) -> dict[str, float]:
        slot = self._app_slot[app]
        lo, hi = int(self.vip_indptr[slot]), int(self.vip_indptr[slot + 1])
        return {
            v: float(self.weights[lo + i])
            for i, v in enumerate(self.vip_names[lo:hi])
        }

    # -- resolution ---------------------------------------------------
    def resolve_batch(
        self,
        resolver: np.ndarray,
        app: np.ndarray,
        u_dns: np.ndarray,
        now: float,
    ) -> np.ndarray:
        """Resolve one request batch; returns each request's VIP slot
        (``int32``).

        Mutates the cache exactly as the equivalent sequence of scalar
        ``Resolver.lookup`` calls would (see the module docstring for the
        within-batch duplicate semantics).
        """
        n = resolver.shape[0]
        rec = self._words.take(resolver * np.int64(self.n_apps) + app).view(_CELL)
        # Every request reads its cell's answer; the misses' are
        # overwritten below.
        out = rec["vip"]
        # Each cell's expiry, summed as a write at its time would sum it.
        miss = np.flatnonzero(
            ~(now < self._gen_t[rec["gen"]] + self.ttl_eff.take(resolver))
        )
        hits = n - miss.size
        if miss.size == 0:
            self.cache_hits += hits
            return out
        miss_cell = resolver[miss] * np.int64(self.n_apps)
        miss_cell += app[miss]
        if self.ttl_s > 0:
            # Only the first occurrence of each (resolver, app) cell
            # queries; the rest hit the entry it caches.  Every missed
            # cell is rewritten below, so its stale record can first hold,
            # as its ``vip``, the lowest batch position that missed it.
            self._words[miss_cell] = _pack(0, n)
            vip = self._cells["vip"]
            np.minimum.at(vip, miss_cell, miss.astype(np.int32))
            first = vip[miss_cell]
            is_first = first == miss
            draw, cells_d = miss[is_first], miss_cell[is_first]
        else:
            draw, cells_d = miss, miss_cell
        del miss_cell  # 8 bytes a miss, of no use past the scan
        apps_d = app[draw]
        chosen = self.vip_indptr[apps_d] + table_pick(
            self.pick, self.cdf, self.vip_indptr, apps_d, u_dns[draw]
        )
        out[draw] = chosen
        self._words[cells_d] = _pack(self._generation(now), chosen)
        if draw.size < miss.size:
            # Later duplicates read the entry their first occurrence
            # just cached — sequentially those are cache *hits*.
            out[miss] = out[first]
        self.cache_misses += draw.size
        self.cache_hits += hits + (miss.size - draw.size)
        return out
