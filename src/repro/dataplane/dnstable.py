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
``(n_resolvers, n_apps)`` cache instead of a per-resolver dict; each
cell keeps its expiry and answer side by side in one record, and a batch
addresses the cells through flat ids ``resolver * n_apps + app``, so a
lookup costs one gather whatever the number of apps in the batch.

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


class VectorizedDnsTable:
    """Columnar authority + resolver-population cache for a fixed app set.

    ``apps`` fixes the app slots; ``zones[app]`` maps VIP name → weight
    (the VIP *set* is fixed at construction, weights change via
    :meth:`set_weights` — the K1 re-steer path).  VIPs are name-sorted
    within each app's segment, matching ``AuthoritativeDNS``'s record
    order, and get global *slots* ``vip_indptr[a] + offset``.
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
        # One record per flat cell ``resolver * n_apps + app``, so a
        # lookup finds its expiry and its answer in one cache line.
        self._cells = np.empty(
            self.n_resolvers * self.n_apps,
            dtype=[("expires", np.float64), ("vip", np.int64)],
        )
        self._cells["expires"] = -np.inf
        self._cells["vip"] = -1
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def cached(self) -> np.ndarray:
        """``(n_resolvers, n_apps)`` view of each cell's cached VIP slot
        (-1 before its first answer)."""
        return self._cells["vip"].reshape(self.n_resolvers, self.n_apps)

    @property
    def expires(self) -> np.ndarray:
        """``(n_resolvers, n_apps)`` view of each cell's expiry time."""
        return self._cells["expires"].reshape(self.n_resolvers, self.n_apps)

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
        """Resolve one request batch; returns each request's VIP slot.

        Mutates the cache exactly as the equivalent sequence of scalar
        ``Resolver.lookup`` calls would (see the module docstring for the
        within-batch duplicate semantics).
        """
        cell = resolver * np.int64(self.n_apps) + app
        expires = self._cells["expires"]
        cached = self._cells["vip"]
        # Every request reads its cell's answer; the misses' are
        # overwritten below.
        out = cached[cell]
        miss = np.flatnonzero(~(now < expires[cell]))
        hits = resolver.shape[0] - miss.size
        if miss.size == 0:
            self.cache_hits += hits
            return out
        if self.ttl_s > 0:
            # Only the first occurrence of each (resolver, app) cell
            # queries; the rest hit the entry it caches.  Every missed
            # cell is rewritten below, so its stale ``cached`` slot can
            # first hold the lowest batch position that missed it.
            miss_cell = cell[miss]
            cached[miss_cell] = resolver.shape[0]
            np.minimum.at(cached, miss_cell, miss)
            first = cached[miss_cell]
            draw = miss[first == miss]
        else:
            draw = miss
        apps_d = app[draw]
        chosen = self.vip_indptr[apps_d] + table_pick(
            self.pick, self.cdf, self.vip_indptr, apps_d, u_dns[draw]
        )
        out[draw] = chosen
        cells_d = cell[draw]
        cached[cells_d] = chosen
        expires[cells_d] = now + self.ttl_eff[resolver[draw]]
        if draw.size < miss.size:
            # Later duplicates read the entry their first occurrence
            # just cached — sequentially those are cache *hits*.
            out[miss] = out[first]
        self.cache_misses += draw.size
        self.cache_hits += hits + (miss.size - draw.size)
        return out
