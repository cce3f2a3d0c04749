"""Batched app → VIP → RIP request steering over the columnar RIP mirror.

:class:`ColumnarDataPlane` is the mega loop's traffic path: each epoch it
consumes the :class:`~repro.workload.requests.RequestStream`'s chunks and
resolves every request entirely in numpy — DNS answer (vectorized TTL
cache + per-app CDF draw), VIP → serving switch and weighted RIP pick
(per-VIP CSR views over :class:`~repro.core.columnar.ColumnarRipRegistry`
with their CDFs in one flat array, rebuilt only when the mirror's
``ops_applied`` moves), and session open against the per-(close epoch,
RIP) session counts of :class:`ColumnarConnTable`.

Both weighted picks, and the request stream's app draw, read each
request's count from a per-segment table of counts at the bin edges
(:func:`~repro.dns.policy.table_pick`): two lookups per request
whatever the segment widths, and only the requests whose bin holds a
CDF step bisect the entries inside it.  Bins are a power of two, so the
bin of ``u`` and every bin edge are exact and the pick equals
``searchsorted(side="right")`` bit for bit.  When every DNS answer's
VIP has an active RIP (:attr:`ColumnarDataPlane.all_served`, set at
each rebuild) the steer skips the per-request served test and its
compressions.

Equivalence to the object path holds request-for-request (same VIP, same
RIP, same rejection) because every stochastic choice goes through the
same shared CDF arithmetic (:func:`repro.dns.policy.weighted_cdf`) over
the same name-sorted orderings the object classes use, fed by the same
per-request uniforms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.columnar import ColumnarRipRegistry
from repro.dataplane.conntable import ColumnarConnTable
from repro.dataplane.dnstable import VectorizedDnsTable
from repro.dns.policy import pick_bins, pick_table, table_pick, weighted_cdf
from repro.workload.requests import RequestStream


@dataclass
class SteerReport:
    """One epoch's steering outcome."""

    epoch: int
    t: float
    requests: int = 0
    dns_hits: int = 0
    dns_misses: int = 0
    opened: int = 0
    rejected: int = 0
    unserved: int = 0
    closed: int = 0
    wall_s: float = 0.0
    #: Per-request outcomes when recording (differential oracle surface):
    #: ``vip`` (name per request), ``rip`` (name or None), ``accepted``.
    outcomes: Optional[dict] = field(default=None, repr=False)


class ColumnarDataPlane:
    """Vectorized steering layer bound to a RIP-mirror registry."""

    def __init__(
        self,
        registry: ColumnarRipRegistry,
        apps: Sequence[str],
        stream: RequestStream,
        *,
        ttl_s: float,
        switch_max_connections: int = 1_000_000,
        chunk_requests: Optional[int] = None,
        trace=None,
    ):
        if stream.n_apps != len(apps):
            raise ValueError("request stream universe must match wired apps")
        if chunk_requests is not None and chunk_requests < 1:
            raise ValueError("chunk_requests must be positive")
        self.registry = registry
        self.apps = list(apps)
        self.stream = stream
        self.chunk_requests = chunk_requests
        self.trace = trace
        zones = self._zones_from_registry()
        self.dns = VectorizedDnsTable(
            self.apps,
            zones,
            stream.n_resolvers,
            ttl_s=ttl_s,
            violators=stream.violators(),
        )
        # DNS table slots -> registry vip ids (the bridge between the
        # answer draw and the serving view).
        self._slot_vid = np.asarray(
            [registry.vips.get(v) for v in self.dns.vip_names], dtype=np.int64
        )
        self.conn = ColumnarConnTable(
            n_switches=max(1, len(registry.switches)),
            switch_capacity=switch_max_connections,
            rip_name=registry.rips.name,
        )
        self._reg_version = -1
        self._vs_indptr = np.zeros(1, dtype=np.int64)
        self._vs_rids = np.zeros(0, dtype=np.int64)
        self._vs_cdf = np.zeros(0)
        self._vs_pick = np.zeros((0, 0), dtype=np.uint8)
        #: Every DNS slot's VIP has an active RIP (set by :meth:`refresh`):
        #: no request can go unserved, so the steer skips the served test.
        self.all_served = False
        self.last_report: Optional[SteerReport] = None
        #: When set, steers record per-request outcomes in the report
        #: (the differential oracle flips this on).
        self.record_outcomes = False
        self.refresh()

    # -- registry views -----------------------------------------------
    def _zones_from_registry(self) -> dict[str, dict[str, float]]:
        """App → VIP set from *all* mirror rows (active or not): a VIP
        whose RIPs are momentarily all down must stay answerable — the
        paper's DNS layer does not track RIP liveness, K1 does."""
        reg = self.registry
        n = reg.n_rips
        # Each registry app's wired slot, -1 for an app not wired here;
        # the extra last entry answers a row with no app (-1).
        slot_of = np.full(len(reg.apps) + 1, -1, dtype=np.int64)
        for i, app in enumerate(self.apps):
            if app in reg.apps:
                slot_of[reg.apps.get(app)] = i
        slot = slot_of[reg.rip_app[:n]]
        rows = np.flatnonzero(slot >= 0)
        slot, vid = slot[rows], reg.rip_vip[rows]
        # One (app, VIP) pair per VIP, in the order of its first row.
        _, first = np.unique(slot * len(reg.vips) + vid, return_index=True)
        first.sort()
        zones: dict[str, dict[str, float]] = {a: {} for a in self.apps}
        names = reg.vips.names
        for i, v in zip(slot[first].tolist(), vid[first].tolist()):
            zones[self.apps[i]][names[v]] = 1.0
        missing = [a for a, z in zones.items() if not z]
        if missing:
            raise ValueError(f"apps with no wired VIPs: {missing}")
        return zones

    def refresh(self) -> bool:
        """Rebuild the per-VIP serving view if the mirror changed.

        The view is CSR by registry VIP id: active RIP rows sorted by RIP
        *name* (the object tables' canonical order) with a normalized
        weight CDF per segment, and a :func:`~repro.dns.policy.pick_table`
        over them for the RIP pick.  The active RIPs are bound to their
        VIPs and home switches in the conn table.
        """
        reg = self.registry
        if reg.ops_applied == self._reg_version:
            return False
        n = reg.n_rips
        act = np.flatnonzero(reg.rip_active[:n])
        vids = reg.rip_vip[act]
        names = np.asarray([reg.rips.name(int(r)) for r in act])
        order = np.lexsort((names, vids))
        act, vids = act[order], vids[order]
        n_vips = len(reg.vips)
        counts = np.bincount(vids, minlength=n_vips)
        indptr = np.zeros(n_vips + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        cdf = np.empty(act.shape[0])
        for v in np.unique(vids):
            lo, hi = int(indptr[v]), int(indptr[v + 1])
            cdf[lo:hi] = weighted_cdf(reg.rip_weight[act[lo:hi]])
        self.conn.ensure_switches(max(1, len(reg.switches)))
        self.conn.bind(act, vids, reg.rip_switch[act])
        self._vs_indptr = indptr
        self._vs_rids = act
        self._vs_cdf = cdf
        self._vs_pick = pick_table(cdf, indptr, pick_bins(int(counts.max(initial=0))))
        self.all_served = bool(
            (indptr[self._slot_vid + 1] > indptr[self._slot_vid]).all()
        )
        self._reg_version = reg.ops_applied
        return True

    # -- knob surfaces ------------------------------------------------
    def k1_set_weights(self, app: str, weights: Mapping[str, float]) -> None:
        """K1 re-steer: apply a DNS VIP-weight update to the vectorized
        tables.  Cached answers keep converging over one TTL, exactly the
        dynamics of the object resolvers."""
        self.dns.set_weights(app, weights)

    def is_paused(self, vip: str) -> bool:
        """K2 pause window from the conn table's live per-RIP counts."""
        if vip not in self.registry.vips:
            return True
        return self.conn.is_paused(self.registry.vips.get(vip))

    def drop_vip_conns(self, vip: str) -> int:
        """Forced K2: kill a VIP's live sessions (service disruption)."""
        if vip not in self.registry.vips:
            return 0
        return self.conn.drop_vip(self.registry.vips.get(vip))

    def switch_of_vip(self, vip: str) -> Optional[str]:
        """The VIP's home switch: the binding of its first active RIP in
        the serving view (None when it has none)."""
        if vip not in self.registry.vips:
            return None
        self.refresh()
        v = self.registry.vips.get(vip)
        lo, hi = self._vs_indptr[v : v + 2]
        if lo == hi:
            return None
        sid = int(self.conn.rip_switch[self._vs_rids[lo]])
        return self.registry.switches.name(sid)

    def on_pod_loss(self, pod: str) -> int:
        """A pod died: every live session pinned to one of its RIPs dies
        with it, on whatever switch tracked it."""
        reg = self.registry
        if pod not in reg.pods:
            return 0
        pid = reg.pods.get(pod)
        n = reg.n_rips
        mask = np.zeros(max(n, 1), dtype=bool)
        mask[:n] = reg.rip_pod[:n] == pid
        return self.conn.drop_rips(mask)

    # -- the epoch hot path -------------------------------------------
    def steer_epoch(self, epoch: int, t: float) -> SteerReport:
        """Steer one epoch's request stream; returns the outcome report.

        Order of operations matches the object path: expire finished
        sessions first, then process requests in stream order (chunked —
        chunk size cannot change any outcome; see the conn table's
        sequential-fill contract).
        """
        record = self.record_outcomes
        t0 = time.perf_counter()
        self.refresh()
        rep = SteerReport(epoch=epoch, t=t)
        rep.closed = self.conn.close_due(epoch)
        hits0, miss0 = self.dns.cache_hits, self.dns.cache_misses
        rej0 = self.conn.rejected
        indptr, rids = self._vs_indptr, self._vs_rids
        cdf, pick = self._vs_cdf, self._vs_pick
        if record:
            out_vip: list[np.ndarray] = []
            out_rid: list[np.ndarray] = []
            out_acc: list[np.ndarray] = []
        for chunk in self.stream.chunks(epoch, self.chunk_requests):
            n = len(chunk)
            rep.requests += n
            slot = self.dns.resolve_batch(
                chunk.resolver, chunk.app, chunk.u_dns, now=t
            )
            vid = self._slot_vid[slot]
            if self.all_served:
                srv = slice(None)
                vids_s, u_rip, duration = vid, chunk.u_rip, chunk.duration
            else:
                srv = np.flatnonzero(indptr[vid + 1] > indptr[vid])
                rep.unserved += n - srv.size
                vids_s = vid[srv]
                u_rip, duration = chunk.u_rip[srv], chunk.duration[srv]
            rid = rids[indptr[vids_s] + table_pick(pick, cdf, indptr, vids_s, u_rip)]
            accepted = self.conn.try_open_batch(rid, epoch + duration)
            rep.opened += int(accepted.sum())
            if record:
                full_rid = np.full(n, -1, dtype=np.int64)
                full_rid[srv] = rid
                full_acc = np.zeros(n, dtype=bool)
                full_acc[srv] = accepted
                out_vip.append(vid)
                out_rid.append(full_rid)
                out_acc.append(full_acc)
        rep.dns_hits = self.dns.cache_hits - hits0
        rep.dns_misses = self.dns.cache_misses - miss0
        rep.rejected = self.conn.rejected - rej0
        rep.wall_s = time.perf_counter() - t0
        if record:
            reg = self.registry
            vid_all = np.concatenate(out_vip) if out_vip else np.zeros(0, np.int64)
            rid_all = np.concatenate(out_rid) if out_rid else np.zeros(0, np.int64)
            rep.outcomes = {
                "vip": [reg.vips.name(int(v)) for v in vid_all],
                "rip": [
                    reg.rips.name(int(r)) if r >= 0 else None for r in rid_all
                ],
                "accepted": (
                    np.concatenate(out_acc)
                    if out_acc
                    else np.zeros(0, dtype=bool)
                ),
            }
        self.last_report = rep
        if self.trace is not None and self.trace.enabled:
            self.trace.emit(
                "dataplane.steer", t=t, epoch=epoch,
                requests=rep.requests, dns_hits=rep.dns_hits,
                dns_misses=rep.dns_misses, opened=rep.opened,
                rejected=rep.rejected, unserved=rep.unserved,
                closed=rep.closed,
            )
            self.trace.emit(
                "dataplane.conntrack", t=t, epoch=epoch,
                alive=self.conn.alive_count, opened_total=self.conn.opened,
                closed_total=self.conn.closed,
                dropped_total=self.conn.dropped,
            )
        return rep

    # -- oracle surfaces ----------------------------------------------
    def live_pairs(self) -> dict[tuple[str, str], int]:
        """``(vip name, rip name) -> live sessions`` for the oracle."""
        reg = self.registry
        return {
            (reg.vips.name(v), reg.rips.name(r)): c
            for (v, r), c in self.conn.live_pairs().items()
        }
