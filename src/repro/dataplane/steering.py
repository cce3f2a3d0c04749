"""Batched app → VIP → RIP request steering over the columnar RIP mirror.

:class:`ColumnarDataPlane` is the mega loop's traffic path: each epoch it
consumes the :class:`~repro.workload.requests.RequestStream`'s chunks and
resolves every request entirely in numpy — DNS answer (vectorized TTL
cache + per-app CDF draw), VIP → serving switch and weighted RIP pick
(per-VIP CSR views over :class:`~repro.core.columnar.ColumnarRipRegistry`
with their CDFs in one ``+inf``-padded matrix, rebuilt only when the
mirror's ``ops_applied`` moves), and session open against the
struct-of-arrays :class:`ColumnarConnTable`.  Both weighted picks are
one :func:`~repro.dns.policy.padded_pick` count per chunk: no sort and
no loop over the apps or VIPs a chunk touches.

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
from repro.dns.policy import padded_cdf, padded_pick, weighted_cdf
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
        violation_factor: float = 10.0,
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
            violation_factor=violation_factor,
        )
        # DNS table slots -> registry vip ids (the bridge between the
        # answer draw and the serving view).
        self._slot_vid = np.asarray(
            [registry.vips.get(v) for v in self.dns.vip_names], dtype=np.int64
        )
        self.conn = ColumnarConnTable(
            n_switches=max(1, len(registry.switches)),
            switch_capacity=switch_max_connections,
            n_vips=len(registry.vips),
        )
        self._default_switch_cap = int(switch_max_connections)
        self._reg_version = -1
        self._vs_indptr = np.zeros(1, dtype=np.int64)
        self._vs_rids = np.zeros(0, dtype=np.int64)
        self._vs_pad = np.zeros((0, 0))
        self._vip_switch = np.zeros(0, dtype=np.int64)
        self.epochs_steered = 0
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
        zones: dict[str, dict[str, float]] = {a: {} for a in self.apps}
        n = reg.n_rips
        for rid in range(n):
            aid = int(reg.rip_app[rid])
            if aid < 0:
                continue
            app = reg.apps.name(aid)
            if app in zones:
                zones[app][reg.vips.name(int(reg.rip_vip[rid]))] = 1.0
        missing = [a for a, z in zones.items() if not z]
        if missing:
            raise ValueError(f"apps with no wired VIPs: {missing}")
        return zones

    def refresh(self) -> bool:
        """Rebuild the per-VIP serving view if the mirror changed.

        The view is CSR by registry VIP id: active RIP rows sorted by RIP
        *name* (the object tables' canonical order) with a normalized
        weight CDF per segment (the columns of a padded matrix), plus
        each VIP's current home switch.
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
        indptr = np.zeros(n_vips + 1, dtype=np.int64)
        np.cumsum(np.bincount(vids, minlength=n_vips), out=indptr[1:])
        cdf = np.empty(act.shape[0])
        for v in np.unique(vids):
            lo, hi = int(indptr[v]), int(indptr[v + 1])
            cdf[lo:hi] = weighted_cdf(reg.rip_weight[act[lo:hi]])
        vip_switch = np.full(n_vips, -1, dtype=np.int64)
        vip_switch[vids] = reg.rip_switch[act]
        self._vs_indptr = indptr
        self._vs_rids = act
        self._vs_pad = padded_cdf(cdf, indptr)
        self._vip_switch = vip_switch
        self.conn.ensure_vips(n_vips)
        self.conn.check_rips(n)
        self.conn.ensure_switches(
            max(1, len(reg.switches)), self._default_switch_cap
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
        """K2 pause window from the columnar conn counters."""
        if vip not in self.registry.vips:
            return True
        return self.conn.is_paused(self.registry.vips.get(vip))

    def drop_vip_conns(self, vip: str) -> int:
        """Forced K2: kill a VIP's live sessions (service disruption)."""
        if vip not in self.registry.vips:
            return 0
        return self.conn.drop_vip(self.registry.vips.get(vip))

    def switch_of_vip(self, vip: str) -> Optional[str]:
        if vip not in self.registry.vips:
            return None
        self.refresh()
        sid = int(self._vip_switch[self.registry.vips.get(vip)])
        return self.registry.switches.name(sid) if sid >= 0 else None

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
        self.conn.check_close_epoch(epoch + self.stream.max_duration_epochs)
        rep.closed = self.conn.close_due(epoch)
        hits0, miss0 = self.dns.cache_hits, self.dns.cache_misses
        rej0 = self.conn.rejected
        indptr, rids, pad = self._vs_indptr, self._vs_rids, self._vs_pad
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
            served = indptr[vid + 1] > indptr[vid]
            srv = np.flatnonzero(served)
            rep.unserved += n - srv.size
            vids_s = vid[srv]
            rid = rids[
                indptr[vids_s] + padded_pick(pad, vids_s, chunk.u_rip[srv])
            ]
            accepted = self.conn.try_open_batch(
                vids_s,
                rid,
                self._vip_switch[vids_s],
                epoch + chunk.duration[srv],
            )
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
        self.epochs_steered += 1
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
