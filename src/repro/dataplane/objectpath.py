"""Object-model twin of the columnar data plane.

Steers the *same* request stream through the real object classes — one
:class:`~repro.dns.resolver.Resolver` per client resolver against a real
:class:`~repro.dns.authority.AuthoritativeDNS`, weighted RIP selection off
live :class:`~repro.lbswitch.switch.LBSwitch` VIP entries, and a per-switch
:class:`~repro.lbswitch.conntrack.ConnectionTable` — one request at a time.

Purpose is twofold: it is the throughput baseline the dataplane benchmark
measures the columnar path against, and it is the oracle the differential
harness replays seeded request/fault/knob interleavings through.  Each
request's recorded ``u_dns``/``u_rip`` uniform is injected via a scripted
RNG, so both planes consume identical randomness; a DNS cache hit leaves
the uniform unconsumed on both sides.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.dataplane.steering import SteerReport
from repro.dns.authority import AuthoritativeDNS
from repro.dns.resolver import Resolver
from repro.lbswitch.conntrack import ConnectionTable
from repro.lbswitch.selection import weighted_rip_pick
from repro.lbswitch.switch import LBSwitch
from repro.workload.requests import RequestStream


class _EpochClock:
    """Minimal ``env`` stand-in: the DNS classes only read ``.now``."""

    def __init__(self):
        self.now = 0.0


class _ScriptedRng:
    """Feeds each request's own pre-drawn uniform to ``resolve()``."""

    def __init__(self):
        self.value = 0.0

    def random(self) -> float:
        return self.value


class ObjectDataPlane:
    """Request-at-a-time steering over live control-plane switches."""

    def __init__(
        self,
        switches: Mapping[str, LBSwitch],
        apps: list[str],
        zones: Mapping[str, Mapping[str, float]],
        stream: RequestStream,
        *,
        ttl_s: float,
        violation_factor: float,
        switch_max_connections: int = 1_000_000,
    ):
        if stream.n_apps != len(apps):
            raise ValueError("request stream universe must match wired apps")
        self.switches = switches
        self.apps = list(apps)
        self.stream = stream
        self.clock = _EpochClock()
        # The authority validates TTL > 0 at construction; a zero TTL
        # (cache disabled) is modelled by overriding the default after.
        self.authority = AuthoritativeDNS(self.clock, default_ttl_s=max(ttl_s, 1.0))
        self.authority.default_ttl_s = float(ttl_s)
        for app in self.apps:
            self.authority.configure(app, dict(zones[app]))
        self._rng = _ScriptedRng()
        violators = stream.violators()
        self.resolvers = [
            Resolver(
                self.clock,
                self.authority,
                self._rng,
                violator=bool(violators[i]),
                violation_factor=violation_factor,
            )
            for i in range(stream.n_resolvers)
        ]
        self._cap = int(switch_max_connections)
        self.tables: dict[str, ConnectionTable] = {}
        self._vip_home: dict[str, tuple[str, object]] = {}
        # Own session ledger: cid -> (switch, vip, rip); plus close lists
        # so epoch expiry and pod/VIP drops stay O(affected).
        self._conn_info: dict[int, tuple[str, str, str]] = {}
        self._by_close: dict[int, list[int]] = {}
        self._next_cid = 0
        self.opened = 0
        self.closed = 0
        self.dropped = 0
        self.rejected = 0
        self.unserved = 0
        self.refresh()

    @classmethod
    def twin_of(cls, driver) -> "ObjectDataPlane":
        """The object twin of a mega driver's columnar data plane: the
        same live switches, wired apps, current DNS zones, request
        stream, TTL, violator TTL factor and connection cap."""
        dp, sc = driver.dataplane, driver.steering
        return cls(
            driver.dataplane_switches(),
            dp.apps,
            {app: dp.dns.zone(app) for app in dp.apps},
            driver.request_stream,
            ttl_s=sc.ttl_s,
            violation_factor=dp.dns.violation_factor,
            switch_max_connections=sc.switch_max_connections,
        )

    # -- control-plane view -------------------------------------------
    def refresh(self) -> None:
        """Re-scan the live switches for each VIP's current home/entry."""
        home: dict[str, tuple[str, object]] = {}
        for name in sorted(self.switches):
            sw = self.switches[name]
            for vip in sw.vips():
                home[vip] = (name, sw.entry(vip))
            if name not in self.tables:
                self.tables[name] = ConnectionTable(self._cap)
        self._vip_home = home

    def _table(self, switch: str) -> ConnectionTable:
        if switch not in self.tables:
            self.tables[switch] = ConnectionTable(self._cap)
        return self.tables[switch]

    # -- knob surfaces (mirror ColumnarDataPlane's) --------------------
    def k1_set_weights(self, app: str, weights: Mapping[str, float]) -> None:
        self.authority.configure(app, dict(weights))

    def is_paused(self, vip: str) -> bool:
        return all(t.is_paused(vip) for t in self.tables.values())

    def drop_vip_conns(self, vip: str) -> int:
        """Forced K2 drop, through the indexed ``ConnectionTable.drop_vip``."""
        doomed = [c for c, info in self._conn_info.items() if info[1] == vip]
        n = sum(t.drop_vip(vip) for t in self.tables.values())
        if n != len(doomed):
            raise AssertionError(
                f"drop_vip({vip}): table killed {n}, ledger had {len(doomed)}"
            )
        for cid in doomed:
            del self._conn_info[cid]
        self.dropped += n
        return n

    def on_pod_loss(self, pod: str) -> int:
        """Kill every session pinned to a RIP homed in *pod*."""
        suffix = f"@{pod}"
        doomed = [
            (cid, info)
            for cid, info in self._conn_info.items()
            if info[2].endswith(suffix)
        ]
        for cid, (switch, _vip, _rip) in doomed:
            self.tables[switch].close(cid)
            del self._conn_info[cid]
        self.dropped += len(doomed)
        return len(doomed)

    # -- the epoch path ------------------------------------------------
    def _close_due(self, epoch: int) -> int:
        n = 0
        for e in sorted(k for k in self._by_close if k <= epoch):
            for cid in self._by_close.pop(e):
                info = self._conn_info.pop(cid, None)
                if info is None:  # already force-dropped
                    continue
                self.tables[info[0]].close(cid)
                n += 1
        self.closed += n
        return n

    def steer_epoch(
        self, epoch: int, t: float, record: bool = False
    ) -> SteerReport:
        """Steer one epoch of the stream, one request at a time."""
        import time

        t0 = time.perf_counter()
        self.clock.now = t
        rep = SteerReport(epoch=epoch, t=t)
        rep.closed = self._close_due(epoch)
        self.refresh()
        full = self.stream.epoch_requests(epoch)
        hits0 = sum(r.cache_hits for r in self.resolvers)
        miss0 = sum(r.cache_misses for r in self.resolvers)
        out_vip: list[str] = []
        out_rip: list[Optional[str]] = []
        out_acc: list[bool] = []
        for k in range(len(full)):
            rep.requests += 1
            resolver = self.resolvers[int(full.resolver[k])]
            self._rng.value = float(full.u_dns[k])
            vip = resolver.lookup(self.apps[int(full.app[k])])
            home = self._vip_home.get(vip)
            if home is None or not home[1].rips:
                rep.unserved += 1
                if record:
                    out_vip.append(vip)
                    out_rip.append(None)
                    out_acc.append(False)
                continue
            switch, entry = home
            rip = weighted_rip_pick(entry.rips, float(full.u_rip[k]))
            cid = self._next_cid
            self._next_cid += 1
            ok = self._table(switch).open(cid, vip, rip, now=t)
            if ok:
                rep.opened += 1
                self._conn_info[cid] = (switch, vip, rip)
                self._by_close.setdefault(
                    epoch + int(full.duration[k]), []
                ).append(cid)
            else:
                rep.rejected += 1
            if record:
                out_vip.append(vip)
                out_rip.append(rip)
                out_acc.append(bool(ok))
        rep.dns_hits = sum(r.cache_hits for r in self.resolvers) - hits0
        rep.dns_misses = sum(r.cache_misses for r in self.resolvers) - miss0
        self.opened += rep.opened
        self.rejected += rep.rejected
        self.unserved += rep.unserved
        rep.wall_s = time.perf_counter() - t0
        if record:
            rep.outcomes = {
                "vip": out_vip,
                "rip": out_rip,
                "accepted": np.asarray(out_acc, dtype=bool),
            }
        return rep

    # -- oracle surfaces ----------------------------------------------
    def live_pairs(self) -> dict[tuple[str, str], int]:
        out: dict[tuple[str, str], int] = {}
        for _switch, vip, rip in self._conn_info.values():
            out[(vip, rip)] = out.get((vip, rip), 0) + 1
        return out
