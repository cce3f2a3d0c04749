"""E19 — the traffic data plane at mega scale.

E17/E18 proved the *placement* loop runs the paper's Section I size in
bounded memory; E19 closes the remaining object-scale gap: every epoch
now also steers a seeded request stream — resolver DNS lookups with TTL
caching, weighted VIP answers, weighted RIP picks against the columnar
mirror, connection tracking with per-switch capacity — entirely as
batched array operations (:class:`repro.dataplane.ColumnarDataPlane`).
The K1 (DNS re-steer) and K2 (VIP re-home, pause-window gated) knobs
fire on a schedule *inside* the steered stream, so the run demonstrates
the paper's traffic-management story at 300k servers, not a replay of
pre-computed answers.

At quick scale the same stream is also pushed through the object-model
data plane (``Resolver`` / ``AuthoritativeDNS`` / ``ConnectionTable``
per switch) to put a measured number on why the columnar path exists:
the PR's acceptance gate is >=10x steering throughput.  The two paths
are proven request-for-request identical by
:func:`repro.testing.run_dataplane_differential`; this experiment only
races them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.analysis.reporting import Table
from repro.core.mega import (
    MegaConfig,
    MegaControlPlaneConfig,
    MegaScaleDriver,
    MegaSteeringConfig,
)
from repro.obs.audit import InvariantAuditor
from repro.obs.trace import TraceBus


@dataclass
class E19Row:
    epoch: int
    wall_s: float
    steer_wall_s: float
    requests: int
    requests_per_s: float
    dns_hit_rate: float
    opened: int
    rejected: int
    unserved: int
    closed: int
    dropped: int
    alive: int
    peak_rss_mb: float


@dataclass
class E19Result:
    rows: list[E19Row] = field(default_factory=list)
    config: MegaConfig = field(default_factory=MegaConfig.quick)
    steering: MegaSteeringConfig = field(default_factory=MegaSteeringConfig)
    wired_apps: int = 0
    bootstrap_wall_s: float = 0.0
    knob_events: dict[str, int] = field(default_factory=dict)
    auditor_ok: bool = True
    #: Quick mode only: the object data plane racing the same stream.
    object_requests_per_s: float | None = None
    speedup_vs_object: float | None = None
    cpu_count: int = 1

    @property
    def requests_total(self) -> int:
        return sum(r.requests for r in self.rows)

    @property
    def steer_wall_total_s(self) -> float:
        return sum(r.steer_wall_s for r in self.rows)

    @property
    def requests_per_s(self) -> float:
        return self.requests_total / max(self.steer_wall_total_s, 1e-9)

    @property
    def peak_rss_mb(self) -> float:
        return max((r.peak_rss_mb for r in self.rows), default=0.0)

    def table(self) -> Table:
        cfg = self.config
        t = Table(
            "E19 — mega data plane: "
            f"{cfg.n_servers} servers / {cfg.n_apps} apps, "
            f"{self.steering.requests_per_epoch} req/epoch over "
            f"{self.wired_apps} wired apps",
            [
                "epoch",
                "wall(s)",
                "steer(s)",
                "req/s",
                "dns hit",
                "opened",
                "rejected",
                "unserved",
                "alive",
                "rss(MB)",
            ],
        )
        for r in self.rows:
            t.add_row(
                r.epoch,
                round(r.wall_s, 3),
                round(r.steer_wall_s, 3),
                f"{r.requests_per_s:,.0f}",
                f"{r.dns_hit_rate:.3f}",
                r.opened,
                r.rejected,
                r.unserved,
                r.alive,
                round(r.peak_rss_mb, 1),
            )
        knobs = ", ".join(
            f"{k}={v}" for k, v in sorted(self.knob_events.items())
        ) or "none"
        t.add_note(
            f"steady steering throughput {self.requests_per_s:,.0f} req/s; "
            f"knob actions fired mid-stream: {knobs}; invariant auditor "
            f"{'ok' if self.auditor_ok else 'VIOLATED'}"
        )
        if self.speedup_vs_object is not None:
            t.add_note(
                f"object data plane races the same stream at "
                f"{self.object_requests_per_s:,.0f} req/s -> columnar is "
                f"{self.speedup_vs_object:.1f}x faster (request-for-request "
                "identical by the differential oracle)"
            )
        t.add_note(
            f"bootstrap {self.bootstrap_wall_s:.2f}s; host "
            f"cpu_count={self.cpu_count}"
        )
        return t


def run(
    full: bool = False,
    epochs: int = 4,
    seed: int = 0,
    with_object: bool | None = None,
) -> E19Result:
    """Steer the request stream through the mega epoch loop and report
    throughput; at quick scale also race the object data plane."""
    import time

    cfg = (MegaConfig.full if full else MegaConfig.quick)(seed=seed)
    cp = MegaControlPlaneConfig(wired_apps=128, vips_per_app=2)
    sc = MegaSteeringConfig(knob_period=2)
    if with_object is None:
        with_object = not full
    trace = TraceBus(keep_events=False)
    knob_events: dict[str, int] = {}
    trace.subscribe(
        lambda ev: ev.kind == "knob"
        and knob_events.__setitem__(
            ev.data["knob"], knob_events.get(ev.data["knob"], 0) + 1
        )
    )
    t0 = time.perf_counter()
    with MegaScaleDriver(
        cfg, trace=trace, control_plane=cp, steering=sc
    ) as driver:
        bootstrap_wall = time.perf_counter() - t0
        auditor = InvariantAuditor(columnar=driver).attach(trace)
        reports, alive_after = [], []
        for _ in range(epochs):
            reports.append(driver.run_epoch())
            alive_after.append(driver.dataplane.conn.alive_count)
        result = E19Result(
            config=cfg,
            steering=sc,
            wired_apps=cp.wired_apps,
            bootstrap_wall_s=bootstrap_wall,
            knob_events=dict(knob_events),
            auditor_ok=auditor.ok,
            cpu_count=os.cpu_count() or 1,
        )
        for r, alive in zip(reports, alive_after):
            result.rows.append(
                E19Row(
                    epoch=r.epoch,
                    wall_s=r.wall_s,
                    steer_wall_s=r.steer_wall_s,
                    requests=r.requests,
                    requests_per_s=r.requests / max(r.steer_wall_s, 1e-9),
                    dns_hit_rate=r.dns_hits / max(r.requests, 1),
                    opened=r.conns_opened,
                    rejected=r.conns_rejected,
                    unserved=r.unserved,
                    closed=r.conns_closed,
                    dropped=r.conns_dropped,
                    alive=alive,
                    peak_rss_mb=r.peak_rss_mb,
                )
            )
        if with_object:
            from repro.dataplane.objectpath import ObjectDataPlane

            wired = [driver._app_name(int(g)) for g in driver._wired_gids]
            zones = {a: driver.dataplane.dns.zone(a) for a in wired}
            obj = ObjectDataPlane(
                driver.dataplane_switches(),
                wired,
                zones,
                driver.request_stream,
                ttl_s=sc.ttl_s,
                violation_factor=sc.violation_factor,
                switch_max_connections=sc.switch_max_connections,
            )
            t0 = time.perf_counter()
            obj_rep = obj.steer_epoch(epochs, epochs * cfg.epoch_s)
            obj_wall = time.perf_counter() - t0
            result.object_requests_per_s = obj_rep.requests / max(
                obj_wall, 1e-9
            )
            result.speedup_vs_object = (
                result.requests_per_s / result.object_requests_per_s
            )
    return result
