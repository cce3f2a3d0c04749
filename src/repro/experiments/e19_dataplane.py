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

E19 is the :func:`~repro.experiments.e17_mega_scale.mega_run` harness
with 128 wired apps and the steering config.  Its ``rows`` are the
driver's :class:`~repro.core.mega.MegaEpochReport` records; the req/s
and DNS hit-rate columns are derived from their counters where the
table prints them.

At quick scale the same stream is also pushed through the object-model
data plane (``Resolver`` / ``AuthoritativeDNS`` / ``ConnectionTable``
per switch) to put a measured number on why the columnar path exists:
the acceptance gate is >=10x steering throughput.  The object plane is
built by :meth:`ObjectDataPlane.twin_of`, the same constructor the
differential oracle uses; the two paths are proven request-for-request
identical by :func:`repro.testing.run_dataplane_differential`, and this
experiment only races them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.reporting import Table
from repro.core.mega import (
    MegaConfig,
    MegaControlPlaneConfig,
    MegaSteeringConfig,
)
from repro.dataplane.objectpath import ObjectDataPlane
from repro.experiments.e17_mega_scale import E17Result, mega_run


@dataclass
class E19Result(E17Result):
    steering: MegaSteeringConfig = field(default_factory=MegaSteeringConfig)
    wired_apps: int = 0
    knob_events: dict[str, int] = field(default_factory=dict)
    auditor_ok: bool = True
    #: Quick mode only: the object data plane racing the same stream.
    object_requests_per_s: float | None = None
    speedup_vs_object: float | None = None

    @property
    def requests_total(self) -> int:
        return sum(r.requests for r in self.rows)

    @property
    def steer_wall_total_s(self) -> float:
        return sum(r.steer_wall_s for r in self.rows)

    @property
    def requests_per_s(self) -> float:
        return self.requests_total / max(self.steer_wall_total_s, 1e-9)

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
                f"{r.requests / max(r.steer_wall_s, 1e-9):,.0f}",
                f"{r.dns_hits / max(r.requests, 1):.3f}",
                r.conns_opened,
                r.conns_rejected,
                r.unserved,
                r.conns_alive,
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
    cfg = (MegaConfig.full if full else MegaConfig.quick)(seed=seed)
    cp = MegaControlPlaneConfig(wired_apps=128, vips_per_app=2)
    sc = MegaSteeringConfig(knob_period=2)
    if with_object is None:
        with_object = not full
    with mega_run(cfg, epochs, control_plane=cp, steering=sc) as mega:
        result = mega.result(
            E19Result,
            steering=sc,
            wired_apps=cp.wired_apps,
            knob_events=dict(mega.knob_events),
            auditor_ok=mega.auditor.ok,
        )
        if with_object:
            obj = ObjectDataPlane.twin_of(mega.driver)
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
