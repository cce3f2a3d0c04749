"""E17 — the paper's mega scale through the bounded-memory epoch driver.

Section I sizes one mega data center at ~300,000 servers hosting ~300,000
applications with ~20 VM instances each (~6M VMs).  Every earlier
experiment ran at a fraction of that because platform state was per-object
Python records and demand a fully materialized matrix.  E17 runs the real
numbers: columnar CSR pod shards (:mod:`repro.core.columnar`), streaming
demand chunks (:mod:`repro.workload.streaming`) and the pod-parallel
placement engine, composed by :class:`repro.core.mega.MegaScaleDriver`.

The default invocation (``repro run e17``) uses the 1/10 "quick" scale so
the experiment suite stays minutes-not-hours; ``run(full=True)`` — what
``repro mega`` without ``--quick`` executes through the bench lane — is
the paper-size run, which finishes in well under a minute and under 1 GB
of RSS on a current laptop (the acceptance budget is 8 GB).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.analysis.reporting import Table
from repro.core.mega import MegaConfig, MegaScaleDriver


@dataclass
class E17Row:
    epoch: int
    wall_s: float
    vms: int
    demand_cpu: float
    satisfied_fraction: float
    changes: int
    peak_rss_mb: float


@dataclass
class E17Result:
    rows: list[E17Row] = field(default_factory=list)
    config: MegaConfig = field(default_factory=MegaConfig.quick)
    bootstrap_wall_s: float = 0.0
    cpu_count: int = 1

    def table(self) -> Table:
        cfg = self.config
        t = Table(
            "E17 — mega scale: "
            f"{cfg.n_servers} servers / {cfg.n_apps} apps "
            f"({cfg.n_pods} pods, workers={cfg.parallelism})",
            [
                "epoch",
                "wall(s)",
                "vms",
                "demand(cpu)",
                "satisfied",
                "changes",
                "rss(MB)",
            ],
        )
        for r in self.rows:
            t.add_row(
                r.epoch,
                round(r.wall_s, 3),
                r.vms,
                round(r.demand_cpu, 1),
                f"{r.satisfied_fraction:.4f}",
                r.changes,
                round(r.peak_rss_mb, 1),
            )
        t.add_note(
            f"bootstrap {self.bootstrap_wall_s:.2f}s; host "
            f"cpu_count={self.cpu_count}"
        )
        t.add_note(
            "paper Section I: ~300k servers, ~300k apps, ~20 VMs/app "
            "(~6M VMs) per mega data center; rss(MB) is the process "
            "high-water mark (acceptance budget 8192 MB)"
        )
        return t

    @property
    def satisfied_ok(self) -> bool:
        return all(r.satisfied_fraction >= 0.98 for r in self.rows)


def run(
    full: bool = False,
    epochs: int = 2,
    workers: int = 1,
    seed: int = 0,
) -> E17Result:
    """Run the mega driver and report per-epoch wall / RSS."""
    import time

    cfg = (MegaConfig.full if full else MegaConfig.quick)(
        parallelism=workers, seed=seed
    )
    t0 = time.perf_counter()
    with MegaScaleDriver(cfg) as driver:
        bootstrap_wall = time.perf_counter() - t0
        reports = driver.run(epochs)
    result = E17Result(
        config=cfg,
        bootstrap_wall_s=bootstrap_wall,
        cpu_count=os.cpu_count() or 1,
    )
    for r in reports:
        result.rows.append(
            E17Row(
                epoch=r.epoch,
                wall_s=r.wall_s,
                vms=r.vms,
                demand_cpu=r.demand_cpu,
                satisfied_fraction=r.satisfied_fraction,
                changes=r.changes,
                peak_rss_mb=r.peak_rss_mb,
            )
        )
    return result
