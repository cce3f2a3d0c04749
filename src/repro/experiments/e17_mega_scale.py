"""E17 — the paper's mega scale through the bounded-memory epoch driver.

Section I sizes one mega data center at ~300,000 servers hosting ~300,000
applications with ~20 VM instances each (~6M VMs).  Every earlier
experiment ran at a fraction of that because platform state was per-object
Python records and demand a fully materialized matrix.  E17 runs the real
numbers: columnar CSR pod shards (:mod:`repro.core.columnar`), streaming
demand chunks (:mod:`repro.workload.streaming`) and per-pod placement
solves, one pod at a time, composed by
:class:`repro.core.mega.MegaScaleDriver`.

:func:`mega_run` is the one harness every mega-loop experiment runs
through: E17 is its plain configuration, E18 adds a fault schedule and
E19 a steered data plane.  Each result's ``rows`` are the driver's own
:class:`~repro.core.mega.MegaEpochReport` records.

The default invocation (``repro run e17``) uses the 1/10 "quick" scale so
the experiment suite stays minutes-not-hours; ``run(full=True)`` — what
``repro mega`` without ``--quick`` executes through the bench lane — is
the paper-size run, which finishes in well under a minute and under 1 GB
of RSS on a current laptop (the acceptance budget is 8 GB).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.reporting import Table
from repro.core.mega import (
    MegaConfig,
    MegaControlPlaneConfig,
    MegaEpochReport,
    MegaScaleDriver,
    MegaSteeringConfig,
)
from repro.faults.mega import MegaFaultInjector
from repro.faults.schedule import FaultSchedule
from repro.obs.audit import InvariantAuditor
from repro.obs.trace import TraceBus


@dataclass
class E17Result:
    rows: list[MegaEpochReport] = field(default_factory=list)
    config: MegaConfig = field(default_factory=MegaConfig.quick)
    bootstrap_wall_s: float = 0.0
    cpu_count: int = 1

    def table(self) -> Table:
        cfg = self.config
        t = Table(
            "E17 — mega scale: "
            f"{cfg.n_servers} servers / {cfg.n_apps} apps "
            f"({cfg.n_pods} pods)",
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


@dataclass
class MegaRun:
    """One harnessed mega run, handed back while its driver is live."""

    driver: MegaScaleDriver
    reports: list[MegaEpochReport]
    bootstrap_wall_s: float
    #: ``knob`` trace events counted per knob (K1, K2, ...).
    knob_events: dict[str, int]
    auditor: Optional[InvariantAuditor]
    injector: Optional[MegaFaultInjector]

    def result(self, cls=E17Result, **fields):
        """*cls* (an :class:`E17Result` subclass) over this run's rows."""
        return cls(
            rows=self.reports,
            config=self.driver.config,
            bootstrap_wall_s=self.bootstrap_wall_s,
            cpu_count=os.cpu_count() or 1,
            **fields,
        )


@contextmanager
def mega_run(
    config: MegaConfig,
    epochs: int,
    *,
    control_plane: Optional[MegaControlPlaneConfig] = None,
    steering: Optional[MegaSteeringConfig] = None,
    schedule: Optional[FaultSchedule] = None,
) -> Iterator[MegaRun]:
    """Build a driver, run *epochs* epochs through ``driver.run`` and
    yield the run with the driver still open.

    ``bootstrap_wall_s`` times the driver's constructor alone.  With a
    control plane wired the run is traced (no events kept) under an
    :class:`InvariantAuditor`, and ``knob`` events are counted; with a
    *schedule* a :class:`MegaFaultInjector` replays it.
    """
    trace = None
    knob_events: dict[str, int] = {}
    if control_plane is not None:
        trace = TraceBus(keep_events=False)
        trace.subscribe(
            lambda ev: ev.kind == "knob"
            and knob_events.__setitem__(
                ev.data["knob"], knob_events.get(ev.data["knob"], 0) + 1
            )
        )
    t0 = time.perf_counter()
    with MegaScaleDriver(
        config, trace=trace, control_plane=control_plane, steering=steering
    ) as driver:
        bootstrap_wall = time.perf_counter() - t0
        auditor = (
            InvariantAuditor(columnar=driver).attach(trace)
            if trace is not None
            else None
        )
        injector = (
            MegaFaultInjector(driver, schedule) if schedule is not None else None
        )
        reports = driver.run(epochs)
        yield MegaRun(
            driver, reports, bootstrap_wall, knob_events, auditor, injector
        )


def run(
    full: bool = False,
    epochs: int = 2,
    seed: int = 0,
) -> E17Result:
    """Run the mega driver and report per-epoch wall / RSS."""
    cfg = (MegaConfig.full if full else MegaConfig.quick)(seed=seed)
    with mega_run(cfg, epochs) as mega:
        return mega.result()
