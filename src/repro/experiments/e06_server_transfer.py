"""E6 — server transfer between pods and elephant-pod avoidance (IV-C).

A single application's demand steps up far beyond its pod's capacity.
Three platform configurations:

* **no-GM** — nothing reacts; the pod stays overloaded.
* **K3-uncapped** — the global manager feeds the hot pod servers from
  donors with no size cap: demand is met, but the pod balloons and its
  manager's (Tang) decision time grows with it — the elephant.
* **capped ladder** — the pod size cap forces relief through the cheaper
  knobs (replication into other pods): demand met *and* decision time
  bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import Table
from repro.core import MegaDataCenter, PlatformConfig
from repro.core.knobs.ladder import KnobLadder
from repro.placement import TangController
from repro.workload.apps import AppSpec
from repro.workload.demand import ConstantDemand, StepDemand


def build_apps(n_apps: int = 12, base_gbps: float = 0.8, hot_after_gbps: float = 20.0):
    """One app starts tiny (so it bootstraps into a single pod) and then
    steps to far more than one pod's capacity."""
    apps = []
    for i in range(n_apps):
        if i == 0:
            demand = StepDemand(before=0.2, after=hot_after_gbps, at=600.0)
        else:
            demand = ConstantDemand(base_gbps)
        apps.append(AppSpec(f"app-{i:02d}", 1.0 / n_apps, demand, n_vips=2))
    return apps


@dataclass
class E6Row:
    config: str
    satisfied_final: float
    hot_pod_servers: int
    hot_pod_vms: int
    max_decision_ms: float
    k3_actions: int
    k4_actions: int
    #: Violations the online invariant auditor recorded (0 when the run
    #: is not audited).
    auditor_violations: int = 0


@dataclass
class E6Result:
    rows: list[E6Row] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            "E6 — pod relief by server transfer (K3) and the elephant-pod trade-off",
            [
                "config",
                "satisfied",
                "hot-pod servers",
                "hot-pod VMs",
                "max pod decision (ms)",
                "K3 actions",
                "K4 actions",
            ],
        )
        for r in self.rows:
            t.add_row(
                r.config,
                r.satisfied_final,
                r.hot_pod_servers,
                r.hot_pod_vms,
                r.max_decision_ms,
                r.k3_actions,
                r.k4_actions,
            )
        t.add_note(
            "paper: transfers relieve overloaded pods, but the manager 'must "
            "avoid elephant pods' whose decision space slows the pod manager"
        )
        return t


def _run_one(
    config_name: str,
    ladder,
    enable_gm: bool,
    pod_max_servers: int,
    duration_s: float,
    trace=None,
    audit: bool = False,
) -> E6Row:
    apps = build_apps()
    dc = MegaDataCenter(
        apps,
        config=PlatformConfig(),
        n_pods=6,
        servers_per_pod=8,
        n_switches=4,
        pod_controller_factory=lambda: TangController(),
        enable_global_manager=enable_gm,
        pod_max_servers=pod_max_servers,
        pod_max_vms=10_000,
        trace=trace,
        audit=audit,
    )
    if enable_gm and ladder is not None:
        dc.global_manager.ladder = ladder
    dc.run(duration_s)
    # The hot app covers (at least) the pod it bootstrapped into; report
    # the largest pod, which is where growth concentrates.  Decision time:
    # mean over the final epochs of the largest pod's reports (first-epoch
    # wall times include interpreter warm-up noise).
    biggest = max(dc.pod_managers.values(), key=lambda m: m.pod.n_servers)
    tail = dc.reports_history[-8:]
    times = [
        r.decision_time_s
        for epoch in tail
        for r in epoch
        if r.pod == biggest.pod.name
    ]
    decision_ms = 1000.0 * float(np.mean(times)) if times else 0.0
    log = dc.action_log()
    return E6Row(
        config=config_name,
        satisfied_final=round(dc.satisfied.current, 4),
        hot_pod_servers=biggest.pod.n_servers,
        hot_pod_vms=biggest.pod.n_vms,
        max_decision_ms=round(decision_ms, 2),
        k3_actions=log.count("K3") if log else 0,
        k4_actions=log.count("K4") if log else 0,
        auditor_violations=(
            len(dc.auditor.violations) if dc.auditor is not None else 0
        ),
    )


def run(duration_s: float = 3600.0) -> E6Result:
    result = E6Result()
    result.rows.append(
        _run_one("no-GM", None, enable_gm=False, pod_max_servers=100, duration_s=duration_s)
    )
    result.rows.append(
        _run_one(
            "K3-uncapped (elephant)",
            KnobLadder(order=("K3",)),
            enable_gm=True,
            pod_max_servers=100,
            duration_s=duration_s,
        )
    )
    result.rows.append(
        _run_one(
            "capped ladder (K6->K5->K4->K3)",
            KnobLadder(),
            enable_gm=True,
            pod_max_servers=12,
            duration_s=duration_s,
        )
    )
    return result
