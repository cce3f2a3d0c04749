"""E1 / Figure 1 — end-to-end architecture validation.

Builds the full assembly (clients -> DNS -> access links -> border routers
-> LB switches -> fabric -> pods), runs it under a Zipf + diurnal workload
with the global and pod managers active, and reports steady-state
utilizations, imbalance indices, satisfied demand, control activity and
whether every hard invariant held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import Table
from repro.analysis.stats import max_mean_ratio
from repro.core import MegaDataCenter, PlatformConfig
from repro.sim import RngHub
from repro.workload import WorkloadBuilder


@dataclass
class E1Result:
    dc: MegaDataCenter
    duration_s: float

    def table(self) -> Table:
        dc = self.dc
        t = Table(
            "E1 / Fig.1 — architecture steady state",
            ["component", "count", "mean util", "max util", "imbalance (max/mean)"],
        )
        links = list(dc.link_utilizations().values())
        switches = list(dc.switch_utilizations().values())
        pods = list(dc.pod_utilizations().values())
        servers = [
            s.utilization
            for m in dc.pod_managers.values()
            for s in m.pod.servers
        ]
        for name, vals in (
            ("access links", links),
            ("LB switches", switches),
            ("pods", pods),
            ("servers", servers),
        ):
            t.add_row(
                name,
                len(vals),
                float(np.mean(vals)),
                float(np.max(vals)),
                max_mean_ratio(vals),
            )
        t.add_note(f"epochs run: {dc.epochs}; sim duration: {self.duration_s:.0f}s")
        t.add_note(f"satisfied demand fraction (final): {dc.satisfied.current:.4f}")
        t.add_note(f"blackholed traffic: {dc.state.blackholed_gbps:.4f} Gbps")
        t.add_note(f"invariants hold: {dc.invariants_ok()}")
        log = dc.action_log()
        if log is not None:
            by_knob = {
                k: log.count(k) for k in ("K1", "K2", "K3", "K4", "K5", "K6")
            }
            t.add_note(f"control actions: {by_knob}")
        t.add_note(f"RIP reconfigurations: {dc.state.reconfigurations}")
        return t


def run(
    n_apps: int = 60,
    total_gbps: float = 24.0,
    n_pods: int = 4,
    servers_per_pod: int = 16,
    n_switches: int = 8,
    duration_s: float = 3600.0,
    seed: int = 0,
    trace=None,
    audit: bool = False,
    parallelism: int = 1,
) -> E1Result:
    apps = WorkloadBuilder(
        n_apps=n_apps,
        total_gbps=total_gbps,
        zipf_s=0.8,
        diurnal_fraction=0.5,
        rng_hub=RngHub(seed),
    ).build()
    dc = MegaDataCenter(
        apps,
        config=PlatformConfig(),
        n_pods=n_pods,
        servers_per_pod=servers_per_pod,
        n_switches=n_switches,
        trace=trace,
        audit=audit,
        parallelism=parallelism,
    )
    dc.run(duration_s)
    dc.close()
    return E1Result(dc=dc, duration_s=duration_s)
