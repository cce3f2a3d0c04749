"""Extension experiments for the aspects the paper defers.

* **X1 energy** (Section VI): under a diurnal workload, consolidation
  (stop-idle + parking empty servers) versus spreading, measured in kWh.
* **X2 link costs** (Section IV-A): "control the traffic among the
  different access ISPs according to the business requirements (e.g.,
  different link usage costs)" — cost-aware exposure versus pure
  balance.
* **X3 co-placement** (Section II): multi-tier websites; affinity-aware
  pod bootstrap versus oblivious, measured as the fraction of backend
  traffic crossing pod boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import Table
from repro.core import MegaDataCenter, PlatformConfig
from repro.core.affinity import affinity_groups, cross_pod_backend_gbps, pod_fractions
from repro.core.energy import EnergyAccountant, PowerModel
from repro.dns.policy import CheapestLinkPolicy, InverseUtilizationPolicy
from repro.placement import GreedyController
from repro.sim import RngHub
from repro.workload import WorkloadBuilder
from repro.workload.apps import AppSpec
from repro.workload.demand import ConstantDemand


# ------------------------------------------------------------- X1: energy


@dataclass
class X1Result:
    rows: list[tuple] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            "X1 — energy under diurnal load: consolidation vs spreading (Section VI)",
            ["policy", "energy (kWh)", "parked server-hours", "satisfied", "savings"],
        )
        base = self.rows[0][1] if self.rows else 1.0
        for row in self.rows:
            t.add_row(*row, f"{(1 - row[1] / base) * 100:.1f}%")
        t.add_note(
            "idle power dominates the linear server curve, so stopping idle "
            "instances and parking the emptied servers is where the energy is"
        )
        return t


def _run_energy(consolidate: bool, duration_s: float, seed: int) -> tuple:
    apps = WorkloadBuilder(
        n_apps=20,
        total_gbps=12.0,
        diurnal_fraction=1.0,
        rng_hub=RngHub(seed),
    ).build()
    dc = MegaDataCenter(
        apps,
        config=PlatformConfig(epoch_s=300.0),  # 5-min epochs over a day
        n_pods=3,
        servers_per_pod=10,
        n_switches=4,
        pod_controller_factory=lambda: GreedyController(
            stop_idle=consolidate, packing=consolidate
        ),
    )
    accountant = EnergyAccountant(dc.env, PowerModel())

    all_servers = [
        s for m in dc.pod_managers.values() for s in m.pod.servers
    ]
    accountant.sample(all_servers)
    remaining = duration_s
    step = dc.config.epoch_s
    while remaining > 0:
        dc.run(min(step, remaining))
        remaining -= step
        servers = [s for m in dc.pod_managers.values() for s in m.pod.servers]
        if consolidate:
            accountant.park_all_empty(servers)
        accountant.sample(servers)
    return (
        "consolidate + park" if consolidate else "spread (no stop-idle)",
        round(accountant.energy_kwh, 2),
        round(accountant.parked_server_hours, 1),
        round(dc.satisfied.time_average(), 4),
    )


def run_energy(duration_s: float = 86400.0, seed: int = 3) -> X1Result:
    result = X1Result()
    result.rows.append(_run_energy(False, duration_s, seed))
    result.rows.append(_run_energy(True, duration_s, seed))
    return result


# ------------------------------------------------------- X2: link costs


@dataclass
class X2Result:
    rows: list[tuple] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            "X2 — cost-aware selective exposure (business requirements, Section IV-A)",
            ["policy", "total cost rate ($/Gbps-s)", "max link util"],
        )
        for row in self.rows:
            t.add_row(*row)
        t.add_note(
            "the cheapest-link policy shifts demand to low-cost ISPs while "
            "the utilization cutoff still prevents overload"
        )
        return t


def run_link_costs(duration_s: float = 1800.0, seed: int = 1) -> X2Result:
    links = (
        ("link-cheap-1", "isp-budget", "AR1", "br-1", 10.0, 1.0),
        ("link-cheap-2", "isp-budget", "AR2", "br-1", 10.0, 1.0),
        ("link-pricey-1", "isp-premium", "AR3", "br-2", 10.0, 4.0),
        ("link-pricey-2", "isp-premium", "AR4", "br-2", 10.0, 4.0),
    )
    result = X2Result()
    for name, policy in (
        ("balance-only", InverseUtilizationPolicy(cutoff=0.85)),
        ("cheapest-link", CheapestLinkPolicy(cutoff=0.85)),
    ):
        apps = WorkloadBuilder(
            n_apps=16, total_gbps=12.0, diurnal_fraction=0.0, rng_hub=RngHub(seed)
        ).build()
        dc = MegaDataCenter(
            apps,
            config=PlatformConfig(),
            n_pods=2,
            servers_per_pod=10,
            n_switches=4,
            links=links,
            exposure_policy=policy,
            proactive_exposure=True,
        )
        dc.run(duration_s)
        result.rows.append(
            (
                name,
                round(dc.internet.total_cost_rate(), 2),
                round(max(dc.link_utilizations().values()), 3),
            )
        )
    return result


# ------------------------------------------------------ X3: co-placement


@dataclass
class X3Result:
    rows: list[tuple] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            "X3 — multi-tier co-placement: affinity-aware vs oblivious bootstrap (Section II)",
            ["bootstrap", "cross-pod backend (Gbps)", "total backend (Gbps)", "cross fraction", "satisfied"],
        )
        for row in self.rows:
            t.add_row(*row)
        t.add_note(
            "logical pods make co-placement a bootstrap policy: tiers of a "
            "website land in the same pods, keeping backend chatter intra-pod"
        )
        return t


def _tiered_workload(n_sites: int, gbps_per_site: float) -> list[AppSpec]:
    """n_sites websites, each a frontend + app-tier + db-tier group."""
    apps = []
    tiers = (("fe", 0.5), ("app", 0.3), ("db", 0.2))
    for s in range(n_sites):
        for tier, share in tiers:
            apps.append(
                AppSpec(
                    f"site{s:02d}-{tier}",
                    1.0 / (3 * n_sites),
                    ConstantDemand(gbps_per_site * share),
                    n_vips=2,
                    affinity_group=f"site{s:02d}",
                )
            )
    return apps


def run_coplacement(
    n_sites: int = 8, gbps_per_site: float = 1.2, duration_s: float = 1200.0
) -> X3Result:
    result = X3Result()
    for affinity_aware in (False, True):
        apps = _tiered_workload(n_sites, gbps_per_site)
        if not affinity_aware:
            # Strip the groups so the bootstrap scatters tiers.
            apps = [
                AppSpec(
                    a.app_id, a.popularity, a.demand, a.vm_cpu, a.vm_mem_gb,
                    a.vm_image_gb, a.min_instances, a.n_vips,
                    affinity_group=None,
                )
                for a in apps
            ]
        dc = MegaDataCenter(
            apps,
            config=PlatformConfig(),
            n_pods=4,
            servers_per_pod=10,
            n_switches=4,
        )
        dc.run(duration_s)
        pods = {name: m.pod for name, m in dc.pod_managers.items()}
        # Measure against the grouped view regardless of bootstrap mode.
        grouped = affinity_groups(_tiered_workload(n_sites, gbps_per_site))
        cross, total = cross_pod_backend_gbps(
            grouped, lambda app: pod_fractions(pods, app), t=dc.env.now
        )
        result.rows.append(
            (
                "affinity-aware" if affinity_aware else "oblivious",
                round(cross, 3),
                round(total, 3),
                round(cross / total, 4) if total else 0.0,
                round(dc.satisfied.current, 4),
            )
        )
    return result
