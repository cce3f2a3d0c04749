"""Deterministic construction of whole workloads from a few parameters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sim.rng import RngHub
from repro.workload.apps import AppSpec
from repro.workload.demand import (
    ConstantDemand,
    DemandProcess,
    DiurnalDemand,
    FlashCrowdDemand,
)
from repro.workload.popularity import allocate_vip_counts, zipf_weights


@dataclass
class WorkloadBuilder:
    """Build a fleet of :class:`AppSpec` with Zipf popularity.

    Parameters
    ----------
    n_apps:
        Number of applications.
    total_gbps:
        Aggregate mean traffic demand across all applications.
    zipf_s:
        Popularity skew.
    mean_vips:
        Average VIPs per application (the paper's default is 3).
    diurnal_fraction:
        Fraction of apps whose demand is diurnal (rest constant); peak
        times are spread uniformly over the day.
    rng_hub:
        Seed source; every property of app *i* derives deterministically
        from it.
    """

    n_apps: int = 100
    total_gbps: float = 100.0
    zipf_s: float = 0.8
    mean_vips: float = 3.0
    diurnal_fraction: float = 0.5
    rng_hub: RngHub = field(default_factory=lambda: RngHub(0))

    def build(self) -> list[AppSpec]:
        if self.n_apps < 1:
            raise ValueError("need at least one app")
        pop = zipf_weights(self.n_apps, self.zipf_s)
        vips = allocate_vip_counts(pop, mean_vips=self.mean_vips)
        rng = self.rng_hub.stream("workload")
        apps = []
        for i in range(self.n_apps):
            mean_demand = self.total_gbps * pop[i]
            if rng.random() < self.diurnal_fraction:
                demand: DemandProcess = DiurnalDemand(
                    mean=mean_demand,
                    amplitude=float(rng.uniform(0.2, 0.6)),
                    peak_time_s=float(rng.uniform(0, 86400)),
                )
            else:
                demand = ConstantDemand(mean_demand)
            apps.append(
                AppSpec(
                    app_id=f"app-{i:05d}",
                    popularity=float(pop[i]),
                    demand=demand,
                    n_vips=int(vips[i]),
                )
            )
        return apps

    def with_flash_crowd(
        self,
        apps: list[AppSpec],
        victims: list[int],
        spike_factor: float = 8.0,
        start_s: float = 600.0,
        ramp_s: float = 120.0,
        hold_s: float = 600.0,
    ) -> list[AppSpec]:
        """Replace the demand of *victims* (indices) with a flash crowd of
        the same baseline level."""
        out = list(apps)
        for i in victims:
            base = out[i].demand.rate(0.0)
            out[i] = AppSpec(
                app_id=out[i].app_id,
                popularity=out[i].popularity,
                demand=FlashCrowdDemand(
                    base=base,
                    spike_factor=spike_factor,
                    start_s=start_s,
                    ramp_s=ramp_s,
                    hold_s=hold_s,
                ),
                vm_cpu=out[i].vm_cpu,
                vm_mem_gb=out[i].vm_mem_gb,
                vm_image_gb=out[i].vm_image_gb,
                min_instances=out[i].min_instances,
                n_vips=out[i].n_vips,
            )
        return out
