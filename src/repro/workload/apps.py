"""Application specifications."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.workload.demand import DemandProcess


@dataclass
class AppSpec:
    """Everything the platform needs to know about one hosted application.

    Attributes
    ----------
    app_id:
        Unique name (``"app-0003"``).
    popularity:
        Normalized popularity weight (drives VIP allocation).
    demand:
        Traffic demand process in Gbps.
    vm_cpu:
        Nominal CPU slice of one instance VM.
    vm_mem_gb / vm_image_gb:
        Memory reservation and image size of one instance.
    min_instances:
        Floor on active instances (availability requirement).
    n_vips:
        VIPs allocated to this app (popularity-aware; Section IV-A).
    affinity_group:
        Optional co-placement group: tiers of one multi-tier website share
        a group and exchange backend traffic (Section II); the platform
        prefers placing groupmates in the same pods.
    """

    app_id: str
    popularity: float
    demand: DemandProcess
    vm_cpu: float = 0.25
    vm_mem_gb: float = 4.0
    vm_image_gb: float = 4.0
    min_instances: int = 1
    n_vips: int = 3
    affinity_group: Optional[str] = None

    def __post_init__(self):
        if self.vm_cpu <= 0:
            raise ValueError(f"{self.app_id}: vm_cpu must be positive")
        if self.min_instances < 1:
            raise ValueError(f"{self.app_id}: min_instances must be >= 1")
        if self.n_vips < 1:
            raise ValueError(f"{self.app_id}: n_vips must be >= 1")

    def traffic_gbps(self, t: float) -> float:
        return self.demand.rate(t)

    def cpu_demand(self, t: float) -> float:
        """Total CPU units needed to serve the demand at time *t*: one
        normalized CPU unit serves one Gbps."""
        return self.traffic_gbps(t)

    def instances_needed(self, t: float, headroom: float = 1.2) -> int:
        """Instances required at nominal slice size with *headroom*."""
        need = self.cpu_demand(t) * headroom / self.vm_cpu
        return max(self.min_instances, int(need) + (need % 1 > 0))
