"""Knob K5: VM capacity adjustment (Section IV-E).

"A lighter-weight alternative to cloning or migrating a VM is to simply
readjust VM capacity among the VMs co-located on the same physical server."
The hypervisor applies slice changes on the fly in ~seconds; this knob
computes demand-proportional slices for one server and applies them
shrink-first so capacity is never transiently exceeded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from repro.core.knobs.base import ActionLog
from repro.hosts.server import PhysicalServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class VmCapacityAdjustment:
    """K5 executor (pod-manager facing)."""

    def __init__(
        self,
        env: "Environment",
        log: Optional[ActionLog] = None,
        adjust_latency_s: float = 2.0,
    ):
        self.env = env
        self.log = log if log is not None else ActionLog()
        self.adjust_latency_s = adjust_latency_s

    def plan_slices(
        self, server: PhysicalServer, cpu_demand_by_app: Mapping[str, float]
    ) -> dict[str, float]:
        """Demand-proportional slices for the server's VMs.

        Demands are scaled down proportionally if they exceed capacity;
        spare capacity is left unallocated (it is headroom, not waste).
        Returns vm_id -> new slice.
        """
        vms = server.vms
        demands = {vm.vm_id: max(0.0, cpu_demand_by_app.get(vm.app, 0.0)) for vm in vms}
        total = sum(demands.values())
        cap = server.spec.cpu_capacity
        scale = min(1.0, cap / total) if total > 0 else 0.0
        return {vm_id: d * scale for vm_id, d in demands.items()}

    def apply(self, server: PhysicalServer, cpu_demand_by_app: Mapping[str, float]):
        """Simulation process: hot-resize all of a server's VMs.

        One hypervisor round-trip total (slice changes batch through the
        same management call), shrink-first ordering.  Returns the plan.
        """
        plan = self.plan_slices(server, cpu_demand_by_app)
        order = sorted(
            plan.items(), key=lambda kv: kv[1] - server.vm(kv[0]).cpu_slice
        )
        yield self.env.timeout(self.adjust_latency_s)
        for vm_id, new_slice in order:
            server.resize(vm_id, new_slice)
        self.log.record(
            self.env.now,
            "K5",
            "adjust",
            server=server.name,
            slices={k: round(v, 4) for k, v in plan.items()},
        )
        return plan
