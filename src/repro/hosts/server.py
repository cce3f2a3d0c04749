"""Physical servers and their capacity accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hosts.vm import VM, VMState


@dataclass(frozen=True)
class ServerSpec:
    """Hardware shape of a server."""

    cpu_capacity: float = 1.0  # normalized CPU units
    mem_gb: float = 32.0


class PhysicalServer:
    """A server hosting VMs, with hard CPU/memory capacity limits.

    CPU is allocatable in fractional slices (sum of slices <= capacity);
    memory is reserved per VM.  The pod a server currently belongs to is
    *logical* state (Section IV-C): reassigning it is knob K3's core move
    and touches no topology.
    """

    def __init__(self, name: str, spec: ServerSpec = ServerSpec()):
        self.name = name
        self.spec = spec
        self.pod: Optional[str] = None
        self._vms: dict[str, VM] = {}
        #: Monotonic counter bumped on every attach/detach.  Lets callers
        #: that cache derived views of the VM set (e.g. the pod manager's
        #: current-placement matrix) detect staleness in O(1) per server
        #: instead of rescanning every VM.
        self.placement_rev = 0

    # -- capacity ---------------------------------------------------------
    @property
    def vms(self) -> list[VM]:
        return list(self._vms.values())

    @property
    def cpu_allocated(self) -> float:
        return sum(vm.cpu_slice for vm in self._vms.values())

    @property
    def mem_allocated(self) -> float:
        return sum(vm.mem_gb for vm in self._vms.values())

    @property
    def cpu_free(self) -> float:
        return self.spec.cpu_capacity - self.cpu_allocated

    @property
    def mem_free(self) -> float:
        return self.spec.mem_gb - self.mem_allocated

    @property
    def utilization(self) -> float:
        return self.cpu_allocated / self.spec.cpu_capacity

    def can_fit(self, cpu_slice: float, mem_gb: float) -> bool:
        return cpu_slice <= self.cpu_free + 1e-9 and mem_gb <= self.mem_free + 1e-9

    @property
    def is_empty(self) -> bool:
        return not self._vms

    # -- VM management ------------------------------------------------------
    def attach(self, vm: VM) -> None:
        """Place *vm* on this server (capacity-checked)."""
        if vm.vm_id in self._vms:
            raise ValueError(f"{vm.vm_id} already on {self.name}")
        if not self.can_fit(vm.cpu_slice, vm.mem_gb):
            raise ValueError(
                f"{self.name}: cannot fit {vm.vm_id} "
                f"(need cpu={vm.cpu_slice}, mem={vm.mem_gb}; "
                f"free cpu={self.cpu_free:.3f}, mem={self.mem_free:.1f})"
            )
        vm.host = self.name
        self._vms[vm.vm_id] = vm
        self.placement_rev += 1

    def detach(self, vm_id: str) -> VM:
        if vm_id not in self._vms:
            raise KeyError(f"{vm_id} not on {self.name}")
        vm = self._vms.pop(vm_id)
        vm.host = None
        self.placement_rev += 1
        return vm

    def vm(self, vm_id: str) -> VM:
        return self._vms[vm_id]

    def vms_of(self, app: str) -> list[VM]:
        return [vm for vm in self._vms.values() if vm.app == app]

    def resize(self, vm_id: str, new_cpu_slice: float) -> None:
        """Change a VM's CPU slice in place (capacity-checked)."""
        vm = self._vms[vm_id]
        if new_cpu_slice < 0:
            raise ValueError("cpu slice must be non-negative")
        others = self.cpu_allocated - vm.cpu_slice
        if others + new_cpu_slice > self.spec.cpu_capacity + 1e-9:
            raise ValueError(
                f"{self.name}: resize of {vm_id} to {new_cpu_slice} exceeds capacity"
            )
        vm.cpu_slice = new_cpu_slice
