"""Knob K4: dynamic application deployment (Section IV-D).

Replicate (clone) or migrate application instances into underloaded pods.
Removing surplus instances from busy pods is left to each pod manager's
placement epoch, which stops VMs its demand no longer needs.  Deployments are
"resource-intensive and can create turbulences", so every operation charges
a :class:`MigrationStats` and the count is the primary cost experiment E7
trades against relief.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.knobs.base import ActionLog
from repro.core.pod import Pod
from repro.hosts.migration import CloneModel, MigrationModel, MigrationStats
from repro.hosts.vm import VM, VMState
from repro.lbswitch.addresses import AddressPool
from repro.workload.apps import AppSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class AppDeployment:
    """K4 executor."""

    def __init__(
        self,
        env: "Environment",
        rip_pool: AddressPool,
        log: Optional[ActionLog] = None,
        fabric_gbps: float = 1.0,
    ):
        self.env = env
        self.rip_pool = rip_pool
        self.log = log if log is not None else ActionLog()
        self.clone_model = CloneModel()
        self.migration_model = MigrationModel()
        self.stats = MigrationStats()
        self.fabric_gbps = fabric_gbps

    def replicate(
        self,
        spec: AppSpec,
        target: Pod,
        on_start: Optional[Callable[[VM], None]] = None,
    ):
        """Simulation process: clone one instance of *spec* into *target*.

        Returns the new VM, or None if no server in the pod can host it.
        """
        server = self._pick_server(target, spec.vm_cpu, spec.vm_mem_gb, spec.app_id)
        if server is None:
            self.log.record(
                self.env.now, "K4", "replicate-failed", app=spec.app_id, pod=target.name
            )
            return None
        vm = VM(
            vm_id=f"{spec.app_id}@{server.name}",
            app=spec.app_id,
            cpu_slice=spec.vm_cpu,
            mem_gb=spec.vm_mem_gb,
            image_gb=spec.vm_image_gb,
            state=VMState.BOOTING,
        )
        server.attach(vm)  # reserves capacity during the clone
        yield from self.clone_model.clone(self.env, vm, self.stats)
        vm.state = VMState.RUNNING
        vm.rip = self.rip_pool.allocate()
        if on_start is not None:
            on_start(vm)
        self.log.record(
            self.env.now,
            "K4",
            "replicate",
            app=spec.app_id,
            pod=target.name,
            server=server.name,
        )
        return vm

    def migrate(self, vm: VM, source: Pod, target: Pod):
        """Simulation process: live-migrate *vm* from *source* to *target*.

        Returns True on success.
        """
        server_from = source.server(vm.host)
        server_to = self._pick_server(target, vm.cpu_slice, vm.mem_gb, vm.app)
        if server_to is None:
            self.log.record(
                self.env.now, "K4", "migrate-failed", vm=vm.vm_id, pod=target.name
            )
            return False
        vm.state = VMState.MIGRATING
        yield from self.migration_model.migrate(
            self.env, vm, bandwidth_gbps=self.fabric_gbps, stats=self.stats
        )
        server_from.detach(vm.vm_id)
        vm.vm_id = f"{vm.app}@{server_to.name}"
        server_to.attach(vm)
        vm.state = VMState.RUNNING
        self.log.record(
            self.env.now,
            "K4",
            "migrate",
            vm=vm.vm_id,
            frm=source.name,
            to=target.name,
        )
        return True

    @staticmethod
    def _pick_server(pod: Pod, cpu: float, mem: float, app: str):
        """Least-loaded server that fits and has no instance of the app."""
        best = None
        for server in pod.servers:
            if server.vms_of(app):
                continue
            if not server.can_fit(cpu, mem):
                continue
            if best is None or server.cpu_allocated < best.cpu_allocated:
                best = server
        return best
