"""Physical servers, virtual machines, migration.

Applications run one per VM (Section II); a server pod manager places VMs
on servers, and — knob K5 (:mod:`repro.core.knobs.vm_capacity`) — resizes
a running VM's resource slice on the fly (VMware-ESX-style hot add, no
reboot, latency of seconds).  Migration and SnowFlock-style cloning carry
explicit cost models because knob K4's trade-off is relief vs. deployment
cost.
"""

from repro.hosts.server import PhysicalServer, ServerSpec
from repro.hosts.vm import VM, VMState
from repro.hosts.migration import CloneModel, MigrationModel, MigrationStats

__all__ = [
    "PhysicalServer",
    "ServerSpec",
    "VM",
    "VMState",
    "MigrationModel",
    "CloneModel",
    "MigrationStats",
]
