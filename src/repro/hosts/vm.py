"""Virtual machines: one application instance per VM (paper Section II)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class VMState(enum.Enum):
    BOOTING = "booting"
    RUNNING = "running"
    MIGRATING = "migrating"
    STOPPED = "stopped"


@dataclass
class VM:
    """One VM instance of an application.

    Attributes
    ----------
    vm_id:
        Globally unique id.
    app:
        Application this VM serves.
    cpu_slice:
        Allocated CPU share in normalized units (1.0 = one full server of
        this repo's reference size).  Adjustable at runtime (knob K5).
    mem_gb:
        Memory reservation (fixed for the VM's lifetime).
    image_gb:
        Disk/memory image size; drives migration/cloning cost.
    rip:
        The real IP configured for this VM once it is wired into an LB
        switch's load-balancing group.
    """

    vm_id: str
    app: str
    cpu_slice: float
    mem_gb: float
    image_gb: float = 4.0
    state: VMState = VMState.BOOTING
    rip: Optional[str] = None
    host: Optional[str] = field(default=None, init=False)  # physical server name

    def __post_init__(self):
        if self.cpu_slice < 0:
            raise ValueError("cpu_slice must be non-negative")
        if self.mem_gb <= 0:
            raise ValueError("mem_gb must be positive")

    @property
    def is_serving(self) -> bool:
        """Running VMs with a RIP receive traffic."""
        return self.state == VMState.RUNNING and self.rip is not None
