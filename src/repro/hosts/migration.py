"""Cost models for VM migration and SnowFlock-style cloning.

Knob K4 (dynamic application deployment) relies on "recent advances in
efficient virtual machine migration [25], [14]".  We model:

* **pre-copy live migration** (Wood et al., NSDI'07 style): total copied
  bytes = image size inflated by dirty-page re-copy rounds; duration =
  bytes / available bandwidth; a short stop-and-copy disruption at the end;
* **fast cloning** (SnowFlock, TOCS'11): a new instance starts from a
  lazily-populated clone in ~seconds, with the image fetched in the
  background.

Both charge their bytes to :class:`MigrationStats`, the "resource-intensive
... turbulence" accounting that the deployment-minimisation policies use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hosts.vm import VM

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Share of a clone's image actually fetched in the background.
BACKGROUND_FETCH_FRACTION = 0.4


@dataclass
class MigrationStats:
    """Aggregate deployment turbulence."""

    migrations: int = 0
    clones: int = 0
    bytes_copied_gb: float = 0.0
    disruption_s: float = 0.0

    @property
    def deployments(self) -> int:
        return self.migrations + self.clones


@dataclass
class MigrationModel:
    """Pre-copy live migration timing/cost."""

    dirty_rounds_factor: float = 1.3  # re-copied fraction across rounds
    stop_copy_s: float = 0.5  # final stop-and-copy blackout

    def copied_gb(self, vm: VM) -> float:
        return vm.image_gb * self.dirty_rounds_factor

    def duration_s(self, vm: VM, bandwidth_gbps: float) -> float:
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        return self.copied_gb(vm) * 8.0 / bandwidth_gbps + self.stop_copy_s

    def migrate(self, env: "Environment", vm: VM, bandwidth_gbps: float, stats: MigrationStats):
        """Simulation process: perform the copy, account the cost."""
        duration = self.duration_s(vm, bandwidth_gbps)
        yield env.timeout(duration)
        stats.migrations += 1
        stats.bytes_copied_gb += self.copied_gb(vm)
        stats.disruption_s += self.stop_copy_s


@dataclass
class CloneModel:
    """SnowFlock-style fast instantiation of an additional replica."""

    activation_s: float = 3.0  # clone is serving after this long

    def clone(self, env: "Environment", vm: VM, stats: MigrationStats):
        """Simulation process: activate a clone; background bytes accounted."""
        yield env.timeout(self.activation_s)
        stats.clones += 1
        stats.bytes_copied_gb += vm.image_gb * BACKGROUND_FETCH_FRACTION
