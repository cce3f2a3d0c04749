"""Periodic control-plane checkpoints.

A checkpoint snapshots the VIP/RIP manager's volatile registries (and,
when the facade provides one, a :meth:`repro.core.state.PlatformState.snapshot`
of the datacenter state) together with the journal epoch it covers.
Recovery restores the latest checkpoint and replays only the journal tail
past its epoch — cost bounded by checkpoint interval, not history length.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class Checkpoint:
    """One consistent snapshot of the control plane."""

    #: Highest journal epoch whose effects are included in the snapshot.
    epoch: int
    #: Simulation time the checkpoint was taken.
    t: float
    #: app -> {vip -> switch name}
    registry: dict[str, dict[str, str]]
    #: rip -> (vip, switch name)
    rip_index: dict[str, tuple[str, str]]
    #: Optional facade-level state snapshot (PlatformState.snapshot()).
    state: Optional[dict[str, Any]] = None


@dataclass
class CheckpointStore:
    """Durable storage holding the most recent checkpoint."""

    latest: Optional[Checkpoint] = field(default=None, init=False)
    taken: int = field(default=0, init=False)
    #: Journal records discarded by post-checkpoint truncation.
    truncated: int = field(default=0, init=False)
    history_epochs: list[int] = field(default_factory=list, init=False)

    def capture(
        self,
        epoch: int,
        t: float,
        registry: dict[str, dict[str, str]],
        rip_index: dict[str, tuple[str, str]],
        state: Optional[dict[str, Any]] = None,
    ) -> Checkpoint:
        """Deep-copy the live registries into a new latest checkpoint."""
        if self.latest is not None and epoch < self.latest.epoch:
            raise ValueError(
                f"checkpoint epoch {epoch} precedes latest {self.latest.epoch}"
            )
        cp = Checkpoint(
            epoch=epoch,
            t=t,
            registry={app: dict(vips) for app, vips in registry.items()},
            rip_index=dict(rip_index),
            state=copy.deepcopy(state) if state is not None else None,
        )
        self.latest = cp
        self.taken += 1
        self.history_epochs.append(epoch)
        return cp

    @property
    def epoch(self) -> int:
        """Epoch of the latest checkpoint (0 when none taken)."""
        return self.latest.epoch if self.latest is not None else 0

    def restore_registry(self) -> dict[str, dict[str, str]]:
        if self.latest is None:
            return {}
        return {app: dict(vips) for app, vips in self.latest.registry.items()}

    def restore_rip_index(self) -> dict[str, tuple[str, str]]:
        if self.latest is None:
            return {}
        return dict(self.latest.rip_index)
