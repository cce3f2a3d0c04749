"""The knob ladder: in what order to reach for the knobs.

The paper observes the knobs differ enormously in cost and agility: weight
changes and slice adjustments act in seconds and consume nothing; cloning
and migration are "resource-intensive and can create turbulences"; server
transfers reshape pods.  The ladder encodes an escalation policy —
cheapest knob first, escalate only while the overload persists — plus the
ablation alternative (deployment-first) that experiment E7 compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

#: The default escalation order (cheap and fast -> expensive and slow).
CHEAP_FIRST: tuple[str, ...] = ("K6", "K5", "K4", "K3")
#: The ablation: reach for deployment immediately.
DEPLOY_FIRST: tuple[str, ...] = ("K4", "K6", "K5", "K3")


@dataclass
class KnobLadder:
    """Escalation policy over pod-relief knobs.

    ``next_knob(persisted_epochs)`` returns which knob to use for an
    overload that has persisted for the given number of epochs: rung 0 for
    a fresh overload, escalating one rung per ``patience`` epochs while it
    persists.
    """

    order: Sequence[str] = CHEAP_FIRST
    patience: int = 1

    def __post_init__(self):
        if not self.order:
            raise ValueError("ladder needs at least one knob")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        unknown = set(self.order) - {"K3", "K4", "K5", "K6"}
        if unknown:
            raise ValueError(f"unknown knobs in ladder: {sorted(unknown)}")

    def next_knob(self, persisted_epochs: int) -> str:
        if persisted_epochs < 0:
            raise ValueError("persisted_epochs must be >= 0")
        rung = min(persisted_epochs // self.patience, len(self.order) - 1)
        return self.order[rung]
