"""Shared knob machinery: the action log every experiment reads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(frozen=True)
class ActionRecord:
    """One control action taken by a manager."""

    t: float
    knob: str  # "K1".."K6" or "naive-bgp"
    action: str
    detail: dict = field(default_factory=dict)


class ActionLog:
    """Chronological record of control actions.

    When a trace bus is attached, every recorded action is also emitted
    as a ``knob`` trace event, so K1–K6 invocations land in the same
    deterministic stream as epoch boundaries and journal commits.
    """

    def __init__(self, trace=None):
        self.records: list[ActionRecord] = []
        self.trace = trace

    def record(self, t: float, knob: str, action: str, **detail: Any) -> ActionRecord:
        rec = ActionRecord(t=t, knob=knob, action=action, detail=dict(detail))
        self.records.append(rec)
        if self.trace is not None and self.trace.enabled:
            self.trace.emit(
                "knob", t=t, knob=knob, action=action, detail=dict(detail)
            )
        return rec

    def count(self, knob: Optional[str] = None, action: Optional[str] = None) -> int:
        return sum(
            1
            for r in self.records
            if (knob is None or r.knob == knob)
            and (action is None or r.action == action)
        )

    def __len__(self) -> int:
        return len(self.records)
