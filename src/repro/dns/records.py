"""DNS record/answer value types."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VipWeight:
    """One VIP of an application together with its exposure weight.

    Weight 0 means the VIP is currently *not exposed* (never answered) —
    this is the primary actuator of knob K1.
    """

    vip: str
    weight: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError(f"negative exposure weight for {self.vip}")


@dataclass(frozen=True)
class DNSAnswer:
    """An authoritative answer handed to a resolver."""

    app: str
    vip: str
    ttl_s: float
    issued_at: float
