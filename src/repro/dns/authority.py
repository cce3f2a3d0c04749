"""The platform's authoritative DNS server.

The global manager configures, per application, a weighted set of VIPs; the
authority answers each query with one VIP drawn with probability
proportional to its weight.  Changing the weights is instantaneous at the
authority — the *clients* converge over roughly one TTL (plus the violator
tail), which is exactly the dynamics experiment E4 measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from repro.dns.policy import weighted_pick
from repro.dns.records import DNSAnswer, VipWeight

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class AuthoritativeDNS:
    """Weighted-answer authoritative server for all hosted applications."""

    def __init__(self, env: "Environment", default_ttl_s: float = 30.0):
        if default_ttl_s <= 0:
            raise ValueError("TTL must be positive")
        self.env = env
        self.default_ttl_s = default_ttl_s
        self._zones: dict[str, list[VipWeight]] = {}
        self._ttl: dict[str, float] = {}
        self.queries = 0
        self.weight_updates = 0

    # -- configuration (global-manager facing) -----------------------------
    def configure(
        self, app: str, weights: Mapping[str, float], ttl_s: Optional[float] = None
    ) -> None:
        """Set the full VIP weight vector for *app* (replaces the old one)."""
        if not weights:
            raise ValueError(f"app {app}: empty VIP set")
        records = [VipWeight(vip, w) for vip, w in sorted(weights.items())]
        if all(r.weight == 0 for r in records):
            raise ValueError(f"app {app}: all VIP weights are zero")
        self._zones[app] = records
        if ttl_s is not None:
            if ttl_s <= 0:
                raise ValueError("TTL must be positive")
            self._ttl[app] = ttl_s
        self.weight_updates += 1

    def weights(self, app: str) -> dict[str, float]:
        return {r.vip: r.weight for r in self._zones[app]}

    def ttl_for(self, app: str) -> float:
        return self._ttl.get(app, self.default_ttl_s)

    # -- resolution (resolver facing) ---------------------------------------
    def resolve(self, app: str, rng: np.random.Generator) -> DNSAnswer:
        """Answer one query for *app*."""
        if app not in self._zones:
            raise KeyError(f"unknown application {app}")
        self.queries += 1
        records = self._zones[app]
        weights = np.asarray([r.weight for r in records], dtype=float)
        # One uniform draw through the shared inverse-CDF keeps the RNG
        # stream and the chosen index bit-identical to the historical
        # ``rng.choice(len(records), p=probs)`` while letting the columnar
        # data plane replay the exact same selection from recorded uniforms.
        idx = weighted_pick(weights, rng.random())
        return DNSAnswer(
            app=app,
            vip=records[idx].vip,
            ttl_s=self.ttl_for(app),
            issued_at=self.env.now,
        )

    def answer_distribution(self, app: str) -> dict[str, float]:
        """The exact probability each VIP is answered with (fluid model input)."""
        records = self._zones[app]
        total = sum(r.weight for r in records)
        return {r.vip: r.weight / total for r in records}
