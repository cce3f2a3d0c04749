"""Client-side resolvers with TTL caches and optional TTL violation.

Per the measurement studies the paper cites ([18] Pang et al., [4] Callahan
et al.), a fraction of clients keeps using DNS answers long past their TTL.
A *violator* resolver stretches every TTL by ``violation_factor``; a
compliant one re-queries as soon as its cached answer expires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.dns.authority import AuthoritativeDNS
from repro.dns.records import DNSAnswer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Resolver:
    """One client-side caching resolver."""

    def __init__(
        self,
        env: "Environment",
        authority: AuthoritativeDNS,
        rng: np.random.Generator,
        violator: bool = False,
        violation_factor: float = 10.0,
    ):
        if violation_factor < 1:
            raise ValueError("violation_factor must be >= 1")
        self.env = env
        self.authority = authority
        self.rng = rng
        self.violator = violator
        self.violation_factor = violation_factor
        self._cache: dict[str, DNSAnswer] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def effective_ttl(self, answer: DNSAnswer) -> float:
        return answer.ttl_s * (self.violation_factor if self.violator else 1.0)

    def lookup(self, app: str) -> str:
        """Resolve *app* to a VIP, honouring (or stretching) the TTL."""
        cached = self._cache.get(app)
        if cached is not None:
            age = self.env.now - cached.issued_at
            if age < self.effective_ttl(cached):
                self.cache_hits += 1
                return cached.vip
        self.cache_misses += 1
        answer = self.authority.resolve(app, self.rng)
        self._cache[app] = answer
        return answer.vip
