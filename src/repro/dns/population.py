"""Resolver populations: agent-based and fluid.

:class:`ResolverPopulation` instantiates N :class:`Resolver` agents (a
configurable fraction of them TTL violators) — faithful but O(N) per epoch.

:class:`FluidDNSModel` tracks, per application, the *fraction of client
demand currently directed at each VIP* as a continuous state that relaxes
toward the authority's answer distribution: in a time step ``dt`` a
compliant client re-resolves with probability ``1 - exp(-dt/ttl)`` and a
violator with the TTL stretched by its violation factor.  This is the
standard fluid limit of the agent model and is what epoch-level experiments
use (it makes 300k-app scenarios tractable).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.dns.authority import AuthoritativeDNS
from repro.dns.resolver import Resolver

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class ResolverPopulation:
    """N independent resolvers; aggregate share measurement."""

    def __init__(
        self,
        env: "Environment",
        authority: AuthoritativeDNS,
        rng: np.random.Generator,
        size: int,
        violator_fraction: float = 0.0,
        violation_factor: float = 10.0,
    ):
        if size < 1:
            raise ValueError("population size must be >= 1")
        if not 0 <= violator_fraction <= 1:
            raise ValueError("violator_fraction must be in [0, 1]")
        self.env = env
        self.resolvers: list[Resolver] = []
        n_violators = round(size * violator_fraction)
        for i in range(size):
            self.resolvers.append(
                Resolver(
                    env,
                    authority,
                    rng=np.random.default_rng(rng.integers(0, 2**63)),
                    violator=i < n_violators,
                    violation_factor=violation_factor,
                )
            )

    def lookup_all(self, app: str) -> dict[str, int]:
        """Every resolver resolves *app* once; returns VIP -> count."""
        counts: dict[str, int] = {}
        for r in self.resolvers:
            vip = r.lookup(app)
            counts[vip] = counts.get(vip, 0) + 1
        return counts

    def shares(self, app: str) -> dict[str, float]:
        counts = self.lookup_all(app)
        total = sum(counts.values())
        return {vip: c / total for vip, c in counts.items()}


class FluidDNSModel:
    """Continuous-state model of client VIP shares per application."""

    def __init__(
        self,
        authority: AuthoritativeDNS,
        violator_fraction: float = 0.1,
        violation_factor: float = 10.0,
    ):
        if not 0 <= violator_fraction <= 1:
            raise ValueError("violator_fraction must be in [0, 1]")
        if violation_factor < 1:
            raise ValueError("violation_factor must be >= 1")
        self.authority = authority
        self.violator_fraction = violator_fraction
        self.violation_factor = violation_factor
        # app -> (compliant shares, violator shares); each vip -> fraction.
        self._compliant: dict[str, dict[str, float]] = {}
        self._violator: dict[str, dict[str, float]] = {}

    def ensure_app(self, app: str) -> None:
        """Initialize shares at the authority's current distribution."""
        if app not in self._compliant:
            dist = self.authority.answer_distribution(app)
            self._compliant[app] = dict(dist)
            self._violator[app] = dict(dist)

    def advance(self, dt: float) -> None:
        """Relax every app's shares toward the authority's distribution."""
        if dt < 0:
            raise ValueError("dt must be non-negative")
        for app in list(self._compliant):
            ttl = self.authority.ttl_for(app)
            target = self.authority.answer_distribution(app)
            a_c = 1.0 - math.exp(-dt / ttl)
            a_v = 1.0 - math.exp(-dt / (ttl * self.violation_factor))
            self._compliant[app] = _relax(self._compliant[app], target, a_c)
            self._violator[app] = _relax(self._violator[app], target, a_v)

    def shares(self, app: str) -> dict[str, float]:
        """Current VIP shares of total client demand for *app*."""
        self.ensure_app(app)
        v = self.violator_fraction
        comp, viol = self._compliant[app], self._violator[app]
        vips = sorted(set(comp) | set(viol))
        return {
            vip: (1 - v) * comp.get(vip, 0.0) + v * viol.get(vip, 0.0)
            for vip in vips
        }

    def share_of(self, app: str, vip: str) -> float:
        return self.shares(app).get(vip, 0.0)

    def residual_share(self, app: str, vip: str) -> float:
        """Share still flowing to a VIP that the authority no longer
        answers with — the traffic that must drain before a K2 transfer."""
        return self.share_of(app, vip)


def _relax(
    current: Mapping[str, float], target: Mapping[str, float], alpha: float
) -> dict[str, float]:
    """One exponential-relaxation step current -> target."""
    vips = sorted(set(current) | set(target))
    return {
        vip: (1 - alpha) * current.get(vip, 0.0) + alpha * target.get(vip, 0.0)
        for vip in vips
    }
