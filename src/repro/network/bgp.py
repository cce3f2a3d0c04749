"""BGP route advertisement model for VIPs at access routers.

The paper contrasts two ways to move client traffic between access links:

* the **naive** way — withdraw the VIP's route from the overloaded link's
  access router and re-advertise it elsewhere (with AS-path padding first to
  drain gracefully).  Slow and route-churn heavy.
* **selective VIP exposure** (knob K1) — routes stay put; DNS steers demand.
  Route updates only happen in infrequent periodic reclamation of unused
  VIPs.

This module provides the route table, update accounting, and the timing of
convergence, so benchmark E4 can compare both mechanisms quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


@dataclass
class RouteUpdateLog:
    """Counts route updates by kind (the churn the paper wants to avoid)."""

    advertisements: int = field(default=0, init=False)
    withdrawals: int = field(default=0, init=False)
    paddings: int = field(default=0, init=False)

    @property
    def total(self) -> int:
        return self.advertisements + self.withdrawals + self.paddings


@dataclass(frozen=True)
class Advertisement:
    vip: str
    link: str  # access link name
    padded: bool = False


class BGPAnnouncer:
    """Route state of the platform's VIPs at the ISP access routers.

    Timing model: an advertisement or withdrawal becomes effective after
    ``convergence_s`` (eBGP propagation to the relevant AR); AS-path padding
    also converges in ``convergence_s`` and makes the route least-preferred
    (no *new* connections arrive through it).
    """

    def __init__(self, env: "Environment", convergence_s: float = 30.0):
        self.env = env
        self.convergence_s = convergence_s
        self.log = RouteUpdateLog()
        # vip -> {link_name: Advertisement}
        self._routes: dict[str, dict[str, Advertisement]] = {}

    # -- queries -----------------------------------------------------------
    def links_for(self, vip: str, include_padded: bool = False) -> list[str]:
        ads = self._routes.get(vip, {})
        return sorted(
            l for l, ad in ads.items() if include_padded or not ad.padded
        )

    def all_vips(self) -> list[str]:
        return sorted(self._routes)

    # -- mutations (each costs one route update) ----------------------------
    def advertise(self, vip: str, link: str):
        """Announce *vip* through *link*; yields until converged."""
        self.log.advertisements += 1
        yield self.env.timeout(self.convergence_s)
        self._routes.setdefault(vip, {})[link] = Advertisement(vip, link)

    def withdraw(self, vip: str, link: str):
        """Withdraw *vip* from *link*; yields until converged."""
        self.log.withdrawals += 1
        yield self.env.timeout(self.convergence_s)
        ads = self._routes.get(vip, {})
        ads.pop(link, None)
        if not ads:
            self._routes.pop(vip, None)

    def pad(self, vip: str, link: str):
        """Advertise a padded (deprioritised) AS path for *vip* at *link*.

        The paper's graceful-drain step: existing connections keep working,
        new connections prefer other routes.
        """
        self.log.paddings += 1
        yield self.env.timeout(self.convergence_s)
        ads = self._routes.get(vip)
        if ads and link in ads:
            ads[link] = Advertisement(vip, link, padded=True)

    # -- synchronous variants for non-simulated (setup) use ------------------
    def advertise_now(self, vip: str, link: str) -> None:
        """Install a route instantly (initial configuration, not churn)."""
        self._routes.setdefault(vip, {})[link] = Advertisement(vip, link)
