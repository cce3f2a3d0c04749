"""Access connection layer: ISPs, access routers, access links, border routers.

Figure 1 of the paper: the data center reaches the Internet through border
routers connected over *access links* to the *access routers* (ARs) of the
ISPs it buys connectivity from.  Traffic engineering across these links is
knob K1's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sim.monitor import UtilizationMonitor

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


@dataclass
class AccessLink:
    """A link between an ISP access router and a border router.

    Parameters
    ----------
    name:
        Unique name, e.g. ``"link-a"``.
    isp:
        Owning ISP (business constraints attach here).
    access_router:
        Name of the ISP-side access router this link terminates at.
    capacity_gbps:
        Link capacity.
    cost_per_gbps:
        Usage cost — the paper's "different link usage costs" business
        requirement; policies may prefer cheap links.
    """

    name: str
    isp: str
    access_router: str
    capacity_gbps: float
    cost_per_gbps: float = 1.0
    monitor: Optional[UtilizationMonitor] = field(
        default=None, init=False, repr=False
    )
    #: Operational state; a down link carries no traffic (fault injection).
    up: bool = field(default=True, init=False)

    def attach(self, env: "Environment") -> "AccessLink":
        """Create the utilization monitor once a simulation exists."""
        self.monitor = UtilizationMonitor(env, self.capacity_gbps, self.name)
        return self

    # -- fault injection ----------------------------------------------------
    @property
    def is_up(self) -> bool:
        return self.up

    def fail(self) -> None:
        """Take the link down: demand addressed to it is dropped until the
        DNS re-steer (K1) moves clients away."""
        self.up = False
        if self.monitor is not None:
            self.monitor.set_load(0.0)

    def restore(self) -> None:
        self.up = True

    @property
    def load_gbps(self) -> float:
        return self.monitor.load if self.monitor else 0.0

    @property
    def utilization(self) -> float:
        return self.monitor.utilization if self.monitor else 0.0

    def set_load(self, gbps: float) -> None:
        if self.monitor is None:
            raise RuntimeError(f"{self.name} not attached to an environment")
        self.monitor.set_load(gbps)

    @property
    def cost_rate(self) -> float:
        """Current cost per unit time."""
        return self.load_gbps * self.cost_per_gbps


@dataclass
class BorderRouter:
    """A border router: terminates access links, fans out to all LB switches.

    In the paper's architecture border routers and LB switches are *fully
    interconnected*, which is what makes dynamic VIP transfer (K2) a purely
    internal operation.
    """

    name: str
    access_links: list[AccessLink] = field(default_factory=list, init=False)

    def add_link(self, link: AccessLink) -> None:
        self.access_links.append(link)


class InternetSide:
    """The whole access connection layer: ISPs -> access links -> borders."""

    def __init__(self, env: "Environment"):
        self.env = env
        self.links: dict[str, AccessLink] = {}
        self.borders: dict[str, BorderRouter] = {}

    def add_border(self, name: str) -> BorderRouter:
        if name in self.borders:
            raise ValueError(f"duplicate border router {name}")
        br = BorderRouter(name)
        self.borders[name] = br
        return br

    def add_access_link(
        self,
        name: str,
        isp: str,
        access_router: str,
        border: str,
        capacity_gbps: float,
        cost_per_gbps: float = 1.0,
    ) -> AccessLink:
        if name in self.links:
            raise ValueError(f"duplicate access link {name}")
        link = AccessLink(name, isp, access_router, capacity_gbps, cost_per_gbps)
        link.attach(self.env)
        self.links[name] = link
        self.borders[border].add_link(link)
        return link

    def link(self, name: str) -> AccessLink:
        return self.links[name]

    def utilizations(self) -> np.ndarray:
        return np.asarray([l.utilization for l in self.links.values()])

    def total_cost_rate(self) -> float:
        return sum(l.cost_rate for l in self.links.values())

    def overloaded(self, threshold: float = 1.0) -> list[AccessLink]:
        return [l for l in self.links.values() if l.utilization > threshold]
