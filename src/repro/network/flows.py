"""Flow abstractions shared by the data-plane solver and its users."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.network.maxmin import link_loads, weighted_maxmin_fair


@dataclass
class Flow:
    """A fluid flow: identified traffic with a route and a demand ceiling.

    Attributes
    ----------
    key:
        Caller-defined identity (e.g. ``(app_id, vip, rip)``).
    links:
        Indices of the links the flow traverses (in the owning
        :class:`FlowAllocation`'s link table).
    demand_gbps:
        Offered load; ``inf`` for fully elastic flows.
    weight:
        Weighted-fairness weight (K6 RIP weights feed in here).
    """

    key: Hashable
    links: tuple[int, ...]
    demand_gbps: float = float("inf")
    weight: float = 1.0


class FlowAllocation:
    """A solved bandwidth-sharing instance.

    Build with the link capacity table and a list of flows; :meth:`solve`
    computes weighted max–min fair rates and per-link loads.
    """

    def __init__(self, capacities: Sequence[float]):
        self.capacities = np.asarray(capacities, dtype=float)
        self.flows: list[Flow] = []
        self._rates: Optional[np.ndarray] = None
        self._loads: Optional[np.ndarray] = None

    def add(self, flow: Flow) -> None:
        self.flows.append(flow)
        self._rates = None

    def solve(self) -> np.ndarray:
        routes = [f.links for f in self.flows]
        self._rates = weighted_maxmin_fair(
            routes,
            self.capacities,
            demands=[f.demand_gbps for f in self.flows],
            weights=[f.weight for f in self.flows],
        )
        self._loads = link_loads(routes, self._rates, len(self.capacities))
        return self._rates

    @property
    def rates(self) -> np.ndarray:
        if self._rates is None:
            self.solve()
        return self._rates

    @property
    def loads(self) -> np.ndarray:
        if self._loads is None or self._rates is None:
            self.solve()
        return self._loads

    def rate_of(self, key: Hashable) -> float:
        for f, r in zip(self.flows, self.rates):
            if f.key == key:
                return float(r)
        raise KeyError(key)

    def utilizations(self) -> np.ndarray:
        return self.loads / self.capacities

    def satisfied_fraction(self) -> float:
        """Total allocated rate / total finite demand (1.0 if no demand)."""
        dem = np.asarray([f.demand_gbps for f in self.flows])
        finite = np.isfinite(dem)
        total = dem[finite].sum()
        if total <= 0:
            return 1.0
        return float(self.rates[finite].sum() / total)


#: An allocation is also known as a flow *set*: the same flows re-solved
#: epoch after epoch with changing demands/weights.
FlowSet = FlowAllocation
