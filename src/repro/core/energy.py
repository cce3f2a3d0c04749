"""Energy accounting (the Section VI extension).

"In addition to maximizing utilization, energy is another objective in
resource management ... our general architectural framework fully applies
to this resource management aspect."

We model the standard linear server power curve (idle power is the large
constant term — the reason consolidation saves energy) and an accountant
that integrates fleet power over simulated time.  Empty servers can be
parked (powered down) and woken; the consolidation behaviour of the pod
controllers (``GreedyController(stop_idle=True)``) is what creates empty
servers to park.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.hosts.server import PhysicalServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


@dataclass(frozen=True)
class PowerModel:
    """Linear utilization->power curve (typical 2010s server: ~60 % of
    peak power at idle)."""

    idle_w: float = 150.0
    peak_w: float = 250.0
    parked_w: float = 5.0  # management controller only

    def __post_init__(self):
        if self.idle_w < 0 or self.peak_w < self.idle_w:
            raise ValueError("need 0 <= idle_w <= peak_w")

    def server_power_w(self, server: PhysicalServer, parked: bool = False) -> float:
        if parked:
            return self.parked_w
        u = min(1.0, server.utilization)
        return self.idle_w + (self.peak_w - self.idle_w) * u


class EnergyAccountant:
    """Integrates fleet power over simulation time.

    Call :meth:`sample` once per control epoch; it accumulates
    ``power x elapsed`` since the previous sample (left Riemann sum, exact
    for epoch-constant load).
    """

    def __init__(self, env: "Environment", model: PowerModel = PowerModel()):
        self.env = env
        self.model = model
        self._parked: set[str] = set()
        self._last_t: float = env.now
        self._last_power_w: float = 0.0
        self.energy_wh: float = 0.0
        self.parked_server_hours: float = 0.0

    # -- parking ------------------------------------------------------------
    def park_all_empty(self, servers: Iterable[PhysicalServer]) -> int:
        """Park every empty server; wake any parked server that gained
        load (the pod manager placed a VM on it).  Returns parked count."""
        n = 0
        for server in servers:
            if server.is_empty:
                self._parked.add(server.name)
                n += 1
            else:
                self._parked.discard(server.name)
        return n

    # -- accounting -----------------------------------------------------------
    def sample(self, servers: Iterable[PhysicalServer]) -> float:
        """Accumulate energy since the last sample; returns current power."""
        now = self.env.now
        elapsed_h = (now - self._last_t) / 3600.0
        self.energy_wh += self._last_power_w * elapsed_h
        self.parked_server_hours += len(self._parked) * elapsed_h

        power = 0.0
        for server in servers:
            power += self.model.server_power_w(
                server, parked=server.name in self._parked
            )
        self._last_t = now
        self._last_power_w = power
        return power

    @property
    def energy_kwh(self) -> float:
        return self.energy_wh / 1000.0
