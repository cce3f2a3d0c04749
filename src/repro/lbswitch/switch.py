"""The LB switch: VIP/RIP tables with hard limits and traffic accounting,
and the control plane's landing rule: :func:`landing_target` picks where
every chosen VIP entry lands (:func:`can_land` tests one switch), and
:func:`keep_one_holder` resolves a VIP found on several switches."""

from __future__ import annotations

from collections.abc import Callable, Collection, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sim.monitor import UtilizationMonitor

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


@dataclass(frozen=True)
class SwitchLimits:
    """Hardware limits; defaults are the Cisco Catalyst CSM figures the
    paper uses throughout (Section II)."""

    max_vips: int = 4000
    max_rips: int = 16000
    throughput_gbps: float = 4.0
    max_connections: int = 1_000_000


@dataclass
class VipEntry:
    """Configuration of one VIP on a switch: owning app + weighted RIPs."""

    vip: str
    app: str
    rips: dict[str, float] = field(default_factory=dict)  # rip -> weight
    traffic_gbps: float = 0.0

    def normalized_weights(self) -> dict[str, float]:
        total = sum(self.rips.values())
        if total <= 0:
            return {rip: 0.0 for rip in self.rips}
        return {rip: w / total for rip, w in self.rips.items()}


class LBSwitch:
    """A layer-4 load-balancing switch.

    Table mutations are *immediate* here; the multi-second programmatic
    reconfiguration latency lives in
    :class:`repro.core.viprip.VipRipManager` (``reconfig_s``), which
    serializes configuration requests the way a real management interface
    does.
    """

    def __init__(
        self,
        name: str,
        env: Optional["Environment"] = None,
        limits: SwitchLimits = SwitchLimits(),
    ):
        self.name = name
        self.limits = limits
        self._vips: dict[str, VipEntry] = {}
        #: app -> its VIPs on this switch (kept by every table mutation
        #: that adds or removes a VIP, so lookups never scan the table).
        self._app_vips: dict[str, set[str]] = {}
        self._rip_entries = 0  # total (vip, rip) table entries
        #: The table's traffic, re-summed by every mutation that removes
        #: or re-rates a VIP (``_retotal``), so reads are O(1); a new VIP
        #: carries no traffic and only adds its 0.0.
        self._traffic_gbps = 0
        self.monitor: Optional[UtilizationMonitor] = (
            UtilizationMonitor(env, limits.throughput_gbps, name) if env else None
        )

    # -- capacity ---------------------------------------------------------
    @property
    def num_vips(self) -> int:
        return len(self._vips)

    @property
    def num_rips(self) -> int:
        return self._rip_entries

    @property
    def vip_slots_free(self) -> int:
        return self.limits.max_vips - self.num_vips

    @property
    def rip_slots_free(self) -> int:
        return self.limits.max_rips - self.num_rips

    @property
    def traffic_gbps(self) -> float:
        return self._traffic_gbps

    @property
    def utilization(self) -> float:
        return self.traffic_gbps / self.limits.throughput_gbps

    # -- table mutations -----------------------------------------------------
    def add_vip(self, vip: str, app: str) -> VipEntry:
        if vip in self._vips:
            raise ValueError(f"{self.name}: VIP {vip} already configured")
        if self.num_vips >= self.limits.max_vips:
            raise RuntimeError(f"{self.name}: VIP table full ({self.limits.max_vips})")
        entry = VipEntry(vip=vip, app=app)
        self._vips[vip] = entry
        self._app_vips.setdefault(app, set()).add(vip)
        # The fresh in-order sum with a 0.0 appended: bit for bit the old
        # total (an empty table's int 0 becomes 0.0, as ``sum`` does).
        self._traffic_gbps += entry.traffic_gbps
        return entry

    def remove_vip(self, vip: str) -> VipEntry:
        """Delete a VIP and all its RIP mappings; returns the old entry
        (used to re-install it on another switch during K2 transfer)."""
        if vip not in self._vips:
            raise KeyError(f"{self.name}: VIP {vip} not configured")
        entry = self._vips.pop(vip)
        same_app = self._app_vips[entry.app]
        same_app.discard(vip)
        if not same_app:
            del self._app_vips[entry.app]
        self._rip_entries -= len(entry.rips)
        self._sync_monitor()
        return entry

    def install_entry(self, entry: VipEntry) -> None:
        """Install a full VIP entry (K2 transfer arrival path)."""
        if entry.vip in self._vips:
            raise ValueError(f"{self.name}: VIP {entry.vip} already configured")
        if self.num_vips >= self.limits.max_vips:
            raise RuntimeError(f"{self.name}: VIP table full")
        if self.num_rips + len(entry.rips) > self.limits.max_rips:
            raise RuntimeError(f"{self.name}: RIP table would overflow")
        self._vips[entry.vip] = entry
        self._app_vips.setdefault(entry.app, set()).add(entry.vip)
        self._rip_entries += len(entry.rips)
        self._sync_monitor()

    def add_rip(self, vip: str, rip: str, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError("RIP weight must be positive")
        entry = self._entry(vip)
        if rip in entry.rips:
            raise ValueError(f"{self.name}: RIP {rip} already mapped to {vip}")
        if self.num_rips >= self.limits.max_rips:
            raise RuntimeError(f"{self.name}: RIP table full ({self.limits.max_rips})")
        entry.rips[rip] = weight
        self._rip_entries += 1

    def remove_rip(self, vip: str, rip: str) -> None:
        entry = self._entry(vip)
        if rip not in entry.rips:
            raise KeyError(f"{self.name}: RIP {rip} not mapped to {vip}")
        del entry.rips[rip]
        self._rip_entries -= 1

    def merge_rips(self, vip: str, rips: Mapping[str, float]) -> list[str]:
        """Add the RIPs of *rips* (``rip -> weight``) that *vip*'s entry
        lacks, in name order, while RIP slots last; returns those added."""
        entry = self._entry(vip)
        added = []
        for rip, weight in sorted(rips.items()):
            if rip not in entry.rips and self.rip_slots_free > 0:
                self.add_rip(vip, rip, weight)
                added.append(rip)
        return added

    def set_rip_weight(self, vip: str, rip: str, weight: float) -> None:
        """Knob K6: reprogram a load-balancing weight."""
        if weight < 0:
            raise ValueError("RIP weight must be non-negative")
        entry = self._entry(vip)
        if rip not in entry.rips:
            raise KeyError(f"{self.name}: RIP {rip} not mapped to {vip}")
        entry.rips[rip] = weight

    # -- traffic -------------------------------------------------------------
    def set_vip_traffic(self, vip: str, gbps: float) -> None:
        """Update the measured traffic of one VIP (data-plane epoch)."""
        if gbps < 0:
            raise ValueError("traffic must be non-negative")
        self._entry(vip).traffic_gbps = gbps
        self._sync_monitor()

    # -- queries ---------------------------------------------------------------
    def has_vip(self, vip: str) -> bool:
        return vip in self._vips

    def serves(self, vip: str, rip: str) -> bool:
        """True if *rip* is mapped under *vip* in this table."""
        entry = self._vips.get(vip)
        return entry is not None and rip in entry.rips

    def entry(self, vip: str) -> VipEntry:
        return self._entry(vip)

    def vips(self) -> list[str]:
        return sorted(self._vips)

    def vips_of_app(self, app: str) -> list[str]:
        return sorted(self._app_vips.get(app, ()))

    def _entry(self, vip: str) -> VipEntry:
        if vip not in self._vips:
            raise KeyError(f"{self.name}: VIP {vip} not configured")
        return self._vips[vip]

    def _retotal(self) -> None:
        # A fresh sum in table order, not a running total: adding and
        # subtracting floats would drift from it in the last bits.
        self._traffic_gbps = sum(e.traffic_gbps for e in self._vips.values())

    def _sync_monitor(self) -> None:
        self._retotal()
        if self.monitor is not None:
            self.monitor.set_load(self._traffic_gbps)


def holders_of(switches: dict[str, LBSwitch], vip: str) -> list[LBSwitch]:
    """The switches of a ``name -> switch`` map holding *vip*, by name."""
    return [sw for _, sw in sorted(switches.items()) if sw.has_vip(vip)]


def keep_one_holder(holders: list[LBSwitch], vip: str, recorded: str) -> str:
    """Remove *vip* from every switch of *holders* (by name, as
    :func:`holders_of` lists them) but one: *recorded* if it holds the
    VIP, else the first.  Returns the kept switch's name."""
    names = [sw.name for sw in holders]
    keep = recorded if recorded in names else names[0]
    for sw in holders:
        if sw.name != keep:
            sw.remove_vip(vip)
    return keep


def can_land(sw: LBSwitch, is_up: Callable[[str], bool], n_rips: int) -> bool:
    """True if *sw* is up (by the caller's *is_up* health test) and has a
    free VIP slot and room for an entry of *n_rips* RIPs."""
    return is_up(sw.name) and sw.vip_slots_free > 0 and sw.rip_slots_free >= n_rips


def landing_target(
    switches: dict[str, LBSwitch], is_up: Callable[[str], bool],
    n_rips: int = 0, exclude: Collection[str] = (),
) -> Optional[LBSwitch]:
    """Where a VIP entry of *n_rips* RIPs lands: the least-utilized switch
    of a ``name -> switch`` map outside *exclude* that :func:`can_land`
    it, ties by name; None if no switch can.  ``(utilization, name)`` is
    a total order, so the map's order cannot change the pick."""
    fits = (
        sw for sw in switches.values()
        if sw.name not in exclude and can_land(sw, is_up, n_rips)
    )
    return min(fits, key=lambda sw: (sw.utilization, sw.name), default=None)
