"""Live platform state: the registries the global manager operates on.

Single source of truth for "which switch hosts this VIP", "which access
link advertises it", "which pod serves this RIP".  Pod membership is *not*
duplicated here — a RIP's pod is derived live from its server's ``pod``
attribute, so knob K3 (server transfer) automatically re-attributes every
VM on a moved server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hosts.server import PhysicalServer
from repro.hosts.vm import VM
from repro.lbswitch.switch import LBSwitch
from repro.network.links import AccessLink, InternetSide


@dataclass
class VipInfo:
    vip: str
    app: str
    switch: str  # hosting LB switch name
    link: str  # access link the VIP is advertised on


@dataclass
class RipInfo:
    rip: str
    app: str
    vip: str  # the VIP group this RIP belongs to
    vm: VM


class PlatformState:
    """Registries tying VIPs, RIPs, switches, links, servers together."""

    def __init__(self, internet: InternetSide, switches: dict[str, LBSwitch]):
        self.internet = internet
        self.switches = switches
        self.vips: dict[str, VipInfo] = {}
        self.rips: dict[str, RipInfo] = {}
        self.app_vips: dict[str, list[str]] = {}
        self.servers: dict[str, PhysicalServer] = {}
        #: Per-epoch measured VIP traffic, written by the data-plane pass.
        self.vip_traffic: dict[str, float] = {}
        #: Traffic addressed to VIPs with no serving RIP (lost).
        self.blackholed_gbps: float = 0.0
        self.reconfigurations = 0
        #: LB switches currently failed (fault injection); traffic to their
        #: VIPs is dropped and every manager must route around them.
        self.failed_switches: set[str] = set()

    # -- registration --------------------------------------------------------
    def register_server(self, server: PhysicalServer) -> None:
        self.servers[server.name] = server

    def register_vip(self, vip: str, app: str, switch: str, link: str) -> VipInfo:
        if vip in self.vips:
            raise ValueError(f"VIP {vip} already registered")
        info = VipInfo(vip, app, switch, link)
        self.vips[vip] = info
        self.app_vips.setdefault(app, []).append(vip)
        return info

    def move_vip(self, vip: str, new_switch: str) -> None:
        self.vips[vip].switch = new_switch

    def register_rip(self, rip: str, app: str, vip: str, vm: VM) -> RipInfo:
        if rip in self.rips:
            raise ValueError(f"RIP {rip} already registered")
        info = RipInfo(rip, app, vip, vm)
        self.rips[rip] = info
        return info

    def unregister_rip(self, rip: str) -> RipInfo:
        return self.rips.pop(rip)

    # -- checkpointing ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data view of the registries for control-plane checkpoints.

        Only durable *bookkeeping* is captured — VM/server objects stay
        live references elsewhere; a checkpoint must never resurrect
        hardware.  The structure is deep-copy-safe (str/int/float/list/
        dict only).
        """
        return {
            "vips": {
                v: {"app": i.app, "switch": i.switch, "link": i.link}
                for v, i in self.vips.items()
            },
            "rips": {r: {"app": i.app, "vip": i.vip} for r, i in self.rips.items()},
            "app_vips": {a: list(vs) for a, vs in self.app_vips.items()},
            "failed_switches": sorted(self.failed_switches),
            "reconfigurations": self.reconfigurations,
        }

    # -- queries ---------------------------------------------------------------
    def switch_of_vip(self, vip: str) -> LBSwitch:
        return self.switches[self.vips[vip].switch]

    def switch_is_up(self, name: str) -> bool:
        return name not in self.failed_switches

    def vip_serving(self, vip: str) -> bool:
        """Can this VIP actually deliver traffic right now?

        False while its switch is failed or mid-K2-transfer, its access
        link is down, or its load-balancing group has no RIPs.
        """
        info = self.vips[vip]
        if info.switch in self.failed_switches:
            return False
        link = self.internet.links.get(info.link)
        if link is not None and not link.is_up:
            return False
        switch = self.switches[info.switch]
        return switch.has_vip(vip) and bool(switch.entry(vip).rips)

    def link_of_vip(self, vip: str) -> AccessLink:
        return self.internet.link(self.vips[vip].link)

    def vip_links_of(self, app: str) -> dict[str, AccessLink]:
        return {v: self.link_of_vip(v) for v in self.app_vips.get(app, [])}

    def pod_of_rip(self, rip: str) -> Optional[str]:
        info = self.rips.get(rip)
        if info is None or info.vm.host is None:
            return None
        server = self.servers.get(info.vm.host)
        return server.pod if server is not None else None

    def app_traffic_on_link(self, app: str, link: str) -> float:
        """This app's measured traffic arriving via *link*."""
        total = 0.0
        for vip in self.app_vips.get(app, []):
            if self.vips[vip].link == link:
                total += self.vip_traffic.get(vip, 0.0)
        return total

    def apps_on_link(self, link: str) -> list[str]:
        """Apps with at least one VIP on *link*, busiest first (ties by name)."""
        apps = {info.app for info in self.vips.values() if info.link == link}
        return sorted(
            apps, key=lambda a: (-self.app_traffic_on_link(a, link), a)
        )
