"""Load-balancing switches (the paper's LB switch fabric).

Modelled after the Cisco Catalyst 6500 CSM parameters the paper adopts
(Section II): 4,000 VIPs, 16,000 RIPs, 4 Gbps layer-4 throughput, 1 M
concurrent connections — and programmatic reconfiguration that "takes only
several seconds" ([20], [28]).
"""

from repro.lbswitch.addresses import AddressPool, PRIVATE_RIP_POOL, PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits, VipEntry
from repro.lbswitch.conntrack import Connection, ConnectionTable
from repro.lbswitch.selection import SmoothWeightedRR

__all__ = [
    "AddressPool",
    "PUBLIC_VIP_POOL",
    "PRIVATE_RIP_POOL",
    "LBSwitch",
    "SwitchLimits",
    "VipEntry",
    "Connection",
    "ConnectionTable",
    "SmoothWeightedRR",
]
