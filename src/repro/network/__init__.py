"""Access connection layer: access links, border routers and BGP.

The data center reaches the Internet through border routers connected over
access links to the ISPs' access routers (Figure 1).  These models carry the
per-link load that knob K1 (selective VIP exposure) balances, and the BGP
route-update accounting that E4 compares it against.  Inside the data
center, the fabric's host-pair bandwidth guarantee is taken as a premise
(§III-B), so no flow-level model of it exists here.
"""

from repro.network.links import AccessLink, BorderRouter, InternetSide
from repro.network.bgp import BGPAnnouncer, RouteUpdateLog

__all__ = [
    "AccessLink",
    "BorderRouter",
    "InternetSide",
    "BGPAnnouncer",
    "RouteUpdateLog",
]
