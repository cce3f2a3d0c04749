"""Data-center network topology for the optional physical fabric.

The paper's architecture relies on "recent advances in data center
topologies" — fat-tree (Al-Fares et al., SIGCOMM'08), VL2 (Greenberg et
al., SIGCOMM'09) and PortLand (Mysore et al., SIGCOMM'09) — which guarantee
bandwidth between any host pair and give a flat address space.  That is
what lets the LB switches sit at the access network and reach any server.
The paper takes that guarantee as a premise (§III-B) and evaluates no
topology, so only what ``MegaDataCenter(topology=PortLand(...))`` uses is
modelled: the fat-tree wiring and PortLand's PMAC addressing with its
fabric manager, which keep RIP locations consistent as VMs move.
"""

from repro.topology.base import Link, Node, NodeKind, Topology
from repro.topology.fattree import FatTree
from repro.topology.portland import PortLand

__all__ = [
    "Node",
    "NodeKind",
    "Link",
    "Topology",
    "FatTree",
    "PortLand",
]
