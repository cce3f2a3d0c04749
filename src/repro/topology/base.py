"""Common topology abstractions: nodes, links, and the Topology container."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import networkx as nx


class NodeKind(enum.Enum):
    """Role of a node in the data-center graph."""

    HOST = "host"
    EDGE = "edge"  # edge / top-of-rack switch
    AGG = "agg"  # aggregation switch
    CORE = "core"  # core / intermediate switch
    BORDER = "border"  # border router (access connection layer)
    LB = "lb"  # load-balancing switch


@dataclass(frozen=True)
class Node:
    """A switch, router or host.  Identified by a unique string name."""

    name: str
    kind: NodeKind
    #: Topology-specific grouping (e.g. fat-tree pod index); -1 if n/a.
    group: int = -1

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return self.name


@dataclass(frozen=True)
class Link:
    """An undirected link with symmetric capacity in Gbps."""

    a: str
    b: str
    capacity_gbps: float

    def key(self) -> tuple[str, str]:
        """Canonical (sorted) endpoint pair."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


class Topology:
    """A named collection of nodes and capacitated links.

    Thin wrapper over a networkx graph that adds typed nodes, capacity
    bookkeeping and the queries the rest of the system needs.  Concrete
    topologies (fat-tree, PortLand) populate it in their constructors.
    """

    def __init__(self, name: str):
        self.name = name
        self.graph = nx.Graph()
        self._nodes: dict[str, Node] = {}

    # -- construction ------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node {node.name}")
        self._nodes[node.name] = node
        self.graph.add_node(node.name, kind=node.kind, group=node.group)
        return node

    def add_link(self, a: str, b: str, capacity_gbps: float) -> Link:
        if a not in self._nodes or b not in self._nodes:
            raise KeyError(f"link endpoints must exist: {a}, {b}")
        if capacity_gbps <= 0:
            raise ValueError("link capacity must be positive")
        if self.graph.has_edge(a, b):
            raise ValueError(f"duplicate link {a}-{b}")
        link = Link(a, b, capacity_gbps)
        self.graph.add_edge(a, b, capacity=capacity_gbps, link=link)
        return link

    # -- queries -------------------------------------------------------------
    def node(self, name: str) -> Node:
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def nodes(self, kind: Optional[NodeKind] = None) -> list[Node]:
        if kind is None:
            return list(self._nodes.values())
        return [n for n in self._nodes.values() if n.kind == kind]

    @property
    def hosts(self) -> list[Node]:
        return self.nodes(NodeKind.HOST)

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    def degree(self, name: str) -> int:
        return self.graph.degree[name]

    def validate(self) -> None:
        """Structural sanity: connected, hosts are leaves."""
        if self.graph.number_of_nodes() == 0:
            raise ValueError("empty topology")
        if not nx.is_connected(self.graph):
            raise ValueError(f"{self.name}: topology is not connected")
        for host in self.hosts:
            if self.graph.degree[host.name] < 1:
                raise ValueError(f"host {host.name} is unattached")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.name!r}: "
            f"{self.graph.number_of_nodes()} nodes, "
            f"{self.graph.number_of_edges()} links, {self.num_hosts} hosts>"
        )
