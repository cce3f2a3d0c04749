"""Structural tests for the topology base, fat-tree and PortLand."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    FatTree,
    Link,
    Node,
    NodeKind,
    PortLand,
    Topology,
)


# ---------------------------------------------------------------- base


def test_topology_duplicate_node_rejected():
    t = Topology("t")
    t.add_node(Node("a", NodeKind.HOST))
    with pytest.raises(ValueError):
        t.add_node(Node("a", NodeKind.HOST))


def test_topology_link_validation():
    t = Topology("t")
    t.add_node(Node("a", NodeKind.HOST))
    t.add_node(Node("b", NodeKind.EDGE))
    with pytest.raises(KeyError):
        t.add_link("a", "zzz", 1.0)
    with pytest.raises(ValueError):
        t.add_link("a", "b", 0.0)
    t.add_link("a", "b", 1.0)
    with pytest.raises(ValueError):
        t.add_link("a", "b", 1.0)


def test_topology_validate_connectivity():
    t = Topology("t")
    t.add_node(Node("a", NodeKind.HOST))
    t.add_node(Node("b", NodeKind.HOST))
    with pytest.raises(ValueError, match="not connected"):
        t.validate()


def test_link_key_canonical():
    assert Link("b", "a", 1.0).key() == ("a", "b")
    assert Link("a", "b", 1.0).key() == ("a", "b")


# ---------------------------------------------------------------- fat-tree


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_fattree_host_count(k):
    ft = FatTree(k=k)
    assert ft.num_hosts == k**3 // 4 == ft.expected_hosts


def test_fattree_structure_k4():
    ft = FatTree(k=4)
    assert len(ft.nodes(NodeKind.CORE)) == 4
    assert len(ft.nodes(NodeKind.AGG)) == 8
    assert len(ft.nodes(NodeKind.EDGE)) == 8
    # every switch has degree k
    for kind in (NodeKind.CORE, NodeKind.AGG, NodeKind.EDGE):
        for node in ft.nodes(kind):
            assert ft.degree(node.name) == 4, node


def test_fattree_rejects_odd_k():
    with pytest.raises(ValueError):
        FatTree(k=3)
    with pytest.raises(ValueError):
        FatTree(k=0)


def test_fattree_ecmp_diversity():
    ft = FatTree(k=4)
    # cross-pod host pair has (k/2)^2 = 4 shortest paths
    paths = list(nx.all_shortest_paths(ft.graph, "host-0-0-0", "host-1-0-0"))
    assert len(paths) == 4
    # same-edge pair has exactly 1 two-hop path
    paths = list(nx.all_shortest_paths(ft.graph, "host-0-0-0", "host-0-0-1"))
    assert len(paths) == 1 and len(paths[0]) == 3


def test_fattree_host_pod():
    ft = FatTree(k=4)
    assert ft.host_pod("host-2-1-0") == 2


# ---------------------------------------------------------------- PortLand


def test_portland_pmac_encoding():
    pl = PortLand(k=4)
    pmac = pl.host_pmac("host-2-1-0", vmid=7)
    assert (pmac.pod, pmac.position, pmac.port, pmac.vmid) == (2, 1, 0, 7)
    assert str(pmac) == "02:01:0000:0007"


def test_portland_fabric_manager_roundtrip():
    pl = PortLand(k=4)
    pl.register_vm("10.0.0.5", "host-1-0-1", vmid=3)
    assert pl.locate("10.0.0.5") == "host-1-0-1"
    assert pl.fabric_manager.misses == 0
    assert pl.locate("10.9.9.9") is None
    assert pl.fabric_manager.misses == 1


def test_portland_migration_updates_location():
    pl = PortLand(k=4)
    pl.register_vm("10.0.0.5", "host-0-0-0", vmid=1)
    pl.fabric_manager.migrate("10.0.0.5", pl.host_pmac("host-3-1-1", vmid=1))
    assert pl.locate("10.0.0.5") == "host-3-1-1"
    with pytest.raises(KeyError):
        pl.fabric_manager.migrate("10.1.1.1", pl.host_pmac("host-0-0-0"))


def test_portland_is_a_fattree():
    pl = PortLand(k=4)
    assert isinstance(pl, FatTree)
    assert pl.num_hosts == 16


# ---------------------------------------------------------------- properties


@settings(max_examples=10, deadline=None)
@given(k=st.sampled_from([2, 4, 6]))
def test_fattree_properties(k):
    ft = FatTree(k=k)
    # host count, connectivity, degree bounds
    assert ft.num_hosts == k**3 // 4
    assert nx.is_connected(ft.graph)
    for host in ft.hosts:
        assert ft.degree(host.name) == 1
