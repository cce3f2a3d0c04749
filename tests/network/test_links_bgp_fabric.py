"""Tests for access links, border routers and the BGP announcer."""

import pytest

from repro.analysis.stats import max_mean_ratio
from repro.network import (
    AccessLink,
    BGPAnnouncer,
    InternetSide,
)
from repro.sim import Environment


# ------------------------------------------------------------- access links


def make_internet(env):
    net = InternetSide(env)
    net.add_border("br-a")
    net.add_border("br-b")
    net.add_access_link("link-a", "isp1", "AR1", "br-a", 10.0, cost_per_gbps=1.0)
    net.add_access_link("link-b", "isp2", "AR3", "br-b", 10.0, cost_per_gbps=2.0)
    return net


def test_access_link_monitoring():
    env = Environment()
    net = make_internet(env)
    net.link("link-a").set_load(5.0)
    assert net.link("link-a").utilization == 0.5
    assert net.link("link-a").cost_rate == 5.0
    assert net.link("link-b").utilization == 0.0


def test_internet_imbalance_and_overload():
    env = Environment()
    net = make_internet(env)
    net.link("link-a").set_load(12.0)
    net.link("link-b").set_load(4.0)
    assert max_mean_ratio(net.utilizations()) == pytest.approx(1.2 / 0.8)
    assert [l.name for l in net.overloaded()] == ["link-a"]
    assert net.total_cost_rate() == pytest.approx(12.0 + 8.0)


def test_internet_duplicate_names_rejected():
    env = Environment()
    net = make_internet(env)
    with pytest.raises(ValueError):
        net.add_border("br-a")
    with pytest.raises(ValueError):
        net.add_access_link("link-a", "x", "AR", "br-a", 1.0)


def test_unattached_link_raises_on_set_load():
    link = AccessLink("l", "isp", "AR", 1.0)
    with pytest.raises(RuntimeError):
        link.set_load(1.0)


def test_border_router_capacity():
    env = Environment()
    net = make_internet(env)
    links = net.borders["br-a"].access_links
    assert [l.name for l in links] == ["link-a"]
    assert sum(l.capacity_gbps for l in links) == 10.0


# ---------------------------------------------------------------------- BGP


def test_bgp_advertise_converges_after_delay():
    env = Environment()
    bgp = BGPAnnouncer(env, convergence_s=30.0)

    def proc():
        yield from bgp.advertise("vip1", "link-a")

    env.process(proc())
    env.run(until=29)
    assert "link-a" not in bgp.links_for("vip1", include_padded=True)
    env.run()
    assert "link-a" in bgp.links_for("vip1", include_padded=True)
    assert bgp.log.advertisements == 1


def test_bgp_pad_then_withdraw_flow():
    env = Environment()
    bgp = BGPAnnouncer(env, convergence_s=10.0)
    bgp.advertise_now("vip1", "link-a")

    def proc():
        yield from bgp.pad("vip1", "link-a")
        assert bgp.links_for("vip1") == []  # padded routes excluded
        assert bgp.links_for("vip1", include_padded=True) == ["link-a"]
        yield from bgp.withdraw("vip1", "link-a")

    env.process(proc())
    env.run()
    assert bgp.all_vips() == []
    assert bgp.log.total == 2  # pad + withdraw; advertise_now not counted


def test_bgp_advertise_now_skips_accounting_by_default():
    env = Environment()
    bgp = BGPAnnouncer(env)
    bgp.advertise_now("v", "l")
    assert bgp.log.total == 0
    assert bgp.links_for("v") == ["l"]
