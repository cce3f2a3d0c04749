"""Tests for the DNS subsystem: authority, resolvers, fluid model, policies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns import (
    AuthoritativeDNS,
    CheapestLinkPolicy,
    FluidDNSModel,
    InverseUtilizationPolicy,
    Resolver,
    ResolverPopulation,
)
from repro.network.links import AccessLink
from repro.sim import Environment, RngHub


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def authority(env):
    dns = AuthoritativeDNS(env, default_ttl_s=30.0)
    dns.configure("foo.com", {"vip1": 1.0, "vip2": 1.0})
    return dns


# ---------------------------------------------------------------- authority


def test_authority_resolve_returns_configured_vip(env, authority):
    rng = RngHub(0).stream("t")
    answer = authority.resolve("foo.com", rng)
    assert answer.vip in ("vip1", "vip2")
    assert answer.ttl_s == 30.0
    assert answer.issued_at == 0.0
    assert authority.queries == 1


def test_authority_weighted_distribution(env, authority):
    authority.configure("foo.com", {"vip1": 3.0, "vip2": 1.0})
    rng = RngHub(1).stream("t")
    counts = {"vip1": 0, "vip2": 0}
    for _ in range(4000):
        counts[authority.resolve("foo.com", rng).vip] += 1
    assert counts["vip1"] / 4000 == pytest.approx(0.75, abs=0.03)


def test_authority_zero_weight_never_answered(env, authority):
    authority.configure("foo.com", {"vip1": 1.0, "vip2": 0.0})
    rng = RngHub(2).stream("t")
    assert all(
        authority.resolve("foo.com", rng).vip == "vip1" for _ in range(200)
    )


def test_authority_validation(env, authority):
    with pytest.raises(ValueError):
        authority.configure("x", {})
    with pytest.raises(ValueError):
        authority.configure("x", {"v": 0.0})
    with pytest.raises(ValueError):
        authority.configure("foo.com", {"v": 1.0}, ttl_s=0)
    with pytest.raises(KeyError):
        authority.resolve("nosuch.com", RngHub(0).stream("t"))
    with pytest.raises(ValueError):
        AuthoritativeDNS(env, default_ttl_s=0)


# ---------------------------------------------------------------- resolver


def test_resolver_caches_within_ttl(env, authority):
    r = Resolver(env, authority, RngHub(3).stream("r"))
    v1 = r.lookup("foo.com")
    v2 = r.lookup("foo.com")
    assert v1 == v2
    assert r.cache_hits == 1 and r.cache_misses == 1
    assert authority.queries == 1


def test_resolver_requeries_after_ttl(env, authority):
    r = Resolver(env, authority, RngHub(4).stream("r"))
    r.lookup("foo.com")

    def later():
        yield env.timeout(31)
        r.lookup("foo.com")

    env.process(later())
    env.run()
    assert authority.queries == 2


def test_violator_stretches_ttl(env, authority):
    r = Resolver(env, authority, RngHub(5).stream("r"), violator=True, violation_factor=10)
    r.lookup("foo.com")

    def later():
        yield env.timeout(200)  # 30 < 200 < 300
        r.lookup("foo.com")
        assert authority.queries == 1  # still cached
        yield env.timeout(200)  # now past 300
        r.lookup("foo.com")
        assert authority.queries == 2

    env.process(later())
    env.run()


def test_resolver_validation(env, authority):
    with pytest.raises(ValueError):
        Resolver(env, authority, RngHub(0).stream("r"), violation_factor=0.5)


# -------------------------------------------------------------- population


def test_population_shares_follow_weights(env, authority):
    authority.configure("foo.com", {"vip1": 4.0, "vip2": 1.0})
    pop = ResolverPopulation(env, authority, RngHub(7).stream("pop"), size=500)
    shares = pop.shares("foo.com")
    assert shares["vip1"] == pytest.approx(0.8, abs=0.06)


def test_population_violator_count(env, authority):
    pop = ResolverPopulation(
        env, authority, RngHub(8).stream("pop"), size=10, violator_fraction=0.3
    )
    assert sum(r.violator for r in pop.resolvers) == 3


def test_population_validation(env, authority):
    rng = RngHub(0).stream("x")
    with pytest.raises(ValueError):
        ResolverPopulation(env, authority, rng, size=0)
    with pytest.raises(ValueError):
        ResolverPopulation(env, authority, rng, size=5, violator_fraction=1.5)


# -------------------------------------------------------------- fluid model


def test_fluid_model_initializes_at_authority_distribution(env, authority):
    fluid = FluidDNSModel(authority, violator_fraction=0.0)
    assert fluid.shares("foo.com") == {"vip1": 0.5, "vip2": 0.5}


def test_fluid_model_converges_to_new_weights(env, authority):
    fluid = FluidDNSModel(authority, violator_fraction=0.0)
    fluid.ensure_app("foo.com")
    authority.configure("foo.com", {"vip1": 0.0, "vip2": 1.0})
    # after 5 TTLs compliant clients have nearly fully shifted
    fluid.advance(150.0)
    assert fluid.share_of("foo.com", "vip2") > 0.99


def test_fluid_model_violators_lag(env, authority):
    fast = FluidDNSModel(authority, violator_fraction=0.0)
    slow = FluidDNSModel(authority, violator_fraction=0.3, violation_factor=20)
    for m in (fast, slow):
        m.ensure_app("foo.com")
    authority.configure("foo.com", {"vip1": 0.0, "vip2": 1.0})
    fast.advance(60.0)
    slow.advance(60.0)
    assert fast.share_of("foo.com", "vip1") < slow.share_of("foo.com", "vip1")
    # residual share = leftover traffic on the faded VIP
    assert slow.residual_share("foo.com", "vip1") > 0.05


def test_fluid_model_one_ttl_relaxation_constant(env, authority):
    fluid = FluidDNSModel(authority, violator_fraction=0.0)
    fluid.ensure_app("foo.com")
    authority.configure("foo.com", {"vip1": 0.0, "vip2": 1.0})
    fluid.advance(30.0)  # exactly one TTL
    expected = 0.5 * math.exp(-1)  # share decays as exp(-t/ttl)
    assert fluid.share_of("foo.com", "vip1") == pytest.approx(expected, rel=1e-6)


def test_fluid_model_validation(env, authority):
    with pytest.raises(ValueError):
        FluidDNSModel(authority, violator_fraction=2.0)
    with pytest.raises(ValueError):
        FluidDNSModel(authority, violation_factor=0.5)
    fluid = FluidDNSModel(authority)
    with pytest.raises(ValueError):
        fluid.advance(-1.0)


@settings(max_examples=50, deadline=None)
@given(
    dt=st.floats(0.0, 500.0),
    v=st.floats(0.0, 1.0),
)
def test_fluid_shares_always_sum_to_one(dt, v):
    env = Environment()
    dns = AuthoritativeDNS(env, default_ttl_s=30.0)
    dns.configure("a", {"v1": 1.0, "v2": 2.0, "v3": 0.5})
    fluid = FluidDNSModel(dns, violator_fraction=v)
    fluid.ensure_app("a")
    dns.configure("a", {"v1": 0.0, "v2": 1.0, "v3": 3.0})
    fluid.advance(dt)
    assert sum(fluid.shares("a").values()) == pytest.approx(1.0)
    assert all(s >= 0 for s in fluid.shares("a").values())


# ----------------------------------------------------------------- policies


def _links(env, utils, costs=None):
    costs = costs or [1.0] * len(utils)
    out = {}
    for i, (u, c) in enumerate(zip(utils, costs)):
        link = AccessLink(f"l{i}", "isp", f"AR{i}", 10.0, cost_per_gbps=c).attach(env)
        link.set_load(u * 10.0)
        out[f"vip{i}"] = link
    return out


def test_inverse_utilization_policy(env):
    links = _links(env, [0.15, 0.95])
    w = InverseUtilizationPolicy(cutoff=0.95).weights(links)
    assert w["vip0"] == pytest.approx(0.8 * 10.0)  # spare fraction x capacity
    assert w["vip1"] == 0.0


def test_inverse_utilization_fallback_uniform(env):
    links = _links(env, [1.0, 1.0])
    w = InverseUtilizationPolicy(cutoff=0.95).weights(links)
    assert w == {"vip0": 1.0, "vip1": 1.0}


def test_cheapest_link_policy(env):
    links = _links(env, [0.5, 0.5], costs=[1.0, 5.0])
    w = CheapestLinkPolicy(cutoff=1.0).weights(links)
    assert w["vip0"] > w["vip1"]


def test_policy_cutoff_validation():
    with pytest.raises(ValueError):
        InverseUtilizationPolicy(cutoff=0)
