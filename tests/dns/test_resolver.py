"""Client-side resolver: TTL caching and violator stretch."""

import numpy as np
import pytest

from repro.dns.authority import AuthoritativeDNS
from repro.dns.resolver import Resolver
from repro.sim import Environment


def make(violator=False, violation_factor=10.0, ttl_s=30.0, seed=0):
    env = Environment()
    authority = AuthoritativeDNS(env, ttl_s)
    authority.configure("app", {"vip1": 1.0})
    resolver = Resolver(
        env, authority, np.random.default_rng(seed),
        violator=violator, violation_factor=violation_factor,
    )
    return env, authority, resolver


def test_violation_factor_below_one_rejected():
    env, authority, _ = make()
    with pytest.raises(ValueError, match=">= 1"):
        Resolver(env, authority, np.random.default_rng(0), violation_factor=0.5)


def test_cache_hit_within_ttl():
    env, authority, resolver = make()
    assert resolver.lookup("app") == "vip1"
    env.run(until=29.0)  # still inside the 30 s TTL
    assert resolver.lookup("app") == "vip1"
    assert (resolver.cache_hits, resolver.cache_misses) == (1, 1)
    assert authority.queries == 1


def test_compliant_resolver_requeries_after_ttl():
    env, authority, resolver = make()
    resolver.lookup("app")
    env.run(until=30.0)  # age == TTL is expired, not fresh
    resolver.lookup("app")
    assert resolver.cache_misses == 2
    assert authority.queries == 2


def test_violator_stretches_ttl_and_serves_stale():
    env, authority, resolver = make(violator=True, violation_factor=10.0)
    resolver.lookup("app")
    # The answer has been withdrawn at the authority, but the violator
    # keeps serving its cached VIP until 10x the TTL.
    authority.configure("app", {"vip1": 0.0, "vip2": 1.0})
    env.run(until=250.0)  # past 30 s, inside 300 s
    assert resolver.lookup("app") == "vip1"
    assert authority.queries == 1
    env.run(until=300.0)
    assert resolver.lookup("app") == "vip2"


def test_effective_ttl():
    _, _, compliant = make()
    _, _, violator = make(violator=True, violation_factor=4.0)
    answer_c = compliant.authority.resolve("app", compliant.rng)
    assert compliant.effective_ttl(answer_c) == 30.0
    answer_v = violator.authority.resolve("app", violator.rng)
    assert violator.effective_ttl(answer_v) == 120.0


def test_weighted_answers_follow_authority_weights():
    env = Environment()
    authority = AuthoritativeDNS(env, 1.0)
    authority.configure("app", {"vip1": 3.0, "vip2": 1.0})
    resolver = Resolver(env, authority, np.random.default_rng(7))
    picks = {"vip1": 0, "vip2": 0}
    for i in range(400):
        env.run(until=float(i + 1) * 1.5)  # step past the TTL each time
        picks[resolver.lookup("app")] += 1
    assert picks["vip1"] + picks["vip2"] == 400
    assert 0.6 < picks["vip1"] / 400 < 0.9  # ~0.75 expected
