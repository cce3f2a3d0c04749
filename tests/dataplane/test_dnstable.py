"""Vectorized DNS tables vs the object authority/resolver pair.

Satellite of PR 10: weighted answer selection must be deterministic and
*identical* across the object path and the columnar path — same seed and
weights produce the same answer sequence — including the TTL edge cases
(zero TTL disables caching entirely).
"""

import numpy as np
import pytest

from repro.dataplane.dnstable import VectorizedDnsTable
from repro.dns.authority import AuthoritativeDNS
from repro.dns.policy import weighted_cdf, weighted_pick
from repro.dns.resolver import Resolver


class Clock:
    def __init__(self, now=0.0):
        self.now = now


class ScriptedRng:
    def __init__(self):
        self.value = 0.0

    def random(self):
        return self.value


APPS = ["app-a", "app-b", "app-c"]
ZONES = {
    "app-a": {"10.0.0.1": 1.0, "10.0.0.2": 3.0},
    "app-b": {"10.0.1.1": 2.0, "10.0.1.2": 2.0, "10.0.1.3": 1.0},
    "app-c": {"10.0.2.1": 5.0},
}


def object_pair(ttl_s, n_resolvers=8, violators=None, violation_factor=10.0):
    clock = Clock()
    authority = AuthoritativeDNS(clock, default_ttl_s=max(ttl_s, 1.0))
    authority.default_ttl_s = float(ttl_s)
    for app, zone in ZONES.items():
        authority.configure(app, zone)
    rng = ScriptedRng()
    resolvers = [
        Resolver(
            clock, authority, rng,
            violator=bool(violators[i]) if violators is not None else False,
            violation_factor=violation_factor,
        )
        for i in range(n_resolvers)
    ]
    return clock, authority, rng, resolvers


def replay(table, clock, rng, resolvers, resolver, app, u, now):
    """Scalar replay through the object classes; returns VIP names."""
    clock.now = now
    out = []
    for r, a, uu in zip(resolver, app, u):
        rng.value = float(uu)
        out.append(resolvers[int(r)].lookup(APPS[int(a)]))
    return out


def batch_names(table, slot):
    return [table.vip_names[int(s)] for s in slot]


def random_batch(rng, n, n_resolvers=8):
    return (
        rng.integers(0, n_resolvers, n),
        rng.integers(0, len(APPS), n),
        rng.random(n),
    )


@pytest.mark.parametrize("ttl_s", [120.0, 45.0])
def test_answer_sequences_match_object_path(ttl_s):
    table = VectorizedDnsTable(APPS, ZONES, 8, ttl_s=ttl_s)
    clock, authority, srng, resolvers = object_pair(ttl_s)
    rng = np.random.default_rng(5)
    for step in range(6):
        now = step * 40.0
        resolver, app, u = random_batch(rng, 300)
        got = batch_names(table, table.resolve_batch(resolver, app, u, now=now))
        want = replay(table, clock, srng, resolvers, resolver, app, u, now)
        assert got == want, f"step {step} diverged"
        assert table.cache_hits == sum(r.cache_hits for r in resolvers)
        assert table.cache_misses == sum(r.cache_misses for r in resolvers)


def test_same_seed_same_weights_same_sequence():
    t1 = VectorizedDnsTable(APPS, ZONES, 8, ttl_s=60.0)
    t2 = VectorizedDnsTable(APPS, ZONES, 8, ttl_s=60.0)
    rng = np.random.default_rng(11)
    resolver, app, u = random_batch(rng, 500)
    assert np.array_equal(
        t1.resolve_batch(resolver, app, u, now=0.0),
        t2.resolve_batch(resolver, app, u, now=0.0),
    )


def test_zero_ttl_disables_caching():
    table = VectorizedDnsTable(APPS, ZONES, 8, ttl_s=0.0)
    clock, authority, srng, resolvers = object_pair(0.0)
    rng = np.random.default_rng(9)
    # duplicates of the same (resolver, app) in one batch all re-draw
    resolver = np.zeros(50, dtype=np.int64)
    app = np.zeros(50, dtype=np.int64)
    u = rng.random(50)
    got = batch_names(table, table.resolve_batch(resolver, app, u, now=0.0))
    want = replay(table, clock, srng, resolvers, resolver, app, u, 0.0)
    assert got == want
    assert table.cache_hits == 0
    assert table.cache_misses == 50


def test_violators_stretch_ttl_identically():
    violators = np.array([True, False] * 4)
    table = VectorizedDnsTable(
        APPS, ZONES, 8, ttl_s=50.0, violators=violators, violation_factor=4.0
    )
    clock, authority, srng, resolvers = object_pair(
        50.0, violators=violators, violation_factor=4.0
    )
    rng = np.random.default_rng(21)
    for now in (0.0, 60.0, 130.0, 210.0):  # straddles 50s and 200s TTLs
        resolver, app, u = random_batch(rng, 250)
        got = batch_names(table, table.resolve_batch(resolver, app, u, now=now))
        want = replay(table, clock, srng, resolvers, resolver, app, u, now)
        assert got == want


def test_k1_set_weights_shifts_answers_deterministically():
    table = VectorizedDnsTable(APPS, ZONES, 4, ttl_s=0.0)
    u = np.linspace(0.01, 0.99, 200)
    resolver = np.zeros(200, dtype=np.int64)
    app = np.zeros(200, dtype=np.int64)  # app-a: two VIPs
    before = table.resolve_batch(resolver, app, u, now=0.0)
    table.set_weights("app-a", {"10.0.0.1": 100.0, "10.0.0.2": 1.0})
    after = table.resolve_batch(resolver, app, u, now=0.0)
    # nearly all mass moved to the first (name-sorted) VIP
    assert (after == table.vip_names.index("10.0.0.1")).mean() > 0.95
    assert not np.array_equal(before, after)
    # the authority computes the identical post-K1 distribution
    w = np.asarray([100.0, 1.0])
    expect = np.searchsorted(weighted_cdf(w), u, side="right")
    assert np.array_equal(after, expect)


def test_set_weights_rejects_vip_set_changes():
    table = VectorizedDnsTable(APPS, ZONES, 4, ttl_s=10.0)
    with pytest.raises(ValueError):
        table.set_weights("app-a", {"10.0.0.1": 1.0})
    with pytest.raises(ValueError):
        table.set_weights("app-a", {"10.0.0.1": 1.0, "10.9.9.9": 1.0})
    with pytest.raises(ValueError):
        table.set_weights("app-a", {"10.0.0.1": 0.0, "10.0.0.2": 0.0})


def test_weighted_pick_matches_generator_choice():
    """The load-bearing seam: searchsorted over the shared CDF is
    bit-identical to ``Generator.choice(..., p=...)`` — including the RNG
    stream consumption (one uniform per draw)."""
    weights = np.array([0.5, 3.0, 1.25, 0.25])
    probs = weights / weights.sum()
    for seed in range(5):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        got = [weighted_pick(weights, b.random()) for _ in range(100)]
        want = [int(a.choice(4, p=probs)) for _ in range(100)]
        assert got == want
