"""Tests for popularity, demand processes, arrivals, and the builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngHub
from repro.workload import (
    AppSpec,
    ConstantDemand,
    DiurnalDemand,
    FlashCrowdDemand,
    MMPPArrivals,
    StepDemand,
    WorkloadBuilder,
    allocate_vip_counts,
    lognormal_durations,
    zipf_weights,
)


# ---------------------------------------------------------------- popularity


def test_zipf_normalized_and_decreasing():
    w = zipf_weights(100, 0.8)
    assert w.sum() == pytest.approx(1.0)
    assert (np.diff(w) <= 0).all()
    assert w[0] > w[-1]


def test_zipf_flat_when_s_zero():
    w = zipf_weights(10, 0.0)
    assert np.allclose(w, 0.1)


def test_zipf_validation():
    with pytest.raises(ValueError):
        zipf_weights(0)
    with pytest.raises(ValueError):
        zipf_weights(5, -1)


def test_vip_allocation_hits_budget_and_floor():
    pop = zipf_weights(50, 1.0)
    counts = allocate_vip_counts(pop, mean_vips=3.0, min_vips=1, max_vips=16)
    assert counts.sum() == 150
    assert counts.min() >= 1
    assert counts.max() <= 16
    # popular apps get at least as many VIPs as unpopular ones
    assert counts[0] >= counts[-1]


def test_vip_allocation_popularity_monotone_on_average():
    pop = zipf_weights(20, 1.2)
    counts = allocate_vip_counts(pop, mean_vips=3.0)
    assert counts[:5].mean() >= counts[-5:].mean()


def test_vip_allocation_validation_and_edges():
    assert allocate_vip_counts(np.array([]), 3.0).shape == (0,)
    with pytest.raises(ValueError):
        allocate_vip_counts(np.array([1.0]), mean_vips=0.5, min_vips=1)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 200),
    s=st.floats(0.0, 1.5),
    mean=st.floats(1.0, 6.0),
)
def test_vip_allocation_properties(n, s, mean):
    pop = zipf_weights(n, s)
    counts = allocate_vip_counts(pop, mean_vips=mean, min_vips=1, max_vips=32)
    assert counts.min() >= 1
    assert counts.max() <= 32
    # total within one of budget unless clamping forced it higher
    budget = round(n * mean)
    assert counts.sum() >= min(budget, n)  # at least the floor
    if counts.max() < 32 and counts.min() > 1:
        assert abs(int(counts.sum()) - budget) <= 1


# ------------------------------------------------------------------- demand


def test_constant_and_step_demand():
    assert ConstantDemand(5.0).rate(123) == 5.0
    step = StepDemand(before=1.0, after=9.0, at=100.0)
    assert step.rate(99) == 1.0 and step.rate(100) == 9.0
    with pytest.raises(ValueError):
        ConstantDemand(-1)


def test_diurnal_demand_cycle():
    d = DiurnalDemand(mean=10.0, amplitude=0.5, period_s=86400, peak_time_s=0)
    assert d.rate(0) == pytest.approx(15.0)  # peak
    assert d.rate(43200) == pytest.approx(5.0)  # trough
    assert d.rate(86400) == pytest.approx(15.0)  # next peak
    with pytest.raises(ValueError):
        DiurnalDemand(mean=1.0, amplitude=1.5)


def test_flash_crowd_phases():
    f = FlashCrowdDemand(base=2.0, spike_factor=8.0, start_s=600, ramp_s=100, hold_s=300, decay_s=100)
    assert f.rate(0) == 2.0
    assert f.rate(650) == pytest.approx(2.0 + 14.0 * 0.5)  # mid-ramp
    assert f.rate(800) == pytest.approx(16.0)  # hold
    assert 2.0 < f.rate(1500) < 16.0  # decaying
    assert f.rate(1e7) == pytest.approx(2.0, abs=1e-3)  # fully decayed
    with pytest.raises(ValueError):
        FlashCrowdDemand(base=1.0, spike_factor=0.5)


# ----------------------------------------------------------------- arrivals


def test_mmpp_mean_rate_between_states():
    rng = RngHub(2).stream("mmpp")
    arr = MMPPArrivals(
        rate_calm=1.0, rate_burst=20.0, mean_calm_s=10.0, mean_burst_s=10.0, rng=rng
    )
    gen = arr.interarrivals()
    gaps = [next(gen) for _ in range(5000)]
    measured = 1.0 / np.mean(gaps)
    assert 1.0 < measured < 20.0  # not stuck in either state
    assert all(g >= 0 for g in gaps)
    with pytest.raises(ValueError):
        MMPPArrivals(0, 1, 1, 1, rng)


def test_lognormal_durations_mean():
    rng = RngHub(3).stream("dur")
    d = lognormal_durations(rng, mean_s=60.0, sigma=1.0, size=20000)
    assert d.mean() == pytest.approx(60.0, rel=0.1)
    assert (d > 0).all()
    with pytest.raises(ValueError):
        lognormal_durations(rng, mean_s=0)


# ---------------------------------------------------------------- app specs


def test_app_spec_conversions():
    app = AppSpec("app-1", 0.1, ConstantDemand(2.0), vm_cpu=0.5)
    assert app.traffic_gbps(0) == 2.0
    assert app.cpu_demand(0) == 2.0
    assert app.instances_needed(0, headroom=1.0) == 4
    assert app.instances_needed(0, headroom=1.2) == 5  # ceil(2*1.2/0.5)


def test_app_spec_validation():
    with pytest.raises(ValueError):
        AppSpec("a", 0.1, ConstantDemand(1.0), vm_cpu=0)
    with pytest.raises(ValueError):
        AppSpec("a", 0.1, ConstantDemand(1.0), min_instances=0)
    with pytest.raises(ValueError):
        AppSpec("a", 0.1, ConstantDemand(1.0), n_vips=0)


# ------------------------------------------------------------------ builder


def test_builder_deterministic():
    apps1 = WorkloadBuilder(n_apps=20, total_gbps=50, rng_hub=RngHub(9)).build()
    apps2 = WorkloadBuilder(n_apps=20, total_gbps=50, rng_hub=RngHub(9)).build()
    assert [a.app_id for a in apps1] == [a.app_id for a in apps2]
    assert [a.demand.rate(1000) for a in apps1] == [a.demand.rate(1000) for a in apps2]


def test_builder_total_demand_about_right():
    apps = WorkloadBuilder(
        n_apps=50, total_gbps=100.0, diurnal_fraction=0.0, rng_hub=RngHub(4)
    ).build()
    total = sum(a.demand.rate(0) for a in apps)
    assert total == pytest.approx(100.0)


def test_builder_mean_vips():
    apps = WorkloadBuilder(n_apps=40, mean_vips=3.0, rng_hub=RngHub(5)).build()
    assert np.mean([a.n_vips for a in apps]) == pytest.approx(3.0, abs=0.15)


def test_builder_flash_crowd_injection():
    builder = WorkloadBuilder(n_apps=10, diurnal_fraction=0.0, rng_hub=RngHub(6))
    apps = builder.build()
    spiked = builder.with_flash_crowd(apps, victims=[0], spike_factor=4.0, start_s=100, ramp_s=10, hold_s=50)
    assert isinstance(spiked[0].demand, FlashCrowdDemand)
    assert spiked[0].demand.rate(0) == pytest.approx(apps[0].demand.rate(0))
    assert spiked[0].demand.rate(150) == pytest.approx(4 * apps[0].demand.rate(0))
    assert spiked[1].demand is apps[1].demand


def test_builder_validation():
    with pytest.raises(ValueError):
        WorkloadBuilder(n_apps=0).build()
