"""Integration tests: the full MegaDataCenter facade (Figure 1)."""

import numpy as np
import pytest

from repro.core import MegaDataCenter, PlatformConfig
from repro.sim import RngHub
from repro.workload import WorkloadBuilder
from repro.workload.apps import AppSpec
from repro.workload.demand import ConstantDemand, FlashCrowdDemand, StepDemand


def small_config(**overrides):
    defaults = dict(
        epoch_s=60.0,
        dns_ttl_s=30.0,
        overload_threshold=0.85,
        donor_threshold=0.5,
    )
    defaults.update(overrides)
    return PlatformConfig(**defaults)


def build_dc(
    n_apps=12,
    total_gbps=20.0,
    n_pods=3,
    servers_per_pod=12,
    n_switches=4,
    seed=0,
    **kwargs,
):
    apps = WorkloadBuilder(
        n_apps=n_apps,
        total_gbps=total_gbps,
        diurnal_fraction=0.0,
        rng_hub=RngHub(seed),
    ).build()
    return MegaDataCenter(
        apps,
        config=small_config(),
        n_pods=n_pods,
        servers_per_pod=servers_per_pod,
        n_switches=n_switches,
        **kwargs,
    )


def test_build_wires_everything():
    dc = build_dc()
    # every app has its VIPs on switches and advertised on links
    for app_id, spec in dc.specs.items():
        vips = dc.state.app_vips[app_id]
        assert len(vips) == spec.n_vips
        for vip in vips:
            info = dc.state.vips[vip]
            assert dc.switches[info.switch].has_vip(vip)
            assert info.link in dc.bgp.links_for(vip, include_padded=True)
    # bootstrap created serving instances with RIPs
    assert len(dc.state.rips) > 0
    assert dc.invariants_ok()


def test_dns_never_exposes_ripless_vips():
    dc = build_dc()
    for app_id in dc.specs:
        for vip, weight in dc.authority.weights(app_id).items():
            if weight > 0:
                assert dc.state.switch_of_vip(vip).entry(vip).rips, (
                    f"{app_id}: exposed VIP {vip} has no RIPs"
                )


def test_run_steady_state_satisfies_demand():
    dc = build_dc()
    dc.run(10 * 60.0)
    assert dc.epochs >= 10
    assert dc.satisfied.current == pytest.approx(1.0, abs=0.01)
    assert dc.invariants_ok()
    # no link overloaded at this modest load
    assert max(dc.link_utilizations().values()) < 1.0


def test_run_is_deterministic():
    dc1 = build_dc(seed=3)
    dc2 = build_dc(seed=3)
    dc1.run(5 * 60.0)
    dc2.run(5 * 60.0)
    assert dc1.link_utilizations() == dc2.link_utilizations()
    assert dc1.pod_utilizations() == dc2.pod_utilizations()


def test_demand_growth_triggers_global_manager():
    apps = [
        AppSpec("hot", 0.5, StepDemand(before=2.0, after=14.0, at=300.0), n_vips=2),
        AppSpec("cold", 0.5, ConstantDemand(1.0), n_vips=2),
    ]
    dc = MegaDataCenter(
        apps,
        config=small_config(),
        n_pods=3,
        servers_per_pod=8,
        n_switches=4,
    )
    dc.run(40 * 60.0)
    # the step forced the platform to scale 'hot' out
    hot_instances = sum(
        1 for info in dc.state.rips.values() if info.app == "hot"
    )
    assert hot_instances >= 2
    assert dc.satisfied.current > 0.9
    log = dc.action_log()
    assert log is not None


def test_flash_crowd_relief_with_knobs():
    apps = [
        AppSpec(
            "flash",
            0.5,
            FlashCrowdDemand(base=1.0, spike_factor=10.0, start_s=600, ramp_s=120, hold_s=1200),
            n_vips=2,
        ),
        AppSpec("steady", 0.5, ConstantDemand(4.0), n_vips=2),
    ]
    dc = MegaDataCenter(
        apps, config=small_config(), n_pods=4, servers_per_pod=6, n_switches=4
    )
    dc.run(40 * 60.0)
    # during the spike satisfaction may dip, but the knobs recover it
    assert dc.satisfied.current > 0.95
    assert dc.invariants_ok()


def test_disable_global_manager():
    dc = build_dc(enable_global_manager=False)
    dc.run(3 * 60.0)
    assert dc.action_log() is None
    assert dc.global_manager is None


def test_monitor_series_populated():
    dc = build_dc()
    dc.run(5 * 60.0)
    assert len(dc.reports_history) >= 5
    for name, series in dc.pod_util.items():
        assert series.times().size >= 1
    assert dc.link_imbalance.current >= 1.0
    assert dc.switch_imbalance.current >= 1.0


def test_blackholed_traffic_is_zero_in_steady_state():
    dc = build_dc()
    dc.run(5 * 60.0)
    assert dc.state.blackholed_gbps == pytest.approx(0.0, abs=1e-9)


def test_total_demand_accessor():
    dc = build_dc(total_gbps=20.0)
    assert dc.total_demand_gbps(0.0) == pytest.approx(20.0)


def test_empty_app_list_rejected():
    with pytest.raises(ValueError):
        MegaDataCenter([], config=small_config())
