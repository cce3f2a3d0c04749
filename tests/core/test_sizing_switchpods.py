"""Tests for analytic sizing and switch-selection strategies."""

import math

import pytest

from repro.core.sizing import (
    aggregate_lb_bandwidth_gbps,
    lb_layer_is_bottleneck,
    switches_needed,
    vip_allocation_state_space_log10,
)
from repro.core.switch_pods import FlatSwitchManager, SwitchPodManager
from repro.lbswitch.switch import LBSwitch, SwitchLimits


# ------------------------------------------------------------------ sizing


def test_paper_number_150_switches_600_gbps():
    """Section III-B: 300,000 apps x 2 VIPs / 4,000 = 150 switches, ~600 Gbps."""
    size = switches_needed(300_000, 2.0, rips_per_app=0.0)
    assert size.by_vips == 150
    assert aggregate_lb_bandwidth_gbps(size.by_vips) == pytest.approx(600.0)


def test_paper_number_375_switches():
    """Section V-A: max(300K*3/4000, 300K*20/16000) = 375."""
    size = switches_needed(300_000, 3.0, 20.0)
    assert size.by_vips == 225
    assert size.by_rips == 375
    assert size.required == 375


def test_sizing_validation():
    with pytest.raises(ValueError):
        switches_needed(0, 3, 20)
    with pytest.raises(ValueError):
        switches_needed(10, 0.5, 20)
    with pytest.raises(ValueError):
        aggregate_lb_bandwidth_gbps(-1)


def test_lb_layer_bottleneck_check():
    # 150 switches = 600 Gbps; 20% of 2400 Gbps total = 480 Gbps -> fine
    assert not lb_layer_is_bottleneck(150, 2400.0, external_fraction=0.2)
    # but 20% of 4000 Gbps = 800 Gbps > 600 -> bottleneck
    assert lb_layer_is_bottleneck(150, 4000.0, external_fraction=0.2)


def test_state_space_is_astronomical():
    """Section V-A: the VIP-allocation decision space for 300K apps /
    400 switches / 3 VIPs is ~10^2.3M states."""
    log10 = vip_allocation_state_space_log10(300_000, 400, 3.0)
    assert log10 == pytest.approx(900_000 * math.log10(400))
    assert log10 > 2e6  # over 10^(2 million)
    with pytest.raises(ValueError):
        vip_allocation_state_space_log10(0, 1, 1)


# ------------------------------------------------------------ switch pools


def make_switches(n, max_vips=10, max_rips=40):
    return [
        LBSwitch(f"lb-{i}", None, SwitchLimits(max_vips=max_vips, max_rips=max_rips))
        for i in range(n)
    ]


def test_flat_manager_selects_least_loaded():
    switches = make_switches(4)
    switches[0].add_vip("v0", "a")
    switches[0].add_vip("v1", "b")
    switches[1].add_vip("v2", "c")
    sel = FlatSwitchManager(switches).select_for_vip()
    assert sel.switch.name in ("lb-2", "lb-3")
    assert sel.scanned == 4
    assert sel.cost_s == pytest.approx(4 * 5e-5)


def test_flat_manager_full_returns_none():
    switches = make_switches(2, max_vips=1)
    for i, s in enumerate(switches):
        s.add_vip(f"v{i}", "a")
    sel = FlatSwitchManager(switches).select_for_vip()
    assert sel.switch is None


def test_flat_manager_rip_selection_prefers_spare():
    switches = make_switches(3)
    for s in switches[:2]:
        s.add_vip(f"vip-{s.name}", "app")
    for i in range(5):
        switches[0].add_rip("vip-lb-0", f"r{i}")
    sel = FlatSwitchManager(switches).select_for_rip(hosting=switches[:2])
    assert sel.switch.name == "lb-1"


def test_flat_manager_validation():
    with pytest.raises(ValueError):
        FlatSwitchManager([])


def test_switch_pod_manager_scans_fewer():
    switches = make_switches(100)
    flat = FlatSwitchManager(switches)
    hier = SwitchPodManager(switches, pod_size=10)
    assert hier.n_pods == 10
    flat_sel = flat.select_for_vip()
    hier_sel = hier.select_for_vip()
    assert flat_sel.scanned == 100
    assert hier_sel.scanned == 10 + 10  # P pods + one pod of L/P
    assert hier_sel.cost_s < flat_sel.cost_s
    assert hier_sel.switch is not None


def test_switch_pod_manager_rip_selection_scoped():
    switches = make_switches(40)
    hier = SwitchPodManager(switches, pod_size=10)
    switches[5].add_vip("v", "app")
    sel = hier.select_for_rip(hosting=[switches[5]])
    assert sel.switch is switches[5]
    # scanned: 4 pods at top + the one pod containing the hosting switch
    assert sel.scanned == 4 + 10


def test_switch_pod_manager_full_pods():
    switches = make_switches(4, max_vips=1)
    for i, s in enumerate(switches):
        s.add_vip(f"v{i}", "a")
    hier = SwitchPodManager(switches, pod_size=2)
    assert hier.select_for_vip().switch is None
    assert hier.select_for_rip(hosting=[]).switch is None


def test_switch_pod_validation():
    with pytest.raises(ValueError):
        SwitchPodManager([], pod_size=2)
    with pytest.raises(ValueError):
        SwitchPodManager(make_switches(2), pod_size=0)
