"""Reduced-scale smoke + shape tests for every experiment module.

Benchmarks run the experiments at full scale; these tests run them small
and assert the structural properties (row shapes, invariants, the
directions of the headline comparisons) so a regression in any experiment
is caught by `pytest tests/` without the benchmark suite.
"""

import math

import pytest

from repro.experiments import (
    e01_architecture,
    e02_placement_scalability,
    e03_fabric_sizing,
    e04_selective_exposure,
    e05_vip_transfer,
    e06_server_transfer,
    e07_dynamic_deployment,
    e08_agility,
    e09_viprip_manager,
    e10_two_layer,
    e11_vip_tradeoff,
    e12_quality,
    e15_parallel_scaling,
    e16_sharded_control_plane,
)


def test_e01_small():
    result = e01_architecture.run(
        n_apps=12, total_gbps=8.0, n_pods=2, servers_per_pod=8, n_switches=4,
        duration_s=600.0,
    )
    assert result.dc.invariants_ok()
    assert result.dc.satisfied.current > 0.95
    table = result.table()
    assert len(table.rows) == 4  # links, switches, pods, servers
    assert "satisfied" in "".join(table.notes)


def test_e02_small():
    result = e02_placement_scalability.run(sizes=(50, 100), pod_size=50)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.tang_satisfied > 0.9
        assert row.hier_satisfied > 0.9
        assert row.hier_total_s >= row.hier_max_pod_s
    assert result.rows[1].tang_s > result.rows[0].tang_s
    result.table()  # renders


def test_e02_instance_feasible_start():
    problem = e02_placement_scalability.make_instance(60)
    assert problem.placement_feasible(problem.current)
    # every app got an initial instance
    assert (problem.current.sum(axis=0) >= 1).all()


def test_e02_split_covers_all_demand():
    problem = e02_placement_scalability.make_instance(60)
    pods = e02_placement_scalability.split_into_pods(problem, 20)
    total = sum(p.app_cpu_demand.sum() for p in pods)
    assert total == pytest.approx(problem.total_demand, rel=1e-9)
    assert sum(p.n_servers for p in pods) == problem.n_servers


def test_e03_paper_numbers():
    result = e03_fabric_sizing.run(app_counts=(300_000,), vips_per_app=(2.0, 3.0))
    rows = {(r[0], r[1]): r for r in result.analytic_rows}
    assert rows[(300_000, 2.0)][3] == 150
    assert rows[(300_000, 3.0)][5] == 375
    assert result.sim_max_switch_util < 1.0
    result.table()


def test_e04_single_point():
    result = e04_selective_exposure.run(
        ttls=(30.0,), violator_fractions=(0.1,), duration_s=1500.0
    )
    k1 = result.rows[0]
    naive = result.rows[-1]
    assert k1[0] == "K1 exposure" and naive[0] == "naive BGP"
    assert k1[4] == 0  # route updates
    assert naive[4] >= 3
    assert math.isfinite(k1[3])
    assert k1[3] < naive[3]
    result.table()


def test_e05_pause_trial_shapes():
    compliant = e05_vip_transfer.pause_trial(seed=0, violator_fraction=0.0)
    assert compliant.sessions_at_drain > 0
    assert compliant.paused
    assert compliant.time_to_pause_s > 0
    stubborn = e05_vip_transfer.pause_trial(
        seed=0, violator_fraction=1.0, timeout_s=120.0
    )
    assert not stubborn.paused or stubborn.time_to_pause_s > compliant.time_to_pause_s


def test_e05_balance_scenario_small():
    s = e05_vip_transfer.SwitchBalanceScenario(use_k2=True, n_switches=4, n_apps=8)
    s.run(1500.0)
    assert s.final_imbalance >= 1.0
    assert s.peak_util > 0


def test_e06_small():
    result = e06_server_transfer.run(duration_s=1800.0)
    rows = {r.config: r for r in result.rows}
    assert rows["no-GM"].satisfied_final < 0.9
    assert rows["K3-uncapped (elephant)"].satisfied_final > 0.99
    assert (
        rows["K3-uncapped (elephant)"].hot_pod_servers
        > rows["capped ladder (K6->K5->K4->K3)"].hot_pod_servers
    )
    result.table()


def test_e07_small():
    result = e07_dynamic_deployment.run(duration_s=2400.0)
    rows = {r.policy: r for r in result.rows}
    assert rows["no-deployment (K6/K5/K3)"].deployments == 0
    assert rows["deploy-first"].deployments >= 1
    result.table()


def test_e08_ladder_shape():
    result = e08_agility.run()
    latencies = {(r[0], r[1]): r[2] for r in result.rows}
    knobs = {r[0] for r in result.rows}
    assert knobs == {"K1", "K3", "K4", "K5", "K6", "naive-bgp"}
    # sorted ascending by latency
    vals = [r[2] for r in result.rows]
    assert vals == sorted(vals)
    assert result.conservation_before == result.conservation_after
    result.table()


def test_e09_small():
    result = e09_viprip_manager.run(switch_counts=(16, 64), n_requests=40)
    flat = {r.n_switches: r for r in result.rows if r.selector == "flat"}
    hier = {r.n_switches: r for r in result.rows if r.selector == "switch-pods"}
    assert flat[64].throughput_rps < flat[16].throughput_rps
    assert hier[64].throughput_rps > flat[64].throughput_rps
    result.table()


def test_e10_shapes():
    result = e10_two_layer.run(crossings=(0.0, 1.0))
    by = {r[0]: r for r in result.rows}
    assert by[1.0][1] > 1.0 > by[1.0][4]
    assert result.overhead["overhead_ratio"] > 1.0
    result.table()


def test_e10_bindings_builder():
    aligned = e10_two_layer.make_bindings(0.0)
    crossed = e10_two_layer.make_bindings(1.0)
    assert all(
        b.pod_mix == {"pod-big": 1.0} for b in aligned if b.link == "link-big"
    )
    assert all(
        b.pod_mix == {"pod-small": 1.0} for b in crossed if b.link == "link-big"
    )


def test_e11_small():
    result = e11_vip_tradeoff.run(ks=(1.0, 3.0), n_apps=60)
    utils = {r[0]: r[1] for r in result.rows}
    assert utils[3.0] < utils[1.0]
    result.table()


def test_e11_lp_optimum_known_case():
    import numpy as np

    # one app, 1 Gbps, two links of 1 and 3 Gbps: optimum splits 1:3.
    util = e11_vip_tradeoff.optimal_link_balance(
        np.array([1.0]), [[0, 1]], np.array([1.0, 3.0])
    )
    assert util == pytest.approx(0.25, abs=1e-6)


def test_e12_small():
    result = e12_quality.run(n_servers=60, epochs=3, pod_size=30)
    rows = {r.controller: r for r in result.rows}
    assert rows["distributed"].mean_satisfied <= rows["tang-centralized"].mean_satisfied + 1e-9
    assert rows["hierarchical-pods"].total_time_s < rows["tang-centralized"].total_time_s
    result.table()


def test_e12_parallel_matches_serial():
    serial = e12_quality.run(n_servers=60, epochs=2, pod_size=30, parallelism=1)
    parallel = e12_quality.run(n_servers=60, epochs=2, pod_size=30, parallelism=2)
    for s, p in zip(serial.rows, parallel.rows):
        assert (s.controller, s.mean_satisfied, s.total_changes) == (
            p.controller,
            p.mean_satisfied,
            p.total_changes,
        )


def test_e15_small():
    result = e15_parallel_scaling.run(
        pod_counts=(4,), workers_list=(1, 2), pod_size=10, epochs=2
    )
    assert len(result.rows) == 2
    assert result.all_identical()
    serial = result.rows[0]
    assert serial.workers == 1 and serial.speedup == pytest.approx(1.0)
    table = result.table()
    assert "cpu_count" in "".join(table.notes)


def test_e16_defaults_pin_every_phase():
    """E16 at its defaults, all in simulated time (well under a second)."""
    result = e16_sharded_control_plane.run(seed=42)
    storm = [
        (c.n_shards, c.completed, c.makespan_s, c.throughput_rps, c.speedup_vs_serial)
        for c in result.throughput
    ]
    assert storm == [
        (1, 240, pytest.approx(120.096), pytest.approx(1.9984012789768), 1.0),
        (2, 240, pytest.approx(71.5286), pytest.approx(3.3553012361489),
         pytest.approx(1.6789927385689)),
        (4, 240, pytest.approx(42.0084), pytest.approx(5.7131430856686),
         pytest.approx(2.8588568000686)),
    ]
    chaos = [
        (c.n_shards, c.crashes, c.partitions, c.handoffs, c.conflicts,
         c.rollbacks, c.completed, c.submitted, c.lost, c.convergence_rounds)
        for c in result.chaos
    ]
    assert chaos == [
        (1, 2, 0, 0, 0, 0, 46, 120, 74, 0),
        (2, 2, 2, 3, 2, 1, 119, 120, 1, 1),
        (4, 2, 2, 8, 10, 5, 120, 120, 0, 1),
    ]
    clean = dict.fromkeys(
        ("vip_missing", "vip_misplaced", "vip_duplicate", "rip_missing",
         "rip_orphaned", "index_stale", "weight_stale"),
        0,
    )
    assert [c.final_drift for c in result.chaos] == [clean] * 3
    ic = result.integrated
    assert (
        ic.n_shards, ic.manager_crashes, ic.handoffs, ic.conflicts,
        ic.gossip_rounds, ic.reconciler_clean, ic.auditor_violations,
        ic.mttr_manager_s,
    ) == (4, 2, 0, 0, 36, True, 0, 16.0)
    assert ic.plane_drift == clean
    assert result.accepted


def test_e10_dynamic_scenario():
    from repro.experiments.e10_two_layer import TwoLayerScenario

    single = TwoLayerScenario(two_layer=False)
    link_u, pod_u = single.run(duration_s=1800.0, warmup_s=600.0)
    assert max(link_u, pod_u) > 1.0  # the conflict is unfixable in-band

    two = TwoLayerScenario(two_layer=True)
    link_u, pod_u = two.run(duration_s=1800.0, warmup_s=600.0)
    assert link_u < 1.0 and pod_u < 1.0
    # capacity-proportional optimum: 8 / 12
    assert pod_u == pytest.approx(8.0 / 12.0, abs=0.05)


def test_e18_fault_cycle_quick():
    """The scripted fail/repair cycle at quick scale: every fault is
    absorbed by the next epoch (MTTR = one epoch interval), the fleet
    fully recovers, and the columnar RIP mirror survives the churn."""
    from repro.experiments import e18_mega_faults as e18

    result = e18.run(epochs=6)
    assert result.faults_injected == 12
    assert result.recovered
    assert all(r.satisfied_fraction >= 0.98 for r in result.rows)
    assert result.auditor_ok and result.rip_verified
    assert result.mttr_pod_s == pytest.approx(result.config.epoch_s)
    assert result.mttr_server_s == pytest.approx(result.config.epoch_s)
    assert result.rip_records_total > 0
    assert result.rows[1].pods_down == 2
    assert result.rows[-1].pods_down == 0
    # Spread pod losses never black-hole demand at cover=20.
    assert result.dropped_gb == 0.0
    text = result.table().render()
    assert "MTTR" in text and "verified" in text


def test_e18_schedule_rejects_bad_fault_counts():
    from repro.core.mega import MegaConfig
    from repro.experiments import e18_mega_faults as e18

    cfg = MegaConfig.quick()
    with pytest.raises(ValueError, match="alive"):
        e18.default_schedule(cfg, pod_faults=cfg.n_pods)
    with pytest.raises(ValueError, match="servers_per_pod"):
        e18.default_schedule(cfg, server_faults=cfg.servers_per_pod + 1)


def test_e19_quick_rows_are_driver_reports():
    """E19 at quick scale without the object race: every request is
    accounted for, the K1 schedule fires once, and the table renders the
    driver's own epoch reports."""
    from repro.core.mega import MegaEpochReport
    from repro.experiments import e19_dataplane as e19

    result = e19.run(epochs=3, with_object=False)
    assert len(result.rows) == 3
    for r in result.rows:
        assert isinstance(r, MegaEpochReport)
        assert r.requests > 0
        assert r.conns_opened + r.conns_rejected + r.unserved == r.requests
        assert r.conns_alive > 0
    assert result.knob_events.get("K1") == 1  # knob_period=2: epoch 2
    assert result.auditor_ok
    assert result.speedup_vs_object is None
    table = result.table()
    assert len(table.columns) == 10
    assert all(len(row) == 10 for row in table.rows)
    text = table.render()
    assert "alive" in text and "K1=1" in text
