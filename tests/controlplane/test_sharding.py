"""Unit tests for the sharded VIP/RIP control plane."""

import pytest

from repro.controlplane import RetryPolicy, ShardOwnershipMap
from repro.controlplane.sharding import ShardedControlPlane
from repro.core.viprip import VipRipRequest
from repro.lbswitch.addresses import PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits
from repro.sim import Environment

DRIFT_DIMS = (
    "vip_missing",
    "vip_misplaced",
    "vip_duplicate",
    "rip_missing",
    "rip_orphaned",
    "index_stale",
    "weight_stale",
)


def build_plane(n_shards=2, n_switches=4, reconfig_s=1.0, **kwargs):
    env = Environment()
    switches = [
        LBSwitch(f"lb-{i}", env, SwitchLimits(max_vips=10, max_rips=40))
        for i in range(n_switches)
    ]
    plane = ShardedControlPlane(
        env, switches, PUBLIC_VIP_POOL(1000), n_shards,
        reconfig_s=reconfig_s, **kwargs,
    )
    return env, switches, plane


def drive(env, gen):
    out = []

    def driver():
        res = yield from gen
        out.append(res)

    env.process(driver())
    env.run()
    return out[0]


# -- ownership map ---------------------------------------------------------
def test_default_ownership_is_deterministic_and_in_range():
    a, b = ShardOwnershipMap(4), ShardOwnershipMap(4)
    for i in range(50):
        app = f"app-{i}"
        assert a.default_owner(app) == b.default_owner(app)
        assert 0 <= a.default_owner(app) < 4
        assert a.claim_of(app) == (0, a.default_owner(app))


def test_handoff_mints_monotonic_epochs_never_reused():
    m = ShardOwnershipMap(3)
    e1, owner1 = m.handoff("app-a", 2)
    e2, _ = m.handoff("app-b", 1)
    e3, _ = m.handoff("app-a", 0)  # back again: fresh epoch, not recycled
    assert (e1, e2, e3) == (1, 2, 3)
    assert (owner1, m.owner_of("app-a"), m.owner_of("app-b")) == (2, 0, 1)
    with pytest.raises(ValueError, match="no shard"):
        m.handoff("app-a", 9)


# -- construction ----------------------------------------------------------
def test_switch_slices_are_disjoint_and_cover_the_fleet():
    _, switches, plane = build_plane(n_shards=3, n_switches=7)
    seen = []
    for shard in plane.shards:
        seen.extend(shard.switch_names)
    assert sorted(seen) == sorted(sw.name for sw in switches)
    assert len(seen) == len(set(seen))
    # round-robin keeps fleets the same size +/- 1
    sizes = [len(s.switch_names) for s in plane.shards]
    assert max(sizes) - min(sizes) <= 1


def test_more_shards_than_switches_rejected():
    env = Environment()
    switches = [
        LBSwitch("lb-0", env, SwitchLimits(max_vips=4, max_rips=8))
    ]
    with pytest.raises(ValueError, match="shards need"):
        ShardedControlPlane(env, switches, PUBLIC_VIP_POOL(10), 2)


@pytest.mark.parametrize(
    "setting", ["selector", "state_snapshot", "journal", "restore_s"]
)
def test_settings_not_passed_on_to_shards_are_rejected(setting):
    with pytest.raises(TypeError, match=setting):
        build_plane(**{setting: None})


def test_manager_settings_reach_every_shard():
    _, _, plane = build_plane(rehome_timeout_s=7.0, cutover_s=0.5)
    for shard in plane.shards:
        assert shard.manager.rehome_timeout_s == 7.0
        assert shard.manager.cutover_s == 0.5
        assert shard.manager.retry_policy is plane.retry_policy


def test_resolve_shard_accepts_ids_names_and_legacy_targets():
    _, _, plane = build_plane(n_shards=2)
    assert plane.resolve_shard(1) is plane.shards[1]
    assert plane.resolve_shard("shard-1") is plane.shards[1]
    # legacy manager_crash targets route to shard 0
    for legacy in (None, "", "viprip", "manager"):
        assert plane.resolve_shard(legacy) is plane.shards[0]
    assert plane.resolve_shard("shard-9") is None
    assert plane.resolve_shard("lb-0") is None


# -- routing ---------------------------------------------------------------
def test_requests_route_to_the_owner_shard():
    env, _, plane = build_plane(n_shards=2)
    done = [plane.submit(VipRipRequest("new_vip", f"app-{i}")) for i in range(8)]
    env.run()
    assert all(d.triggered and d.value is not None for d in done)
    assert plane.routed == 8 and plane.processed == 8
    for i in range(8):
        app = f"app-{i}"
        owner = plane.owner_shard(app)
        assert app in owner.manager.registry
        # placed inside the owner's switch slice
        for sw_name in owner.manager.registry[app].values():
            assert sw_name in owner.switch_names
    assert plane.drift_report().clean


def test_merged_rip_index_reads_and_routes_writes():
    env, _, plane = build_plane(n_shards=2)
    d = plane.submit(VipRipRequest("new_vip", "app-a"))
    env.run(until=d)
    d = plane.submit(VipRipRequest("new_rip", "app-a", rip="10.0.0.1"))
    env.run(until=d)
    vip, sw_name = plane.rip_index["10.0.0.1"]
    owner = plane.owner_shard("app-a")
    assert sw_name in owner.switch_names
    assert "10.0.0.1" in set(plane.rip_index)
    # a facade-level write lands on the shard owning the named switch
    plane.rip_index["10.0.0.1"] = (vip, sw_name)
    assert owner.manager.rip_index["10.0.0.1"] == (vip, sw_name)
    del plane.rip_index["10.0.0.1"]
    assert "10.0.0.1" not in plane.rip_index
    with pytest.raises(KeyError):
        del plane.rip_index["10.0.0.1"]


# -- crash, retry, failover ------------------------------------------------
def test_crashed_owner_is_retried_then_handed_off():
    policy = RetryPolicy(max_attempts=3, base_backoff_s=0.25)
    env, _, plane = build_plane(n_shards=2, retry_policy=policy)
    app = next(f"app-{i}" for i in range(50) if plane.ownership.owner_of(f"app-{i}") == 1)
    plane.crash(1)
    d = plane.submit(VipRipRequest("new_vip", app))
    env.run()
    # bounded deterministic retries, then an emergency handoff to shard 0
    assert plane.transient_route_retries == policy.max_attempts - 1
    assert plane.handoffs == 1
    assert plane.ownership.owner_of(app) == 0
    assert d.triggered and d.value is not None
    assert app in plane.shards[0].manager.registry


def test_route_is_dropped_when_every_shard_is_down():
    env, _, plane = build_plane(n_shards=2)
    plane.crash(0)
    plane.crash(1)
    d = plane.submit(VipRipRequest("new_vip", "app-a"))
    env.run()
    assert d.triggered and d.value is None
    assert plane.lost_routes == 1 and plane.lost == 1


def test_recover_restarts_every_crashed_shard():
    env, _, plane = build_plane(n_shards=2)
    done = [plane.submit(VipRipRequest("new_vip", f"app-{i}")) for i in range(6)]
    env.run()
    assert all(d.value is not None for d in done)
    plane.crash(0)
    plane.crash(1)
    assert plane.crashed and plane.crashes == 2
    replayed = drive(env, plane.recover())
    assert not plane.crashed
    assert replayed == plane.replayed == 6  # journals are shard-local
    assert plane.converge() == 0  # replay already restored everything


# -- conflicts and convergence ---------------------------------------------
def test_adoption_conflict_rolls_back_after_recovery():
    env, switches, plane = build_plane(n_shards=2)
    app = next(f"app-{i}" for i in range(50) if plane.ownership.owner_of(f"app-{i}") == 1)
    d = plane.submit(VipRipRequest("new_vip", app))
    env.run(until=d)
    vip, _ = d.value
    plane.crash(1)
    d = plane.submit(VipRipRequest("new_vip", app))
    env.run()
    # the new owner optimistically adopted the crashed shard's copy, so
    # the original vip is transiently duplicated and flagged as such
    assert plane.conflicts >= 1
    assert vip in plane.vips_in_conflict()
    holders = [sw.name for sw in switches if sw.has_vip(vip)]
    assert len(holders) == 2
    report = plane.drift_report()
    assert report.vip_duplicate >= 1
    drive(env, plane.recover())
    rounds = plane.converge()
    assert rounds is not None and rounds >= 1
    assert plane.rollbacks >= 1
    holders = [sw.name for sw in switches if sw.has_vip(vip)]
    assert len(holders) == 1 and holders[0] in plane.shards[0].switch_names
    assert plane.vips_in_conflict() == set()
    assert plane.drift_report().as_dict() == {dim: 0 for dim in DRIFT_DIMS}


def test_partitioned_shards_cannot_converge_until_healed():
    env, _, plane = build_plane(n_shards=2)
    app = next(f"app-{i}" for i in range(50) if plane.ownership.owner_of(f"app-{i}") == 1)
    d = plane.submit(VipRipRequest("new_vip", app))
    env.run(until=d)
    assert plane.partition(0, 1)
    assert not plane.partition(1, 1)  # a shard cannot partition from itself
    # handoff across the partition: the old owner keeps its stale claim
    # and its copy of the state (an optimistic adoption duplicates it)
    plane._handoff(app, 0, reason="test")
    stale = plane.shards[1].claims.get(app)
    assert stale is None or stale[1] == 1  # the cut hid the new claim
    assert plane.conflicts >= 1
    assert plane.converge() is None  # rollback cannot reach across the cut
    assert plane.heal(0, 1)
    rounds = plane.converge()
    assert rounds is not None
    assert plane.drift_report().clean and plane.vips_in_conflict() == set()


def test_gossip_converge_records_episode_rounds():
    env, _, plane = build_plane(n_shards=2)
    done = [plane.submit(VipRipRequest("new_vip", f"app-{i}")) for i in range(4)]
    env.run()
    assert all(d.value is not None for d in done)
    before = plane.gossip_rounds
    assert plane.converge() == 0  # clean plane: no rounds consumed
    assert plane.gossip_rounds == before


# -- duck-typed facade surface ---------------------------------------------
def test_facade_counters_sum_over_shards():
    env, _, plane = build_plane(n_shards=2)
    done = [plane.submit(VipRipRequest("new_vip", f"app-{i}")) for i in range(6)]
    env.run()
    assert all(d.value is not None for d in done)
    per_shard = [s.manager.processed for s in plane.shards]
    assert sum(per_shard) == plane.processed == 6
    assert all(n > 0 for n in per_shard)  # the storm actually spread out
    assert sum(s.manager.busy_s for s in plane.shards) > 0
    assert not any(s.manager._heap for s in plane.shards)  # queues drained
    assert plane.n_shards == 2


# -- datacenter integration ------------------------------------------------
def build_dc(seed=0, n_shards=2):
    from repro.core import MegaDataCenter, PlatformConfig
    from repro.sim import RngHub
    from repro.workload import WorkloadBuilder

    apps = WorkloadBuilder(
        n_apps=8, total_gbps=4.0, diurnal_fraction=0.0, rng_hub=RngHub(seed)
    ).build()
    return MegaDataCenter(
        apps,
        config=PlatformConfig(),
        n_pods=2,
        servers_per_pod=6,
        n_switches=4,
        control_plane_shards=n_shards,
    )


def test_datacenter_boots_sharded_and_stays_consistent():
    dc = build_dc()
    assert isinstance(dc.viprip, ShardedControlPlane)
    assert dc.viprip.n_shards == 2
    dc.run(200.0)
    assert dc.invariants_ok()
    assert dc.reconciler.run_pass().clean
    assert dc.viprip.drift_report().clean


def test_datacenter_gossip_keeps_a_k6_weight_set_after_a_handoff():
    """The first checkpoint (at 120 s) records every indexed RIP's weight
    and a handoff journals the moved RIPs' weights on the new owner; K6
    records the weights it sets there, so gossip does not undo them."""
    dc = build_dc()
    dc.run(200.0)
    plane = dc.viprip
    vip, app = next(
        (vip, sw.entry(vip).app)
        for _, sw in sorted(dc.switches.items()) for vip in sorted(sw.vips())
        if len(sw.entry(vip).rips) >= 2
    )
    plane._handoff(app, 1 - plane.ownership.owner_of(app), "test")
    sw = next(sw for sw in dc.switches.values() if sw.has_vip(vip))
    a, b = sorted(sw.entry(vip).rips)[:2]
    dc.env.process(dc.global_manager.rip_weights.set_weights(sw, vip, {a: 0.25, b: 0.75}))
    dc.env.run(until=dc.env.now + dc.config.switch_reconfig_s + 1.0)
    assert plane.drift_report().clean
    assert plane.gossip_round() == 0
    assert {r: sw.entry(vip).rips[r] for r in (a, b)} == {a: 0.25, b: 0.75}
    dc.close()


def test_datacenter_shard_fault_kinds_route_to_the_plane():
    from repro.faults import FaultInjector, FaultSchedule, RecoveryMonitor

    dc = build_dc()
    monitor = RecoveryMonitor()
    schedule = FaultSchedule.from_events(
        [
            (50.0, "shard_partition", "shard-0:shard-1"),
            (80.0, "manager_crash", "shard-1"),
            (160.0, "shard_heal", "shard-0:shard-1"),
        ]
    )
    injector = FaultInjector(dc, schedule, monitor)
    dc.run(500.0)
    assert injector.finished
    assert dc.manager_crashes == 1
    assert not dc.viprip.crashed  # supervisor restarted the shard
    assert not dc.viprip.partitions  # healed
    dc.viprip.converge()
    assert dc.viprip.drift_report().clean
    assert dc.reconciler.run_pass().clean
    assert dc.invariants_ok()
    tally = monitor.mttr("manager")
    assert tally is not None and tally.count == 1
    # the facade sums the shards' retry counters into the platform's
    assert dc.reconfig_retries == dc.rehome_retries + sum(
        s.manager.retries for s in dc.viprip.shards
    )


def test_mark_failed_reaches_the_owning_shard():
    env, switches, plane = build_plane(n_shards=2)
    owner = plane.shard_of_switch("lb-0")
    plane.mark_failed("lb-0")
    # only the shard whose fleet contains lb-0 tracks the failure
    assert "lb-0" in owner.manager.failed
    assert all(
        "lb-0" not in s.manager.failed for s in plane.shards if s is not owner
    )
    plane.mark_recovered("lb-0")
    assert all("lb-0" not in s.manager.failed for s in plane.shards)
