"""The journal->columnar RIP bridge: sync, pending, truncation, repair.

The bridge is the tentpole's seam: the sharded control plane stays the
authority, and :class:`RipJournalBridge` keeps the columnar mirror fresh
from the shard journals.  These tests pin the four protocol legs —
incremental tail consumption, in-flight records parked until settled,
the truncation-gap full rebuild, and fingerprint verify/repair after
un-journaled anti-entropy mutations — plus the registry's cached
fingerprint and the one mirror a rebuild or repair reloads in place.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane import RipJournalBridge
from repro.controlplane.sharding import ShardedControlPlane
from repro.core.columnar import ColumnarRipRegistry
from repro.core.mega import (
    MegaConfig,
    MegaControlPlaneConfig,
    MegaScaleDriver,
    MegaSteeringConfig,
)
from repro.core.viprip import VipRipRequest
from repro.lbswitch.addresses import PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits
from repro.obs.trace import TraceBus
from repro.sim import Environment

APPS = [f"app-{i}" for i in range(6)]


def pod_of(rip):
    _, sep, pod = rip.partition("@")
    return pod if sep else None


def build_plane(n_shards=2, switches_per_shard=2):
    env = Environment()
    switches = [
        LBSwitch(f"lb-{i}", env, SwitchLimits(max_vips=16, max_rips=64))
        for i in range(n_shards * switches_per_shard)
    ]
    plane = ShardedControlPlane(
        env, switches, PUBLIC_VIP_POOL(1000), n_shards, reconfig_s=1.0
    )
    return env, plane


def seed(env, plane, apps=APPS):
    for app in apps:
        plane.submit(VipRipRequest("new_vip", app))
    env.run()
    for app in apps:
        for k in range(2):
            plane.submit(VipRipRequest("new_rip", app, rip=f"{app}@pod-{k}"))
    env.run()


def mirror_matches_authority(bridge):
    authority = bridge.plane.rip_homing()
    if bridge.registry.n_active != len(authority):
        return False
    for rip, (app, vip, switch, weight) in authority.items():
        if bridge.registry.homing(rip) != (app, vip, switch, pod_of(rip), weight):
            return False
    return True


# -- incremental sync -------------------------------------------------------
def test_incremental_sync_matches_authority():
    env, plane = build_plane()
    seed(env, plane)
    bridge = RipJournalBridge(plane, pod_of=pod_of)
    stats = bridge.sync()
    assert stats["applied"] > 0 and not stats["rebuilt"]
    assert bridge.verify()
    assert mirror_matches_authority(bridge)
    # A quiet second sync consumes nothing and changes nothing.
    fingerprint = bridge.registry.fingerprint()
    again = bridge.sync()
    assert again["applied"] == 0 and bridge.registry.fingerprint() == fingerprint


def test_sync_tracks_mutations_incrementally():
    env, plane = build_plane()
    seed(env, plane)
    bridge = RipJournalBridge(plane, pod_of=pod_of)
    bridge.sync()
    plane.submit(VipRipRequest("del_rip", APPS[0], rip=f"{APPS[0]}@pod-0"))
    plane.submit(VipRipRequest("new_rip", APPS[1], rip=f"{APPS[1]}@pod-8", weight=2.5))
    plane.submit(VipRipRequest("new_rip", APPS[2], rip=f"{APPS[2]}@pod-9"))
    env.run()
    stats = bridge.sync()
    assert stats["applied"] >= 3 and not stats["rebuilt"]
    assert bridge.registry.homing(f"{APPS[0]}@pod-0") is None
    assert bridge.registry.homing(f"{APPS[1]}@pod-8")[4] == 2.5
    assert bridge.registry.homing(f"{APPS[2]}@pod-9")[3] == "pod-9"
    assert bridge.verify()
    assert bridge.rebuilds == 0


def test_cross_shard_move_migrates_the_app_and_the_mirror_follows():
    """A ``move_vip`` whose owner shard has no healthy target hands the
    app to another live shard.  Every entry moves: the old owner
    journals a ``del_vip`` record carrying the entry's RIPs, the new one
    ``new_vip``/``new_rip``, and the mirror follows from those records."""
    env, plane = build_plane()
    seed(env, plane)
    bridge = RipJournalBridge(plane, pod_of=pod_of)
    bridge.sync()
    app = APPS[0]
    owner = plane.owner_shard(app)
    (vip, src), = owner.manager.registry[app].items()
    for name in owner.switch_names:
        if name != src:
            plane.mark_failed(name)
    done = plane.submit(VipRipRequest("move_vip", app, vip=vip, switch=src))
    env.run()
    new_owner = plane.owner_shard(app)
    assert new_owner is not owner and plane.handoffs == 1
    assert done.value in new_owner.switch_names
    assert app not in owner.manager.registry
    dropped = [r for r in owner.journal if r.kind == "del_vip"]
    assert [r.payload["rips"] for r in dropped] == [[f"{app}@pod-0", f"{app}@pod-1"]]
    stats = bridge.sync()
    assert stats["applied"] > 0 and not stats["rebuilt"]
    assert mirror_matches_authority(bridge)
    assert bridge.registry.homing(f"{app}@pod-0")[2] == done.value
    assert bridge.verify()


# -- pending records --------------------------------------------------------
def test_inflight_records_park_until_settled():
    env, plane = build_plane()
    seed(env, plane)
    bridge = RipJournalBridge(plane, pod_of=pod_of)
    bridge.sync()
    plane.submit(VipRipRequest("del_rip", APPS[0], rip=f"{APPS[0]}@pod-0"))
    env.run(until=env.now + 0.5)  # reconfig_s=1.0: journaled, unsettled
    stats = bridge.sync()
    assert stats["pending"] >= 1
    # The unsettled delete must not have touched the mirror.
    assert bridge.registry.homing(f"{APPS[0]}@pod-0") is not None
    env.run()
    stats = bridge.sync()
    assert stats["pending"] == 0 and stats["applied"] >= 1
    assert bridge.registry.homing(f"{APPS[0]}@pod-0") is None
    assert bridge.verify()


# -- truncation gap ---------------------------------------------------------
def test_checkpoint_truncation_gap_forces_rebuild():
    env, plane = build_plane()
    seed(env, plane)
    for shard in plane.shards:
        shard.manager.take_checkpoint()
    # A bridge fenced before those checkpoints cannot trust the tail.
    bridge = RipJournalBridge(plane, pod_of=pod_of)
    stats = bridge.sync()
    assert stats["rebuilt"] and bridge.rebuilds == 1
    assert bridge.verify()
    assert mirror_matches_authority(bridge)
    # Post-rebuild cursors are re-fenced: new work flows incrementally.
    plane.submit(VipRipRequest("new_rip", APPS[3], rip=f"{APPS[3]}@pod-7"))
    env.run()
    stats = bridge.sync()
    assert stats["applied"] == 1 and not stats["rebuilt"]
    assert bridge.registry.homing(f"{APPS[3]}@pod-7") is not None


# -- verify / repair --------------------------------------------------------
def test_verify_repairs_unjournaled_mutation():
    env, plane = build_plane()
    seed(env, plane)
    bridge = RipJournalBridge(plane, pod_of=pod_of)
    bridge.sync()
    assert bridge.verify()
    # Simulate an anti-entropy repair: mutate a switch table directly,
    # bypassing the journal (exactly what _local_repair does).
    rip = f"{APPS[0]}@pod-0"
    _app, vip, switch_name, _weight = plane.rip_homing()[rip]
    owner = next(
        s for s in plane.shards if switch_name in s.manager.switches
    )
    owner.manager.switches[switch_name].remove_rip(vip, rip)
    assert not bridge.verify()
    assert not bridge.verify(repair=True)  # reports divergence, swaps in shadow
    assert bridge.verify()
    assert mirror_matches_authority(bridge)


# -- fingerprint cache ------------------------------------------------------
_MIRROR_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["wire", "unwire", "rehome_vip", "sync", "repair"]
        ),
        st.integers(0, 5),  # rip
        st.integers(0, 2),  # vip
        st.integers(0, 2),  # switch
        st.sampled_from([0.5, 1.0, 2.5]),
    ),
    max_size=30,
)


def fresh_fingerprint(reg):
    """The fingerprint of a new registry built from *reg*'s active rows."""
    active = np.flatnonzero(reg.rip_active[: reg.n_rips])
    homes = {rip: reg.homing(rip) for rip in map(reg.rips.name, active.tolist())}
    fresh = ColumnarRipRegistry.from_authority(
        {rip: (app, vip, sw, w) for rip, (app, vip, sw, _pod, w) in homes.items()},
        lambda rip: homes[rip][3],
    )
    return fresh.fingerprint()


@settings(max_examples=60, deadline=None)
@given(ops=_MIRROR_OPS)
def test_cached_fingerprint_matches_a_fresh_build(ops):
    """The registry caches its fingerprint per write count; after any mix
    of registry writes, syncs and in-place repairs it must still equal
    the fingerprint of a fresh build of the same active rows, and the
    bridge must still hold the registry it started with."""
    env, plane = build_plane()
    seed(env, plane)
    bridge = RipJournalBridge(plane, pod_of=pod_of)
    reg = bridge.registry
    bridge.sync()
    for op, r, v, w, weight in ops:
        rip, vip, switch = f"x-{r}@pod-{r}", f"vip-{v}", f"lb-{w}"
        if op == "wire":
            reg.wire(rip, f"app-{v}", vip, switch, pod_of(rip), weight)
        elif op == "unwire":
            reg.unwire(rip, switch if w else None)
        elif op == "rehome_vip":
            reg.rehome_vip(vip, None, switch)
        elif op == "repair":
            bridge.verify(repair=True)
        else:
            bridge.sync()
            assert reg.fingerprint() == fresh_fingerprint(reg)
    assert bridge.registry is reg
    assert reg.fingerprint() == fresh_fingerprint(reg)


def test_fingerprint_is_computed_once_per_write_count(monkeypatch):
    """Repeated reads between writes compute the CRC once, and a sync
    computes none unless the trace bus records it."""
    passes = []
    real = zlib.crc32

    def counted(data, *value):
        if not value:  # the header that opens a pass
            passes.append(data)
        return real(data, *value)

    monkeypatch.setattr(zlib, "crc32", counted)
    env, plane = build_plane()
    seed(env, plane)
    bridge = RipJournalBridge(plane, pod_of=pod_of)
    bridge.sync()
    assert passes == []
    first = bridge.registry.fingerprint()
    assert bridge.registry.fingerprint() == first
    assert len(passes) == 1
    plane.submit(VipRipRequest("del_rip", APPS[0], rip=f"{APPS[0]}@pod-0"))
    env.run()
    assert bridge.sync()["applied"] == 1
    assert len(passes) == 1
    assert bridge.registry.fingerprint() != first
    assert len(passes) == 2
    # A traced sync records the fingerprint; a quiet one reuses it.
    bridge.trace = TraceBus()
    bridge.sync()
    bridge.sync()
    syncs = [e for e in bridge.trace.events if e.kind == "ripmap.sync"]
    assert [e.data["fingerprint"] for e in syncs] == [
        bridge.registry.fingerprint()
    ] * 2
    assert len(passes) == 2


# -- one mirror for the driver's life ---------------------------------------
def _unjournaled_edit(driver):
    """Remove one RIP off pod-001 straight from its switch table,
    bypassing the journal (an anti-entropy repair)."""
    plane = driver.control_plane
    rip = next(r for r in sorted(plane.rip_homing()) if not r.endswith("@pod-001"))
    _app, vip, switch_name, _weight = plane.rip_homing()[rip]
    owner = next(s for s in plane.shards if switch_name in s.manager.switches)
    owner.manager.switches[switch_name].remove_rip(vip, rip)
    assert not driver.bridge.verify(repair=True)


@pytest.mark.parametrize(
    "reload",
    [lambda d: d.bridge.rebuild(), _unjournaled_edit],
    ids=["rebuild", "repair"],
)
def test_reloaded_mirror_keeps_the_data_plane_steering_on_it(reload):
    """A rebuild or repair reloads the bridge's mirror in place, so the
    data plane keeps steering on the registry the journals feed: a pod
    lost afterwards takes its RIPs out of service."""
    driver = MegaScaleDriver(
        MegaConfig.tiny(seed=0),
        control_plane=MegaControlPlaneConfig(wired_apps=8, vips_per_app=2),
        steering=MegaSteeringConfig(requests_per_epoch=2000),
    )
    with driver:
        driver.run_epoch()
        reload(driver)
        driver.lose_pod("pod-001", t=60.0)
        report = driver.run_epoch()
        dp = driver.dataplane
        pid = dp.registry.pods.get("pod-001")
        on_lost_pod = sum(
            n for (_vid, rid), n in dp.conn.live_pairs().items()
            if dp.registry.rip_pod[rid] == pid
        )
        assert on_lost_pod == 0
        assert dp.registry is driver.bridge.registry
        assert report.rip_fingerprint == dp.registry.fingerprint()
