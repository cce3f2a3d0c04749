"""Bulk wiring oracle: ``ShardedControlPlane.wire`` against the queue.

The mega driver wires its apps with one synchronous pass over the shards
(:meth:`~repro.controlplane.sharding.ShardedControlPlane.wire`).  The
reference kept here is the construction it replaced: every ``new_vip``
request submitted and the event loop run, then every ``new_rip`` request
the same way, on a second plane with the same switches and address
pool.  Both must leave the same state: each shard's journal records,
registry, RIP index, applied epoch and counters, every switch table in
insertion order with its RIP weights, the VIP pool's cursor, and the
columnar mirror one bridge sync builds from the journals (RIP ids in the
same order, same fingerprint).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane import RipJournalBridge
from repro.controlplane.sharding import ShardedControlPlane
from repro.core.mega import (
    CP_RECONFIG_S,
    CP_SHARDS,
    CP_SWITCHES_PER_SHARD,
    MegaConfig,
    MegaControlPlaneConfig,
    MegaScaleDriver,
)
from repro.core.viprip import VipRipRequest
from repro.lbswitch.addresses import AddressPool
from repro.lbswitch.switch import LBSwitch, SwitchLimits
from repro.sim import Environment

pod_of = MegaScaleDriver._pod_of_rip


def build_plane(max_vips, max_rips, pool_size):
    """A plane shaped like the mega driver's: 2 shards of 2 switches."""
    env = Environment()
    limits = SwitchLimits(max_vips=max_vips, max_rips=max_rips)
    switches = [
        LBSwitch(f"lb-{i:02d}", env, limits)
        for i in range(CP_SHARDS * CP_SWITCHES_PER_SHARD)
    ]
    return ShardedControlPlane(
        env,
        switches,
        AddressPool("203.0.0.0", pool_size, label="vip"),
        CP_SHARDS,
        reconfig_s=CP_RECONFIG_S,
    )


def wiring_requests(n_apps, vips_per_app, n_pods, cover):
    """The driver's two batches: VIPs app by app, then RIPs app by app,
    pod by pod (``{app}@{pod}`` over the covering pods)."""
    apps = [MegaScaleDriver._app_name(g) for g in range(n_apps)]
    vips = [VipRipRequest("new_vip", app) for app in apps for _ in range(vips_per_app)]
    rips = [
        VipRipRequest("new_rip", app, rip=f"{app}@pod-{(g + j) % n_pods:03d}")
        for g, app in enumerate(apps)
        for j in range(cover)
    ]
    return vips, rips


def serial_wiring(plane, *batches):
    """The replaced construction: submit each batch, run the queue."""
    for batch in batches:
        for req in batch:
            plane.submit(req)
        plane.env.run()


def state(plane):
    shards = [
        {
            "journal": [
                (r.epoch, r.kind, r.app, r.payload, r.phase) for r in s.journal
            ],
            "registry": s.manager.registry,
            "rip_index": s.manager.rip_index,
            "applied_epoch": s.manager.applied_epoch,
            "counts": (
                s.manager.processed, s.manager.rejected, s.manager.errored
            ),
        }
        for s in plane.shards
    ]
    tables = {
        name: [
            (vip, e.app, list(e.rips.items()), e.traffic_gbps)
            for vip, e in sw._vips.items()
        ]
        for name, sw in plane.all_switches.items()
    }
    pool = plane.vip_pool
    return shards, tables, (pool._next, sorted(pool._allocated))


def mirror(plane):
    bridge = RipJournalBridge(plane, pod_of=pod_of)
    bridge.sync()
    return bridge.registry


def assert_same(bulk, serial, bulk_registry=None):
    assert state(bulk) == state(serial)
    want = mirror(serial)
    got = bulk_registry if bulk_registry is not None else mirror(bulk)
    assert got.rips.names == want.rips.names
    assert got.fingerprint() == want.fingerprint()


@pytest.mark.parametrize(
    "cfg, cp",
    [
        (MegaConfig.tiny(), MegaControlPlaneConfig(wired_apps=8)),
        (
            MegaConfig.quick(),
            MegaControlPlaneConfig(wired_apps=128, vips_per_app=2),
        ),
        (
            MegaConfig.quick(),
            MegaControlPlaneConfig(wired_apps=1024, vips_per_app=2, max_vips=1024),
        ),
        (
            MegaConfig.tiny(),
            MegaControlPlaneConfig(wired_apps=40, vips_per_app=3),
        ),
    ],
    ids=["tiny-8x1", "quick-128x2", "quick-1024x2", "tiny-40x3"],
)
def test_driver_wiring_matches_the_request_queue(cfg, cp):
    with MegaScaleDriver(cfg, control_plane=cp) as driver:
        bulk = driver.control_plane
        assert bulk.env.now == 0.0 and bulk.routed == 0
        serial = build_plane(cp.max_vips, cp.max_rips, bulk.vip_pool._size)
        serial_wiring(
            serial,
            *wiring_requests(
                len(driver._wired_gids), cp.vips_per_app, cfg.n_pods, cfg.cover
            ),
        )
        assert serial.rejected == serial.errored == 0
        assert_same(bulk, serial, driver.bridge.registry)


@settings(max_examples=40, deadline=None)
@given(
    n_apps=st.integers(1, 64),
    vips_per_app=st.integers(1, 3),
    max_vips=st.integers(1, 40),
    max_rips=st.integers(1, 120),
    cover=st.integers(1, 4),
)
def test_bulk_wiring_matches_the_queue_with_rejections(
    n_apps, vips_per_app, max_vips, max_rips, cover
):
    """Switches small enough that VIPs and RIPs get rejected."""
    planes = []
    for wire in (True, False):
        plane = build_plane(max_vips, max_rips, 1000)
        vips, rips = wiring_requests(n_apps, vips_per_app, 4, cover)
        if wire:
            assert plane.wire(vips) == [] and plane.wire(rips) == []
        else:
            serial_wiring(plane, vips, rips)
        planes.append(plane)
    assert_same(*planes)


def test_bulk_wiring_counts_pool_errors_like_the_queue():
    """A 5-address pool: the sixth VIP and every later one error, the
    RIPs of the apps left without a VIP are rejected, and wiring goes
    on past both."""
    planes = []
    for wire in (True, False):
        plane = build_plane(256, 16_384, 5)
        vips, rips = wiring_requests(8, 1, 4, 3)
        if wire:
            errors = plane.wire(vips)
            assert [str(e) for e in errors] == ["address pool 'vip' exhausted"] * 3
            assert plane.wire(rips) == []
        else:
            serial_wiring(plane, vips, rips)
        planes.append(plane)
    assert planes[0].errored == 3 and planes[0].rejected == 9
    assert_same(*planes)


def test_wire_takes_only_wiring_requests_for_live_owners():
    plane = build_plane(4, 4, 8)
    with pytest.raises(ValueError, match="del_rip"):
        plane.wire([VipRipRequest("del_rip", "app-000000", rip="app-000000@pod-000")])
    app = "app-000000"
    plane.crash(plane.owner_shard(app).id)
    with pytest.raises(RuntimeError, match="is down"):
        plane.wire([VipRipRequest("new_vip", app)])
