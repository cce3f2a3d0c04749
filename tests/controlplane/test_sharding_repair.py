"""The sharded plane's repair branches, one corruption at a time.

Each test seeds a 2-shard plane with one app per shard (a VIP with two
RIPs each), corrupts the switch tables or a shard's bookkeeping by hand,
checks what ``drift_report()`` counts, and then runs the repair (a
handoff and/or one ``gossip_round()``) and checks the exact tables,
registries and RIP indices it leaves behind.
"""

from repro.controlplane.sharding import ShardedControlPlane
from repro.core.viprip import VipRipRequest
from repro.lbswitch.addresses import PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits, VipEntry
from repro.sim import Environment

#: Default owners: A0 -> shard 0 (lb-0, lb-2), A1 -> shard 1 (lb-1, lb-3).
A0, A1 = "app-1", "app-0"
V0, V1 = "203.0.0.0", "203.0.0.1"
R0 = (f"{A0}/r0", f"{A0}/r1")
R1 = (f"{A1}/r0", f"{A1}/r1")

SETTLED_TABLES = {
    "lb-0": {V0: (A0, {R0[0]: 1.0, R0[1]: 1.0})},
    "lb-1": {V1: (A1, {R1[0]: 1.0, R1[1]: 1.0})},
    "lb-2": {},
    "lb-3": {},
}
SHARD0 = ({A0: {V0: "lb-0"}}, {R0[0]: (V0, "lb-0"), R0[1]: (V0, "lb-0")})
SHARD1 = ({A1: {V1: "lb-1"}}, {R1[0]: (V1, "lb-1"), R1[1]: (V1, "lb-1")})


def seeded():
    """A settled plane; returns ``(switches by name, plane, moves)`` where
    *moves* records every ``on_vip_moved`` callback."""
    env = Environment()
    switches = {
        f"lb-{i}": LBSwitch(f"lb-{i}", env, SwitchLimits(max_vips=10, max_rips=40))
        for i in range(4)
    }
    moves = []
    plane = ShardedControlPlane(
        env, list(switches.values()), PUBLIC_VIP_POOL(1000), 2,
        reconfig_s=1.0, on_vip_moved=lambda vip, sw: moves.append((vip, sw)),
    )
    for app in (A0, A1):
        plane.submit(VipRipRequest("new_vip", app))
        env.run()
        for k in range(2):
            plane.submit(VipRipRequest("new_rip", app, rip=f"{app}/r{k}"))
        env.run()
    assert tables(switches) == SETTLED_TABLES
    assert books(plane) == [SHARD0, SHARD1]
    assert plane.drift_report().clean
    return switches, plane, moves


def tables(switches):
    return {
        name: {
            vip: (sw.entry(vip).app, dict(sw.entry(vip).rips)) for vip in sw.vips()
        }
        for name, sw in sorted(switches.items())
    }


def books(plane):
    return [(s.manager.registry, s.manager.rip_index) for s in plane.shards]


def drift(plane):
    """The non-zero drift dimensions."""
    return {k: n for k, n in plane.drift_report().as_dict().items() if n}


def last_record(shard):
    rec = list(shard.journal)[-1]
    return rec.kind, rec.app, rec.payload


def assert_clean(plane):
    assert plane.drift_report().clean
    assert plane.vips_in_conflict() == set()


def move(switches, vip, src, dst):
    switches[dst].install_entry(switches[src].remove_vip(vip))


# -- _migrate_app ------------------------------------------------------------
def test_migrate_finds_a_holder_the_registry_does_not_name():
    switches, plane, moves = seeded()
    move(switches, V0, "lb-0", "lb-2")
    assert drift(plane) == {"vip_misplaced": 1, "index_stale": 2}
    plane._handoff(A0, 1, reason="test")
    assert last_record(plane.shards[0]) == (
        "del_vip", A0, {"vip": V0, "switch": "lb-2", "rips": list(R0)}
    )
    assert plane.gossip_round() == 0
    assert tables(switches) == {
        **SETTLED_TABLES,
        "lb-0": {},
        "lb-1": {**SETTLED_TABLES["lb-1"], **SETTLED_TABLES["lb-0"]},
    }
    assert books(plane) == [
        ({}, {}),
        (
            {A1: {V1: "lb-1"}, A0: {V0: "lb-1"}},
            {**SHARD1[1], R0[0]: (V0, "lb-1"), R0[1]: (V0, "lb-1")},
        ),
    ]
    assert moves == [(V0, "lb-1")]
    assert_clean(plane)


def test_migrate_drops_a_registry_row_with_no_entry_behind_it():
    switches, plane, moves = seeded()
    switches["lb-0"].remove_vip(V0)
    assert drift(plane) == {"vip_missing": 1, "rip_missing": 2}
    plane._handoff(A0, 1, reason="test")
    assert last_record(plane.shards[0]) == (
        "del_vip", A0, {"vip": V0, "switch": "lb-0", "rips": []}
    )
    # Nothing physical moved; the old owner's RIP index still names the
    # vanished VIP until local repair drops those rows.
    assert books(plane) == [({}, SHARD0[1]), SHARD1]
    assert drift(plane) == {"rip_missing": 2}
    assert plane.gossip_round() == 2
    assert tables(switches) == {**SETTLED_TABLES, "lb-0": {}}
    assert books(plane) == [({}, {}), SHARD1]
    assert moves == []
    assert_clean(plane)


def test_migrate_leaves_an_entry_the_destination_has_no_room_for():
    switches, plane, moves = seeded()
    plane.mark_failed("lb-1")
    plane.mark_failed("lb-3")
    plane._handoff(A0, 1, reason="test")
    # Shard 1 took the claim but not the entry: shard 0 still holds it.
    assert tables(switches) == SETTLED_TABLES
    assert books(plane) == [SHARD0, SHARD1]
    assert drift(plane) == {"index_stale": 1}
    # Rollback finds the owner still full and reinstalls the entry on the
    # loser, re-booking its registry row; the stale-row sweep skips it,
    # since lb-0 holds the VIP again.  The journal gains the one
    # ``del_vip`` of the removal.
    journaled = len(plane.shards[0].journal)
    assert plane.gossip_round() == 0
    assert tables(switches) == SETTLED_TABLES
    assert books(plane) == [SHARD0, SHARD1]
    assert [r.kind for r in plane.shards[0].journal][journaled:] == ["del_vip"]
    assert plane.rollbacks == 0
    # Once the owner has room the next round migrates the entry.
    plane.mark_recovered("lb-1")
    plane.mark_recovered("lb-3")
    assert plane.gossip_round() == 1
    assert tables(switches) == {
        **SETTLED_TABLES,
        "lb-0": {},
        "lb-1": {**SETTLED_TABLES["lb-1"], **SETTLED_TABLES["lb-0"]},
    }
    assert books(plane) == [
        ({}, {}),
        (
            {A1: {V1: "lb-1"}, A0: {V0: "lb-1"}},
            {**SHARD1[1], R0[0]: (V0, "lb-1"), R0[1]: (V0, "lb-1")},
        ),
    ]
    assert (plane.rollbacks, plane.conflicts) == (1, 1)
    assert moves == [(V0, "lb-1")]
    assert_clean(plane)


def test_migrate_moves_entries_only_the_tables_know():
    switches, plane, moves = seeded()
    del plane.shards[0].manager.registry[A0]
    for rip in R0:
        del plane.shards[0].manager.rip_index[rip]
    assert drift(plane) == {"rip_orphaned": 2, "index_stale": 1}
    plane._handoff(A0, 1, reason="test")
    assert plane.gossip_round() == 0
    assert tables(switches) == {
        **SETTLED_TABLES,
        "lb-0": {},
        "lb-1": {**SETTLED_TABLES["lb-1"], **SETTLED_TABLES["lb-0"]},
    }
    assert books(plane) == [
        ({}, {}),
        (
            {A1: {V1: "lb-1"}, A0: {V0: "lb-1"}},
            {**SHARD1[1], R0[0]: (V0, "lb-1"), R0[1]: (V0, "lb-1")},
        ),
    ]
    assert moves == [(V0, "lb-1")]
    assert_clean(plane)


# -- _rollback_app -------------------------------------------------------------
def test_migrate_lands_beside_a_copy_the_new_owner_already_holds():
    switches, plane, moves = seeded()
    switches["lb-1"].install_entry(VipEntry(V0, A0, {R0[0]: 1.0}))
    assert drift(plane) == {"vip_duplicate": 1}
    plane._handoff(A0, 1, reason="test")
    full = SETTLED_TABLES["lb-0"]
    assert tables(switches) == {
        **SETTLED_TABLES,
        "lb-0": {},
        "lb-1": {**SETTLED_TABLES["lb-1"], V0: (A0, {R0[0]: 1.0})},
        "lb-3": full,
    }
    assert books(plane) == [
        ({}, {}),
        (
            {A1: {V1: "lb-1"}, A0: {V0: "lb-3"}},
            {**SHARD1[1], R0[0]: (V0, "lb-3"), R0[1]: (V0, "lb-3")},
        ),
    ]
    # The new owner's repair keeps the recorded full copy.
    assert plane.converge() == 1
    assert tables(switches) == {**SETTLED_TABLES, "lb-0": {}, "lb-3": full}
    assert moves == [(V0, "lb-3")]
    assert_clean(plane)


def test_migrate_carries_a_missing_rips_row_to_the_new_owner():
    switches, plane, moves = seeded()
    plane.submit(VipRipRequest("del_rip", A0, rip=R0[1]))
    plane.env.run()
    plane.submit(VipRipRequest("new_rip", A0, rip=R0[1], weight=3.0))
    plane.env.run()
    switches["lb-0"].remove_rip(V0, R0[1])
    assert drift(plane) == {"rip_missing": 1}
    plane._handoff(A0, 1, reason="test")
    assert last_record(plane.shards[0]) == (
        "del_vip", A0, {"vip": V0, "switch": "lb-0", "rips": list(R0)}
    )
    assert books(plane) == [
        ({}, {}),
        (
            {A1: {V1: "lb-1"}, A0: {V0: "lb-1"}},
            {**SHARD1[1], R0[0]: (V0, "lb-1"), R0[1]: (V0, "lb-1")},
        ),
    ]
    assert drift(plane) == {"rip_missing": 1}
    # The new owner re-adds it at the weight the old owner recorded.
    assert plane.converge() == 1
    assert tables(switches) == {
        **SETTLED_TABLES,
        "lb-0": {},
        "lb-1": {
            **SETTLED_TABLES["lb-1"], V0: (A0, {R0[0]: 1.0, R0[1]: 3.0})
        },
    }
    assert_clean(plane)


def test_rollback_merges_rips_only_the_losing_copy_knew():
    switches, plane, moves = seeded()
    plane.partition(0, 1)
    plane._handoff(A0, 1, reason="test")  # adopts a copy across the cut
    switches["lb-0"].add_rip(V0, "extra", 2.0)
    plane.shards[0].manager.rip_index["extra"] = (V0, "lb-0")
    assert drift(plane) == {"vip_duplicate": 1, "index_stale": 1}
    plane.heal(0, 1)
    assert plane.gossip_round() == 2  # one claim merged, one rollback
    merged = {R0[0]: 1.0, R0[1]: 1.0, "extra": 2.0}
    assert tables(switches) == {
        **SETTLED_TABLES,
        "lb-0": {},
        "lb-1": {**SETTLED_TABLES["lb-1"], V0: (A0, merged)},
    }
    assert books(plane) == [
        ({}, {}),
        (
            {A1: {V1: "lb-1"}, A0: {V0: "lb-1"}},
            {**SHARD1[1], **{rip: (V0, "lb-1") for rip in merged}},
        ),
    ]
    assert (plane.rollbacks, plane.conflicts) == (1, 2)
    assert moves == [(V0, "lb-1"), (V0, "lb-1")]
    assert_clean(plane)


def test_rollback_drops_stale_registry_rows():
    switches, plane, moves = seeded()
    plane.shards[0].manager.registry[A1] = {V1: "lb-0"}
    assert drift(plane) == {"index_stale": 1}
    assert plane.gossip_round() == 1
    assert last_record(plane.shards[0]) == (
        "del_vip", A1, {"vip": V1, "switch": "lb-0", "rips": []}
    )
    assert tables(switches) == SETTLED_TABLES
    assert books(plane) == [SHARD0, SHARD1]
    assert (plane.rollbacks, moves) == (0, [])
    assert_clean(plane)


# -- _local_repair -------------------------------------------------------------
def test_local_repair_removes_a_duplicate_holder():
    switches, plane, moves = seeded()
    switches["lb-2"].install_entry(VipEntry(V0, A0, dict.fromkeys(R0, 1.0)))
    assert drift(plane) == {"vip_duplicate": 1}
    assert plane.gossip_round() == 1
    assert tables(switches) == SETTLED_TABLES
    assert books(plane) == [SHARD0, SHARD1]
    assert moves == []
    assert_clean(plane)


def test_local_repair_follows_a_misplaced_holder():
    switches, plane, moves = seeded()
    move(switches, V0, "lb-0", "lb-2")
    assert drift(plane) == {"vip_misplaced": 1, "index_stale": 2}
    assert plane.gossip_round() == 3  # the registry row, then two index rows
    assert tables(switches) == {
        **SETTLED_TABLES, "lb-0": {}, "lb-2": SETTLED_TABLES["lb-0"]
    }
    assert books(plane) == [
        ({A0: {V0: "lb-2"}}, {R0[0]: (V0, "lb-2"), R0[1]: (V0, "lb-2")}),
        SHARD1,
    ]
    assert moves == [(V0, "lb-2")]
    assert_clean(plane)


def test_local_repair_recreates_a_stranded_vip():
    switches, plane, moves = seeded()
    switches["lb-0"].remove_vip(V0)
    plane.mark_failed("lb-0")  # so the recreate must pick lb-2
    assert drift(plane) == {"vip_missing": 1, "rip_missing": 2}
    assert plane.gossip_round() == 1
    assert tables(switches) == {
        **SETTLED_TABLES, "lb-0": {}, "lb-2": SETTLED_TABLES["lb-0"]
    }
    assert books(plane) == [
        ({A0: {V0: "lb-2"}}, {R0[0]: (V0, "lb-2"), R0[1]: (V0, "lb-2")}),
        SHARD1,
    ]
    assert moves == [(V0, "lb-2")]
    assert_clean(plane)


def test_local_repair_recreates_a_stranded_vip_with_its_rip_weights():
    switches, plane, moves = seeded()
    # Re-wire r1 at weight 3.0: the shard journal now holds an applied
    # new_rip record for r1 at 1.0, its del_rip, then one at 3.0.
    plane.submit(VipRipRequest("del_rip", A0, rip=R0[1]))
    plane.env.run()
    plane.submit(VipRipRequest("new_rip", A0, rip=R0[1], weight=3.0))
    plane.env.run()
    weighted = (A0, {R0[0]: 1.0, R0[1]: 3.0})
    assert tables(switches)["lb-0"] == {V0: weighted}
    switches["lb-0"].remove_vip(V0)
    plane.mark_failed("lb-0")
    assert plane.gossip_round() == 1
    assert tables(switches)["lb-2"] == {V0: weighted}
    assert moves == [(V0, "lb-2")]
    assert_clean(plane)


def test_local_repair_leaves_a_foreign_holder_to_rollback():
    switches, plane, moves = seeded()
    plane.partition(0, 1)
    move(switches, V0, "lb-0", "lb-1")
    assert drift(plane) == {"vip_misplaced": 1, "index_stale": 2}
    # Shard 1 cannot reach the owner and shard 0 holds no copy: no repair.
    assert plane.gossip_round() == 0
    assert drift(plane) == {"vip_misplaced": 1, "index_stale": 2}
    plane.heal(0, 1)
    assert plane.gossip_round() == 1  # shard 1 hands the entry back
    assert last_record(plane.shards[1]) == (
        "del_vip", A0, {"vip": V0, "switch": "lb-1", "rips": list(R0)}
    )
    assert tables(switches) == SETTLED_TABLES
    assert books(plane) == [SHARD0, SHARD1]
    assert (plane.rollbacks, moves) == (1, [(V0, "lb-0")])
    assert_clean(plane)


def test_local_repair_rebooks_an_entry_whose_registry_row_is_lost():
    switches, plane, moves = seeded()
    del plane.shards[0].manager.registry[A0]
    assert drift(plane) == {"index_stale": 1}
    assert plane.gossip_round() == 1
    assert tables(switches) == SETTLED_TABLES
    assert books(plane) == [SHARD0, SHARD1]
    assert moves == []
    assert_clean(plane)


def test_local_repair_relocates_an_index_row():
    switches, plane, moves = seeded()
    plane.shards[0].manager.rip_index[R0[0]] = (V0, "lb-2")
    assert drift(plane) == {"index_stale": 1}
    assert plane.gossip_round() == 1
    assert tables(switches) == SETTLED_TABLES
    assert books(plane) == [SHARD0, SHARD1]
    assert_clean(plane)


def test_local_repair_re_adds_a_rip_missing_from_its_table():
    switches, plane, moves = seeded()
    switches["lb-0"].remove_rip(V0, R0[1])
    assert drift(plane) == {"rip_missing": 1}
    assert plane.gossip_round() == 1
    assert tables(switches) == SETTLED_TABLES
    assert books(plane) == [SHARD0, SHARD1]
    assert_clean(plane)


def test_local_repair_re_adds_a_missing_rip_at_its_journaled_weight():
    switches, plane, moves = seeded()
    plane.submit(VipRipRequest("del_rip", A0, rip=R0[1]))
    plane.env.run()
    plane.submit(VipRipRequest("new_rip", A0, rip=R0[1], weight=3.0))
    plane.env.run()
    weighted = {"lb-0": {V0: (A0, {R0[0]: 1.0, R0[1]: 3.0})}}
    assert tables(switches) == {**SETTLED_TABLES, **weighted}
    switches["lb-0"].remove_rip(V0, R0[1])
    assert drift(plane) == {"rip_missing": 1}
    assert plane.gossip_round() == 1
    assert tables(switches) == {**SETTLED_TABLES, **weighted}
    assert books(plane) == [SHARD0, SHARD1]
    assert_clean(plane)


def test_local_repair_drops_an_index_row_for_a_vanished_vip():
    switches, plane, moves = seeded()
    plane.shards[0].manager.rip_index["ghost"] = ("203.0.9.9", "lb-0")
    assert drift(plane) == {"rip_missing": 1}
    assert plane.gossip_round() == 1
    assert tables(switches) == SETTLED_TABLES
    assert books(plane) == [SHARD0, SHARD1]
    assert_clean(plane)


def test_local_repair_restores_a_weight_only_the_checkpoint_still_records():
    switches, plane, moves = seeded()
    plane.submit(VipRipRequest("del_rip", A0, rip=R0[1]))
    plane.env.run()
    plane.submit(VipRipRequest("new_rip", A0, rip=R0[1], weight=3.0))
    plane.env.run()
    # The checkpoint truncates every settled record, the one at 3.0 too.
    plane.shards[0].manager.take_checkpoint()
    assert len(plane.shards[0].journal) == 0
    weighted = (A0, {R0[0]: 1.0, R0[1]: 3.0})
    assert drift(plane) == {}
    switches["lb-0"].set_rip_weight(V0, R0[1], 1.0)
    assert drift(plane) == {"weight_stale": 1}
    switches["lb-0"].set_rip_weight(V0, R0[1], 3.0)
    switches["lb-0"].remove_vip(V0)
    plane.mark_failed("lb-0")
    assert plane.gossip_round() == 1
    assert tables(switches) == {**SETTLED_TABLES, "lb-0": {}, "lb-2": {V0: weighted}}
    assert books(plane) == [
        ({A0: {V0: "lb-2"}}, {R0[0]: (V0, "lb-2"), R0[1]: (V0, "lb-2")}),
        SHARD1,
    ]
    assert moves == [(V0, "lb-2")]
    assert_clean(plane)
    # A RIP that then drops out of its table comes back at 3.0 as well.
    switches["lb-2"].remove_rip(V0, R0[1])
    assert drift(plane) == {"rip_missing": 1}
    assert plane.gossip_round() == 1
    assert tables(switches)["lb-2"] == {V0: weighted}
    assert_clean(plane)


def test_local_repair_restores_a_weight_moved_off_its_record():
    switches, plane, moves = seeded()
    plane.submit(VipRipRequest("del_rip", A0, rip=R0[1]))
    plane.env.run()
    plane.submit(VipRipRequest("new_rip", A0, rip=R0[1], weight=3.0))
    plane.env.run()
    switches["lb-0"].set_rip_weight(V0, R0[1], 0.5)
    assert drift(plane) == {"weight_stale": 1}
    assert plane.converge() == 1
    assert tables(switches)["lb-0"] == {V0: (A0, {R0[0]: 1.0, R0[1]: 3.0})}
    assert books(plane) == [SHARD0, SHARD1]
    assert moves == []
    assert_clean(plane)


def test_a_weight_recorded_after_a_handoff_is_read_from_the_new_owner():
    """The old owner's journal keeps the app's ``new_rip`` records after a
    handoff; a RIP's weight is what the shard indexing it records."""
    switches, plane, moves = seeded()
    plane._handoff(A0, 1, "test")
    plane.submit(VipRipRequest("del_rip", A0, rip=R0[1]))
    plane.env.run()
    plane.submit(VipRipRequest("new_rip", A0, rip=R0[1], weight=3.0))
    plane.env.run()
    weighted = (A0, {R0[0]: 1.0, R0[1]: 3.0})
    assert tables(switches)["lb-1"][V0] == weighted
    assert drift(plane) == {}
    assert plane.converge() == 0
    switches["lb-1"].set_rip_weight(V0, R0[1], 0.5)
    assert drift(plane) == {"weight_stale": 1}
    assert plane.converge() == 1
    assert tables(switches)["lb-1"][V0] == weighted
    assert_clean(plane)
