"""Every path that lands (or refuses to land) a VIP entry on a switch.

The VIP/RIP manager's move handler and crash-recovery completions, the
sharded plane's adoption and local repair, the reconciler's duplicate
resolution and the facade's instant-mode re-home each put a VIP entry on
a switch, or give up.  Each test drives one such branch on a small fleet
and checks what it leaves behind: switch tables, registries, the RIP
index, the journal's phases and payloads, the counters, and the order of
the ``on_vip_moved`` callbacks.
"""

from repro.controlplane import CheckpointStore, WriteAheadJournal
from repro.controlplane.journal import OpPhase
from repro.controlplane.sharding import ShardedControlPlane
from repro.core import MegaDataCenter, PlatformConfig
from repro.core.viprip import VipRipManager, VipRipRequest
from repro.lbswitch.addresses import PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits, VipEntry
from repro.sim import Environment, RngHub
from repro.workload import WorkloadBuilder

APP = "app"
VIP = "203.0.0.0"
R0, R1 = "app/r0", "app/r1"
RIPS = {R0: 1.0, R1: 2.0}
SCAN_S = 3 * 5e-5  # one flat selection over three switches


def build(cutover_s=0.0, reconfig_s=1.0):
    """A crash-safe manager over lb-0..lb-2 with APP's VIP on lb-0 and
    RIPS under it; returns ``(env, switches by name, manager, moves)``,
    where *moves* records every ``on_vip_moved`` callback."""
    env = Environment()
    switches = {
        f"lb-{i}": LBSwitch(f"lb-{i}", env, SwitchLimits(max_vips=10, max_rips=40))
        for i in range(3)
    }
    moves = []
    mgr = VipRipManager(
        env,
        list(switches.values()),
        PUBLIC_VIP_POOL(1000),
        reconfig_s=reconfig_s,
        journal=WriteAheadJournal(),
        checkpoints=CheckpointStore(),
        cutover_s=cutover_s,
        on_vip_moved=lambda vip, sw: moves.append((vip, sw)),
    )
    mgr.submit(VipRipRequest("new_vip", APP))
    env.run()
    for rip, weight in RIPS.items():
        mgr.submit(VipRipRequest("new_rip", APP, rip=rip, weight=weight))
    env.run()
    assert tables(switches) == {"lb-0": {VIP: (APP, RIPS)}, "lb-1": {}, "lb-2": {}}
    assert mgr.registry == {APP: {VIP: "lb-0"}}
    assert mgr.rip_index == {R0: (VIP, "lb-0"), R1: (VIP, "lb-0")}
    return env, switches, mgr, moves


def tables(switches):
    return {
        name: {
            vip: (sw.entry(vip).app, dict(sw.entry(vip).rips)) for vip in sw.vips()
        }
        for name, sw in sorted(switches.items())
    }


def journal(mgr, start=3):
    """``(kind, phase, payload)`` of every record past the wiring's three."""
    return [(r.kind, r.phase.value, r.payload) for r in list(mgr.journal)[start:]]


def index_at(switch):
    return {R0: (VIP, switch), R1: (VIP, switch)}


def recover(env, mgr, failed=None):
    out = []

    def driver():
        out.append((yield from mgr.recover(failed=failed)))

    env.process(driver())
    env.run()
    return out[0]


def crash_mid_move(env, mgr, cutover=False):
    """Submit APP's move and crash the manager inside its reconfiguration
    (record INTENT) or, with *cutover*, inside the cutover (PREPARED)."""
    mgr.submit(VipRipRequest("move_vip", APP, vip=VIP))
    wait = SCAN_S + mgr.reconfig_s * (1.0 if cutover else 0.5)
    env.run(until=env.now + wait + (0.5 * mgr.cutover_s if cutover else 0.0))
    (rec,) = mgr.journal.unsettled
    assert rec.phase is (OpPhase.PREPARED if cutover else OpPhase.INTENT)
    mgr.crash()
    return rec


MOVE_PREPARED = {
    "vip": VIP, "src": "lb-0", "dst": "lb-1", "entry_app": APP, "entry_rips": RIPS,
}


# -- _do_move_vip ------------------------------------------------------------
def test_move_of_a_vip_no_switch_holds_is_rejected_unjournaled():
    env, switches, mgr, moves = build()
    done = mgr.submit(VipRipRequest("move_vip", APP, vip="203.0.9.9"))
    env.run()
    assert done.value is None
    assert (mgr.rejected, mgr.processed) == (1, 4)
    assert journal(mgr) == []
    assert tables(switches)["lb-0"] == {VIP: (APP, RIPS)}
    assert moves == []


def test_move_puts_the_entry_back_when_the_target_dies_in_the_cutover():
    env, switches, mgr, moves = build(cutover_s=2.0)
    start = env.now
    done = mgr.submit(VipRipRequest("move_vip", APP, vip=VIP))
    env.run(until=start + SCAN_S + 1.0 + 1.0)  # inside the cutover to lb-1
    assert journal(mgr) == [("move_vip", "prepared", MOVE_PREPARED)]
    assert tables(switches) == {"lb-0": {}, "lb-1": {}, "lb-2": {}}
    mgr.mark_failed("lb-1")
    env.run(until=start + SCAN_S + 1.0 + 2.0 + 1.0)  # backing off
    # The entry is home again and the record is back at INTENT, still
    # carrying the abandoned attempt's payload.
    assert tables(switches)["lb-0"] == {VIP: (APP, RIPS)}
    assert journal(mgr) == [("move_vip", "intent", MOVE_PREPARED)]
    assert (mgr.retries, moves) == (1, [])
    env.run()
    assert done.value == "lb-2"
    assert tables(switches) == {"lb-0": {}, "lb-1": {}, "lb-2": {VIP: (APP, RIPS)}}
    assert mgr.registry == {APP: {VIP: "lb-2"}}
    assert mgr.rip_index == index_at("lb-2")
    assert journal(mgr) == [
        ("move_vip", "applied", {**MOVE_PREPARED, "dst": "lb-2"}),
    ]
    assert (mgr.retries, mgr.rejected) == (1, 0)
    assert moves == [(VIP, "lb-2")]


def test_move_aborts_when_the_vip_is_deleted_while_it_retries():
    env, switches, mgr, moves = build()
    mgr.mark_failed("lb-1")
    mgr.mark_failed("lb-2")
    start = env.now
    done = mgr.submit(VipRipRequest("move_vip", APP, vip=VIP))
    env.run(until=start + 1.0)  # no target; backing off 2 s
    assert mgr.retries == 1
    assert journal(mgr) == [("move_vip", "intent", {"vip": VIP, "src": "lb-0"})]
    switches["lb-0"].remove_vip(VIP)
    env.run()
    assert done.value is None
    assert (mgr.retries, mgr.rejected) == (1, 1)
    assert journal(mgr) == [("move_vip", "aborted", {"vip": VIP, "src": "lb-0"})]
    assert tables(switches) == {"lb-0": {}, "lb-1": {}, "lb-2": {}}
    assert mgr.registry == {APP: {VIP: "lb-0"}}  # stale; not the move's to fix
    assert mgr.rip_index == index_at("lb-0")
    assert moves == []


# -- _complete -----------------------------------------------------------------
def test_recovery_aborts_a_new_vip_whose_switch_failed_and_frees_its_address():
    env, switches, mgr, moves = build()
    mgr.submit(VipRipRequest("new_vip", "other"))
    env.run(until=env.now + SCAN_S + 0.5)
    (rec,) = mgr.journal.unsettled
    assert (rec.kind, rec.payload) == ("new_vip", {"vip": "203.0.0.1", "switch": "lb-1"})
    assert mgr.vip_pool.is_allocated("203.0.0.1")
    mgr.crash()
    assert recover(env, mgr, failed={"lb-1"}) == 4
    assert not mgr.vip_pool.is_allocated("203.0.0.1")
    assert journal(mgr) == [
        ("new_vip", "aborted", {"vip": "203.0.0.1", "switch": "lb-1"}),
    ]
    assert mgr.rejected == 1
    assert tables(switches) == {"lb-0": {VIP: (APP, RIPS)}, "lb-1": {}, "lb-2": {}}
    assert mgr.registry == {APP: {VIP: "lb-0"}}
    assert mgr.rip_index == index_at("lb-0")
    assert moves == []


def test_recovery_aborts_a_new_rip_whose_vip_is_gone():
    env, switches, mgr, moves = build()
    mgr.submit(VipRipRequest("new_rip", APP, rip="app/r2", weight=4.0))
    env.run(until=env.now + SCAN_S + 0.5)
    mgr.crash()
    switches["lb-0"].remove_vip(VIP)
    assert recover(env, mgr) == 4
    assert journal(mgr) == [
        ("new_rip", "aborted",
         {"vip": VIP, "rip": "app/r2", "weight": 4.0, "switch": "lb-0"}),
    ]
    assert mgr.rejected == 1
    assert tables(switches) == {"lb-0": {}, "lb-1": {}, "lb-2": {}}
    assert mgr.registry == {APP: {VIP: "lb-0"}}
    assert mgr.rip_index == index_at("lb-0")


def test_recovery_finishes_a_del_rip():
    env, switches, mgr, moves = build()
    mgr.submit(VipRipRequest("del_rip", APP, rip=R1))
    env.run(until=env.now + 0.5)
    mgr.crash()
    assert tables(switches)["lb-0"] == {VIP: (APP, RIPS)}
    assert recover(env, mgr) == 4
    assert journal(mgr) == [
        ("del_rip", "applied", {"vip": VIP, "rip": R1, "switch": "lb-0"}),
    ]
    assert tables(switches)["lb-0"] == {VIP: (APP, {R0: 1.0})}
    assert mgr.rip_index == {R0: (VIP, "lb-0")}
    assert mgr.rejected == 0


# -- _complete_move: PREPARED ------------------------------------------------
def test_recovery_adopts_a_prepared_move_re_landed_on_its_source():
    env, switches, mgr, moves = build(cutover_s=4.0)
    crash_mid_move(env, mgr, cutover=True)
    assert tables(switches) == {"lb-0": {}, "lb-1": {}, "lb-2": {}}
    # Someone re-landed the entry on the source with one RIP only.
    switches["lb-0"].install_entry(VipEntry(VIP, APP, {R0: 1.0}))
    assert recover(env, mgr) == 4
    assert tables(switches) == {"lb-0": {VIP: (APP, RIPS)}, "lb-1": {}, "lb-2": {}}
    assert mgr.registry == {APP: {VIP: "lb-0"}}
    assert mgr.rip_index == index_at("lb-0")
    assert journal(mgr) == [
        ("move_vip", "applied", {**MOVE_PREPARED, "dst": "lb-0"}),
    ]
    assert moves == [(VIP, "lb-0")]


def test_recovery_adopts_a_prepared_move_re_landed_elsewhere_and_merges_rips():
    env, switches, mgr, moves = build(cutover_s=4.0)
    crash_mid_move(env, mgr, cutover=True)
    switches["lb-2"].install_entry(VipEntry(VIP, APP, {R1: 5.0}))
    assert recover(env, mgr) == 4
    # The re-landed copy keeps its own weight for R1 and gains R0.
    assert tables(switches) == {
        "lb-0": {}, "lb-1": {}, "lb-2": {VIP: (APP, {R1: 5.0, R0: 1.0})},
    }
    assert mgr.registry == {APP: {VIP: "lb-2"}}
    assert mgr.rip_index == index_at("lb-2")
    assert journal(mgr) == [
        ("move_vip", "applied", {**MOVE_PREPARED, "dst": "lb-2"}),
    ]
    assert moves == [(VIP, "lb-2")]


def test_recovery_puts_a_prepared_move_back_on_its_source_when_nothing_else_fits():
    env, switches, mgr, moves = build(cutover_s=4.0)
    crash_mid_move(env, mgr, cutover=True)
    assert recover(env, mgr, failed={"lb-1", "lb-2"}) == 4
    assert tables(switches) == {"lb-0": {VIP: (APP, RIPS)}, "lb-1": {}, "lb-2": {}}
    assert mgr.registry == {APP: {VIP: "lb-0"}}
    assert mgr.rip_index == index_at("lb-0")
    assert journal(mgr) == [
        ("move_vip", "applied", {**MOVE_PREPARED, "dst": "lb-0"}),
    ]
    assert (mgr.rejected, moves) == (0, [(VIP, "lb-0")])


def test_recovery_aborts_a_prepared_move_with_no_switch_to_land_on():
    env, switches, mgr, moves = build()
    mgr.crash()
    # A durable record naming a source this manager does not drive.
    rec = mgr.journal.append("move_vip", APP, vip="203.0.0.7", src="lb-9")
    mgr.journal.mark(
        rec, OpPhase.PREPARED, dst="lb-1", entry_app=APP, entry_rips={"x": 1.0}
    )
    assert recover(env, mgr, failed={"lb-0", "lb-1", "lb-2"}) == 4
    assert journal(mgr) == [
        ("move_vip", "aborted",
         {"vip": "203.0.0.7", "src": "lb-9", "dst": "lb-1", "entry_app": APP,
          "entry_rips": {"x": 1.0}}),
    ]
    assert mgr.rejected == 1
    assert tables(switches) == {"lb-0": {VIP: (APP, RIPS)}, "lb-1": {}, "lb-2": {}}
    assert moves == []


# -- _complete_move: INTENT --------------------------------------------------
def test_recovery_adopts_an_intent_move_that_landed_another_way():
    env, switches, mgr, moves = build()
    crash_mid_move(env, mgr)
    switches["lb-2"].install_entry(switches["lb-0"].remove_vip(VIP))
    assert recover(env, mgr) == 4
    assert tables(switches) == {"lb-0": {}, "lb-1": {}, "lb-2": {VIP: (APP, RIPS)}}
    assert mgr.registry == {APP: {VIP: "lb-2"}}
    assert mgr.rip_index == index_at("lb-2")
    assert journal(mgr) == [
        ("move_vip", "applied", {"vip": VIP, "src": "lb-0", "dst": "lb-2"}),
    ]
    assert moves == [(VIP, "lb-2")]


def test_recovery_aborts_an_intent_move_whose_vip_is_gone():
    env, switches, mgr, moves = build()
    crash_mid_move(env, mgr)
    switches["lb-0"].remove_vip(VIP)
    assert recover(env, mgr) == 4
    assert tables(switches) == {"lb-0": {}, "lb-1": {}, "lb-2": {}}
    assert journal(mgr) == [
        ("move_vip", "aborted", {"vip": VIP, "src": "lb-0"}),
    ]
    assert mgr.registry == {APP: {VIP: "lb-0"}}
    assert mgr.rip_index == index_at("lb-0")
    assert (mgr.rejected, moves) == (1, [])


def test_recovery_aborts_an_intent_move_with_no_target():
    env, switches, mgr, moves = build()
    crash_mid_move(env, mgr)
    assert recover(env, mgr, failed={"lb-1", "lb-2"}) == 4
    assert tables(switches) == {"lb-0": {VIP: (APP, RIPS)}, "lb-1": {}, "lb-2": {}}
    assert journal(mgr) == [
        ("move_vip", "aborted", {"vip": VIP, "src": "lb-0"}),
    ]
    assert mgr.registry == {APP: {VIP: "lb-0"}}
    assert (mgr.rejected, moves) == (1, [])


def test_recovery_redoes_an_intent_move_on_the_least_utilized_switch():
    env, switches, mgr, moves = build()
    switches["lb-1"].add_vip("203.0.5.5", "busy")
    switches["lb-1"].set_vip_traffic("203.0.5.5", 1.0)
    crash_mid_move(env, mgr)
    assert recover(env, mgr) == 4
    assert tables(switches)["lb-2"] == {VIP: (APP, RIPS)}
    assert tables(switches)["lb-0"] == {}
    assert mgr.registry == {APP: {VIP: "lb-2"}}
    assert mgr.rip_index == index_at("lb-2")
    assert journal(mgr) == [
        ("move_vip", "applied", {"vip": VIP, "src": "lb-0", "dst": "lb-2"}),
    ]
    assert (mgr.rejected, moves) == (0, [(VIP, "lb-2")])


# -- sharded plane -------------------------------------------------------------
#: Default owners: A0 -> shard 0 (lb-0, lb-2), A1 -> shard 1 (lb-1, lb-3).
A0, A1 = "app-1", "app-0"
V0, V1 = "203.0.0.0", "203.0.0.1"
S0 = (f"{A0}/r0", f"{A0}/r1")
S1 = (f"{A1}/r0", f"{A1}/r1")
PLANE_TABLES = {
    "lb-0": {V0: (A0, dict.fromkeys(S0, 1.0))},
    "lb-1": {V1: (A1, dict.fromkeys(S1, 1.0))},
    "lb-2": {},
    "lb-3": {},
}
SHARD0 = ({A0: {V0: "lb-0"}}, {S0[0]: (V0, "lb-0"), S0[1]: (V0, "lb-0")})
SHARD1 = ({A1: {V1: "lb-1"}}, {S1[0]: (V1, "lb-1"), S1[1]: (V1, "lb-1")})


def seeded_plane():
    """Two shards, one app each (a VIP with two RIPs)."""
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
    assert tables(switches) == PLANE_TABLES
    assert books(plane) == [SHARD0, SHARD1]
    return switches, plane, moves


def books(plane):
    return [(s.manager.registry, s.manager.rip_index) for s in plane.shards]


def test_adoption_skips_an_entry_the_new_owner_has_no_room_for():
    switches, plane, moves = seeded_plane()
    plane.partition(0, 1)
    plane.mark_failed("lb-1")
    plane.mark_failed("lb-3")
    journaled = len(plane.shards[1].journal)
    plane._handoff(A0, 1, reason="test")
    assert plane.ownership.owner_of(A0) == 1
    assert tables(switches) == PLANE_TABLES
    assert books(plane) == [SHARD0, SHARD1]
    assert len(plane.shards[1].journal) == journaled
    assert (plane.conflicts, plane.vips_in_conflict(), moves) == (0, set(), [])


def test_local_repair_leaves_a_stranded_vip_with_no_room_unplaced():
    switches, plane, moves = seeded_plane()
    switches["lb-0"].remove_vip(V0)
    plane.mark_failed("lb-0")
    plane.mark_failed("lb-2")
    # No switch of shard 0 can take the entry; the RIP index rows of the
    # VIP that is now on no switch are dropped.
    assert plane.gossip_round() == 2
    assert tables(switches) == {**PLANE_TABLES, "lb-0": {}}
    assert books(plane) == [({A0: {V0: "lb-0"}}, {}), SHARD1]
    assert moves == []
    # With room back, the VIP is recreated, without the RIPs it lost.
    plane.mark_recovered("lb-2")
    assert plane.gossip_round() == 1
    assert tables(switches) == {**PLANE_TABLES, "lb-0": {}, "lb-2": {V0: (A0, {})}}
    assert books(plane) == [({A0: {V0: "lb-2"}}, {}), SHARD1]
    assert moves == [(V0, "lb-2")]


def test_local_repair_removes_an_orphan_table_rip():
    switches, plane, moves = seeded_plane()
    switches["lb-0"].add_rip(V0, "stray", 2.0)
    switches["lb-1"].add_rip(V1, S0[0], 1.0)  # indexed by shard 0: kept
    assert plane.drift_report().rip_orphaned == 1
    assert plane.gossip_round() == 1
    assert tables(switches) == {
        **PLANE_TABLES,
        "lb-1": {V1: (A1, {**dict.fromkeys(S1, 1.0), S0[0]: 1.0})},
    }
    assert books(plane) == [SHARD0, SHARD1]
    assert moves == []


# -- reconciler ----------------------------------------------------------------
def small_dc(**kwargs):
    apps = WorkloadBuilder(
        n_apps=8, total_gbps=4.0, diurnal_fraction=0.0, rng_hub=RngHub(7)
    ).build()
    return MegaDataCenter(
        apps, config=PlatformConfig(), n_pods=2, servers_per_pod=6,
        n_switches=3, **kwargs,
    )


def test_reconciler_realigns_a_duplicated_vip_neither_copy_of_which_is_recorded():
    dc = small_dc(crash_safe_manager=True)
    dc.run(100.0)
    assert dc.reconciler.run_pass().clean
    vip = sorted(dc.state.vips)[0]
    info = dc.state.vips[vip]
    home = dc.switches[info.switch]
    first, second = sorted(n for n in dc.switches if n != home.name)
    entry = home.remove_vip(vip)
    dc.switches[second].install_entry(entry)
    dc.switches[first].add_vip(vip, info.app)
    reconfigs = dc.state.reconfigurations
    report = dc.reconciler.run_pass()
    assert (report.vip_duplicate, report.vip_misplaced, report.vip_missing) == (1, 0, 0)
    # The first holder by name stays, whatever it holds.
    assert [n for n, sw in sorted(dc.switches.items()) if sw.has_vip(vip)] == [first]
    assert dc.state.vips[vip].switch == first
    assert dc.state.reconfigurations > reconfigs
    dc.close()


# -- instant-mode re-home --------------------------------------------------------
def rehome(dc, vip, src):
    out = []

    def driver():
        out.append((yield from dc._rehome_vip(vip, src)))

    dc.env.process(driver())
    return out


def test_instant_rehome_gives_up_at_its_deadline():
    dc = small_dc()
    assert dc.viprip is None
    vip = sorted(dc.state.vips)[0]
    src = dc.state.vips[vip].switch
    dc.state.failed_switches.update(n for n in dc.switches if n != src)
    start = dc.env.now
    out = rehome(dc, vip, src)
    dc.env.run(until=start + dc.config.fault_rehome_timeout_s + 1.0)
    # Backoffs of 2, 4, ..., 32 s fit in the 120 s budget; the sixth
    # retry's 64 s does not.
    assert out == [False]
    assert dc.rehome_retries == 6
    assert dc.switches[src].has_vip(vip)
    assert dc.state.vips[vip].switch == src
    dc.close()


def test_instant_rehome_stops_when_the_vip_leaves_its_source():
    dc = small_dc()
    vip = sorted(dc.state.vips)[0]
    src = dc.state.vips[vip].switch
    dc.state.failed_switches.update(n for n in dc.switches if n != src)
    start = dc.env.now
    out = rehome(dc, vip, src)
    dc.env.run(until=start + 1.0)
    assert dc.rehome_retries == 1
    dc.switches[src].remove_vip(vip)
    dc.env.run(until=start + 10.0)
    assert out == [False]
    assert dc.rehome_retries == 1
    assert not any(sw.has_vip(vip) for sw in dc.switches.values())
    dc.close()
