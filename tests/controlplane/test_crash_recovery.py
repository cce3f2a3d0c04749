"""Crash/recovery behaviour of the journaled VIP/RIP manager."""

import pytest

from repro.controlplane import CheckpointStore, WriteAheadJournal
from repro.core import MegaDataCenter, PlatformConfig
from repro.core.viprip import RESTORE_S, VipRipManager, VipRipRequest
from repro.faults import FaultInjector, FaultSchedule, RecoveryMonitor
from repro.lbswitch.addresses import PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits
from repro.sim import Environment, RngHub
from repro.workload import WorkloadBuilder


def build_cs(n_switches=3, reconfig_s=3.0, cutover_s=0.0, checkpoint_interval_s=0.0):
    """A standalone crash-safe manager: journal + checkpoint store attached."""
    env = Environment()
    switches = [
        LBSwitch(f"lb-{i}", env, SwitchLimits(max_vips=10, max_rips=40))
        for i in range(n_switches)
    ]
    mgr = VipRipManager(
        env,
        switches,
        PUBLIC_VIP_POOL(1000),
        reconfig_s=reconfig_s,
        journal=WriteAheadJournal(),
        checkpoints=CheckpointStore(),
        checkpoint_interval_s=checkpoint_interval_s,
        cutover_s=cutover_s,
    )
    return env, switches, mgr


def recover(env, mgr):
    done = []

    def driver():
        n = yield from mgr.recover()
        done.append(n)

    env.process(driver())
    env.run()
    return done[0]


# -- crash semantics -------------------------------------------------------
def test_crash_drops_queue_and_completes_done_with_none():
    env, _, mgr = build_cs(reconfig_s=3.0)
    first = mgr.submit(VipRipRequest("new_vip", "a"))
    queued = [mgr.submit(VipRipRequest("new_vip", f"app-{i}")) for i in range(3)]
    env.run(until=1.0)  # first is in flight, three are queued
    mgr.crash()
    assert mgr.crashed
    assert mgr.lost == 4  # in-flight + queue
    assert not mgr._heap
    # clients are unblocked, not wedged: every done fired with None
    for ev in [first] + queued:
        assert ev.triggered and ev.value is None
    # volatile state is gone; durable state survives
    assert mgr.registry == {} and mgr.rip_index == {}
    assert mgr.journal.unsettled  # the in-flight op's INTENT record


def test_crash_is_idempotent_and_counted():
    env, _, mgr = build_cs()
    mgr.submit(VipRipRequest("new_vip", "a"))
    env.run(until=1.0)
    mgr.crash()
    lost = mgr.lost
    mgr.crash()  # second crash of a dead manager is a no-op
    assert mgr.crashes == 1 and mgr.lost == lost


def test_recovery_replays_journal_and_resumes_processing():
    env, switches, mgr = build_cs()
    done = [mgr.submit(VipRipRequest("new_vip", f"app-{i}")) for i in range(3)]
    env.run(until=done[-1])
    registry_before = {a: dict(v) for a, v in mgr.registry.items()}
    mgr.crash()
    assert mgr.registry == {}
    replayed = recover(env, mgr)
    # no checkpoint was taken, so the whole journal is the tail
    assert replayed == 3
    assert mgr.registry == registry_before
    assert not mgr.crashed
    # the restarted processor serves new requests
    d = mgr.submit(VipRipRequest("new_vip", "late"))
    env.run(until=d)
    assert d.value is not None and mgr.processed == 4


def test_checkpoint_bounds_replay_tail():
    env, _, mgr = build_cs()
    done = [mgr.submit(VipRipRequest("new_vip", f"app-{i}")) for i in range(4)]
    env.run(until=done[1])
    mgr.take_checkpoint()
    env.run(until=done[-1])
    mgr.crash()
    replayed = recover(env, mgr)
    # two ops predate the checkpoint: restored, not replayed
    assert replayed == 2
    assert len(mgr.registry) == 4


def test_mid_move_crash_finishes_move_from_prepared_record():
    env, switches, mgr = build_cs(reconfig_s=3.0, cutover_s=5.0)
    d = mgr.submit(VipRipRequest("new_vip", "app"))
    env.run(until=d)
    vip, src_name = d.value
    mgr.submit(VipRipRequest("move_vip", "app", vip=vip))
    # selection + reconfig put the move into its cutover window; crash inside
    env.run(until=env.now + mgr.reconfig_s + 0.5 * mgr.cutover_s)
    assert not any(sw.has_vip(vip) for sw in switches)  # half-configured
    rec = mgr.journal.unsettled[-1]
    assert rec.kind == "move_vip" and rec.payload["dst"]
    mgr.crash()
    recover(env, mgr)
    # replay completed the move: the VIP is back on exactly one switch,
    # off the source, with its RIP table intact
    holders = [sw.name for sw in switches if sw.has_vip(vip)]
    assert len(holders) == 1 and holders[0] != src_name
    assert mgr.registry["app"][vip] == holders[0]
    assert rec.settled


def test_mid_move_crash_repicks_when_the_pinned_target_died():
    env, switches, mgr = build_cs(reconfig_s=3.0, cutover_s=5.0)
    d = mgr.submit(VipRipRequest("new_vip", "app"))
    env.run(until=d)
    vip, src_name = d.value
    mgr.submit(VipRipRequest("move_vip", "app", vip=vip))
    env.run(until=env.now + mgr.reconfig_s + 0.5 * mgr.cutover_s)
    rec = mgr.journal.unsettled[-1]
    pinned = rec.payload["dst"]
    mgr.crash()
    done = []

    def driver():
        done.append((yield from mgr.recover(failed={pinned})))

    env.process(driver())
    env.run()
    # The pinned target is down, so replay re-decides: the VIP lands on
    # the one switch that is neither the source nor the dead target.
    (spare,) = {sw.name for sw in switches} - {src_name, pinned}
    assert [sw.name for sw in switches if sw.has_vip(vip)] == [spare]
    assert mgr.registry["app"][vip] == spare
    assert rec.settled


# -- facade integration ----------------------------------------------------
def build_dc(seed=0):
    apps = WorkloadBuilder(
        n_apps=8, total_gbps=4.0, diurnal_fraction=0.0, rng_hub=RngHub(seed)
    ).build()
    return MegaDataCenter(
        apps,
        config=PlatformConfig(),
        n_pods=2,
        servers_per_pod=6,
        n_switches=3,
        crash_safe_manager=True,
    )


def test_facade_manager_crash_reports_mttr_and_lost_reconfigs():
    dc = build_dc()
    monitor = RecoveryMonitor()
    schedule = FaultSchedule.from_events([(100.0, "manager_crash", "viprip")])
    injector = FaultInjector(dc, schedule, monitor)
    dc.run(400.0)
    assert injector.finished
    assert dc.manager_crashes == 1
    assert not dc.viprip.crashed  # supervisor restarted it
    tally = monitor.mttr("manager")
    assert tally is not None and tally.count == 1
    # MTTR covers restart delay + checkpoint restore at minimum
    assert tally.mean >= dc.config.manager_restart_s + RESTORE_S
    assert dc.invariants_ok()


def test_facade_recover_manager_restarts_a_crashed_manager_early():
    """A scheduled ``manager_recover`` brings the manager back before the
    supervisor's restart timer would."""
    dc = build_dc()
    dc.run(50.0)
    dc.crash_manager()
    assert dc.viprip.crashed
    ev = dc.recover_manager()
    dc.run(50.0 + 0.5 * dc.config.manager_restart_s)
    assert ev.triggered and not dc.viprip.crashed
    assert dc.invariants_ok()


def test_facade_recover_manager_is_noop_when_up():
    dc = build_dc()
    dc.run(50.0)
    ev = dc.recover_manager()
    dc.run(60.0)
    assert ev.triggered and not dc.viprip.crashed
    assert dc.manager_crashes == 0
