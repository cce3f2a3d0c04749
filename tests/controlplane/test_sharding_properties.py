"""Property-based convergence guarantees for the sharded control plane.

The anchor property: for *any* schedule of shard crashes, shard<->shard
partitions, and concurrent request load, once the chaos quiesces (every
shard recovered, every partition healed) a bounded number of gossip
rounds drives all six drift dimensions — vip_missing, vip_misplaced,
vip_duplicate, rip_missing, rip_orphaned, index_stale — to zero.

Two generators exercise it:

* a Hypothesis strategy drawing arbitrary chaos schedules;
* a fixed seed matrix (``REPRO_CHAOS_SEEDS``, comma-separated) the CI
  chaos lane sweeps, so known-hostile seeds stay pinned forever.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.controlplane.sharding import ShardedControlPlane
from repro.core.viprip import VipRipRequest
from repro.lbswitch.addresses import PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits
from repro.sim import Environment, RngHub

DRIFT_DIMS = (
    "vip_missing",
    "vip_misplaced",
    "vip_duplicate",
    "rip_missing",
    "rip_orphaned",
    "index_stale",
    "weight_stale",
)

CHAOS_SEEDS = [
    int(s) for s in os.environ.get("REPRO_CHAOS_SEEDS", "7,23").split(",") if s.strip()
]

APPS = [f"app-{i}" for i in range(8)]


def build_plane(n_shards):
    env = Environment()
    switches = [
        LBSwitch(f"lb-{i}", env, SwitchLimits(max_vips=16, max_rips=64))
        for i in range(2 * n_shards)
    ]
    plane = ShardedControlPlane(
        env, switches, PUBLIC_VIP_POOL(1000), n_shards, reconfig_s=1.0
    )
    return env, plane


def drain(env):
    env.run()


def recover_all(env, plane):
    def driver():
        yield from plane.recover()

    env.process(driver())
    env.run()


def seed_state(env, plane):
    done = [plane.submit(VipRipRequest("new_vip", app)) for app in APPS]
    env.run()
    assert all(d.triggered for d in done)


def apply_step(env, plane, step, rip_counter):
    """One chaos step; requests are drained so state moves between faults."""
    op, a, b = step
    n = plane.n_shards
    if op == "crash":
        plane.crash(a % n)
    elif op == "recover":
        recover_all(env, plane)
    elif op == "partition":
        plane.partition(a % n, b % n)
    elif op == "heal":
        plane.heal_all()
    elif op == "gossip":
        plane.gossip_round()
    elif op == "new_rip":
        rip_counter[0] += 1
        plane.submit(
            VipRipRequest(
                "new_rip", APPS[a % len(APPS)], rip=f"10.7.0.{rip_counter[0]}"
            )
        )
        drain(env)
    else:  # new_vip
        plane.submit(VipRipRequest("new_vip", APPS[a % len(APPS)]))
        drain(env)


def quiesce_and_check(env, plane):
    """Heal everything, then demand bounded convergence on all six dims."""
    recover_all(env, plane)
    plane.heal_all()
    drain(env)
    rounds = plane.converge(max_rounds=4 * plane.n_shards + 8)
    assert rounds is not None, (
        f"no convergence within bound: {plane.drift_report().as_dict()}"
    )
    report = plane.drift_report()
    assert report.as_dict() == {dim: 0 for dim in DRIFT_DIMS}
    assert plane.vips_in_conflict() == set()


steps_strategy = st.lists(
    st.tuples(
        st.sampled_from(
            ["crash", "recover", "partition", "heal", "gossip", "new_rip", "new_vip"]
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=20, deadline=None)
@given(n_shards=st.integers(min_value=2, max_value=4), steps=steps_strategy)
def test_any_chaos_schedule_converges_after_quiescence(n_shards, steps):
    env, plane = build_plane(n_shards)
    seed_state(env, plane)
    rip_counter = [0]
    for step in steps:
        apply_step(env, plane, step, rip_counter)
    quiesce_and_check(env, plane)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_seeded_chaos_matrix_converges(seed):
    """The CI lane's pinned seed matrix: a longer randomized schedule per
    seed, fully deterministic given REPRO_CHAOS_SEEDS."""
    rng = RngHub(seed).stream("shard-chaos", 0)
    n_shards = int(rng.integers(2, 5))
    env, plane = build_plane(n_shards)
    seed_state(env, plane)
    ops = ["crash", "recover", "partition", "heal", "gossip", "new_rip", "new_vip"]
    rip_counter = [0]
    for _ in range(30):
        step = (
            ops[int(rng.integers(0, len(ops)))],
            int(rng.integers(0, 8)),
            int(rng.integers(0, 8)),
        )
        apply_step(env, plane, step, rip_counter)
    quiesce_and_check(env, plane)
    # and the plane still serves requests after the chaos
    d = plane.submit(VipRipRequest("new_vip", "app-post"))
    env.run()
    assert d.triggered and d.value is not None
