"""Tests for the six control knobs."""

import math

import pytest

from repro.core.knobs import (
    ActionLog,
    AppDeployment,
    KnobLadder,
    NaiveReadvertisement,
    RipWeightAdjustment,
    SelectiveVipExposure,
    ServerTransfer,
    TransferOutcome,
    VipTransfer,
    VmCapacityAdjustment,
)
from repro.core.knobs.ladder import CHEAP_FIRST, DEPLOY_FIRST
from repro.core.pod import Pod
from repro.core.pod_manager import PodManager
from repro.dns.authority import AuthoritativeDNS
from repro.dns.policy import InverseUtilizationPolicy
from repro.dns.population import FluidDNSModel
from repro.hosts.server import PhysicalServer, ServerSpec
from repro.hosts.vm import VM, VMState
from repro.lbswitch.addresses import PRIVATE_RIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits
from repro.network.bgp import BGPAnnouncer
from repro.network.links import AccessLink
from repro.sim import Environment
from repro.workload.apps import AppSpec
from repro.workload.demand import ConstantDemand


@pytest.fixture
def env():
    return Environment()


# -------------------------------------------------------------- action log


def test_action_log_counts_and_filters(env):
    log = ActionLog()
    log.record(0.0, "K1", "expose", app="a")
    log.record(1.0, "K1", "reclaim")
    log.record(2.0, "K2", "transfer")
    assert len(log) == 3
    assert log.count("K1") == 2
    assert log.count("K1", "expose") == 1
    assert log.count("K2", "transfer") == 1


# ---------------------------------------------------------------- K1


def test_k1_rebalance_shifts_weights_instantly(env):
    dns = AuthoritativeDNS(env)
    dns.configure("foo", {"vip1": 1.0, "vip2": 1.0})
    hot = AccessLink("hot", "isp", "AR1", 10.0).attach(env)
    cool = AccessLink("cool", "isp", "AR2", 10.0).attach(env)
    hot.set_load(9.9)
    cool.set_load(1.0)
    knob = SelectiveVipExposure(env, dns, policy=InverseUtilizationPolicy(), damping=0.0)
    weights = knob.rebalance_app("foo", {"vip1": hot, "vip2": cool})
    assert weights["vip1"] == 0.0
    assert weights["vip2"] > 0
    assert dns.answer_distribution("foo")["vip1"] == 0.0  # vip1 withdrawn
    assert knob.log.count("K1", "expose") == 1
    # no BGP involvement whatsoever
    assert env.now == 0.0


def test_k1_damping_converges_without_oscillation(env):
    dns = AuthoritativeDNS(env)
    dns.configure("foo", {"vip1": 1.0, "vip2": 1.0})
    hot = AccessLink("hot", "isp", "AR1", 10.0).attach(env)
    cool = AccessLink("cool", "isp", "AR2", 10.0).attach(env)
    hot.set_load(9.9)
    cool.set_load(1.0)
    knob = SelectiveVipExposure(env, dns, policy=InverseUtilizationPolicy(), damping=0.5)
    w1 = knob.rebalance_app("foo", {"vip1": hot, "vip2": cool})
    # halfway between uniform (0.5) and the policy target (0.0)
    assert w1["vip1"] == pytest.approx(0.25)
    w2 = knob.rebalance_app("foo", {"vip1": hot, "vip2": cool})
    assert w2["vip1"] < w1["vip1"]  # monotone approach, no flip-flop
    with pytest.raises(ValueError):
        SelectiveVipExposure(env, dns, damping=1.0)


def test_naive_readvertisement_costs_three_updates(env):
    bgp = BGPAnnouncer(env, convergence_s=30.0)
    bgp.advertise_now("vip1", "link-a")
    knob = NaiveReadvertisement(env, bgp, drain_poll_s=10.0, drain_timeout_s=300.0)
    traffic = {"t": 5.0}

    def drain():
        yield env.timeout(100)
        traffic["t"] = 0.0

    def run():
        yield from knob.transfer_vip(
            "vip1", "link-a", "link-b", lambda: traffic["t"]
        )

    env.process(drain())
    proc = env.process(run())
    env.run(until=proc)
    assert bgp.log.total == 3  # advertise + pad + withdraw
    assert bgp.links_for("vip1") == ["link-b"]
    # relief cannot begin before BGP convergence
    assert env.now >= 30.0 + 100.0


# ---------------------------------------------------------------- K2


def k2_setup(env, violator_fraction=0.0, force=False, timeout=600.0):
    dns = AuthoritativeDNS(env, default_ttl_s=30.0)
    dns.configure("foo", {"vip1": 1.0, "vip2": 1.0})
    fluid = FluidDNSModel(dns, violator_fraction=violator_fraction, violation_factor=20)
    fluid.ensure_app("foo")
    src = LBSwitch("lb-src", env)
    dst = LBSwitch("lb-dst", env)
    src.add_vip("vip1", "foo")
    src.add_rip("vip1", "10.0.0.1")
    knob = VipTransfer(
        env, dns, fluid, drain_epsilon=0.02, drain_timeout_s=timeout,
        force_on_timeout=force,
    )

    def ticker():
        while True:
            yield env.timeout(5.0)
            fluid.advance(5.0)

    env.process(ticker())
    return dns, fluid, src, dst, knob


def test_k2_clean_transfer_after_drain(env):
    dns, fluid, src, dst, knob = k2_setup(env)
    moved = []

    def run():
        result = yield from knob.transfer(
            "foo", "vip1", src, dst, on_moved=lambda v, s: moved.append((v, s))
        )
        return result

    proc = env.process(run())
    result = env.run(until=proc)
    assert result.outcome == TransferOutcome.CLEAN
    assert dst.has_vip("vip1") and not src.has_vip("vip1")
    assert dst.entry("vip1").rips == {"10.0.0.1": 1.0}
    assert moved == [("vip1", "lb-dst")]
    # exposure restored afterwards
    assert dns.weights("foo") == {"vip1": 1.0, "vip2": 1.0}
    # drain takes a few TTLs
    assert result.duration_s > 30.0


def test_k2_aborts_when_laggards_hold_on(env):
    dns, fluid, src, dst, knob = k2_setup(env, violator_fraction=0.5, timeout=60.0)

    def run():
        return (yield from knob.transfer("foo", "vip1", src, dst))

    proc = env.process(run())
    result = env.run(until=proc)
    assert result.outcome == TransferOutcome.ABORTED
    assert src.has_vip("vip1") and not dst.has_vip("vip1")
    assert dns.weights("foo")["vip1"] == 1.0  # restored


def test_k2_forced_transfer_moves_anyway(env):
    dns, fluid, src, dst, knob = k2_setup(
        env, violator_fraction=0.5, timeout=60.0, force=True
    )

    def run():
        return (yield from knob.transfer("foo", "vip1", src, dst))

    proc = env.process(run())
    result = env.run(until=proc)
    assert result.outcome == TransferOutcome.FORCED
    assert dst.has_vip("vip1")
    assert result.residual_share > 0.02


def test_k2_refuses_to_drain_only_vip(env):
    dns = AuthoritativeDNS(env)
    dns.configure("solo", {"viponly": 1.0})
    fluid = FluidDNSModel(dns)
    src, dst = LBSwitch("a", env), LBSwitch("b", env)
    src.add_vip("viponly", "solo")
    knob = VipTransfer(env, dns, fluid)

    def run():
        with pytest.raises(ValueError, match="only exposed VIP"):
            yield from knob.transfer("solo", "viponly", src, dst)

    proc = env.process(run())
    env.run(until=proc)


# ---------------------------------------------------------------- K3


def make_manager(env, name, n_servers, demand=None):
    pod = Pod(name, max_servers=50, max_vms=100)
    for i in range(n_servers):
        pod.add_server(PhysicalServer(f"{name}-s{i}", ServerSpec()))
    pm = PodManager(pod, PRIVATE_RIP_POOL(1000))
    if demand:
        specs = {a: AppSpec(a, 0.1, ConstantDemand(d)) for a, d in demand.items()}
        pm.run_epoch({a: d for a, d in demand.items()}, specs)
    return pm


def test_k3_transfer_moves_servers(env):
    donor = make_manager(env, "donor", 4, {"a": 0.5})
    recipient = make_manager(env, "rcpt", 2, {"b": 1.8})
    knob = ServerTransfer(env, donor_threshold=0.5)

    def run():
        return (yield from knob.execute(donor, recipient, 2))

    proc = env.process(run())
    moved = env.run(until=proc)
    assert moved == 2
    assert donor.pod.n_servers == 2
    assert recipient.pod.n_servers == 4
    for s in recipient.pod.servers:
        assert s.pod == "rcpt"
    assert knob.log.count("K3", "transfer") == 1


def test_k3_pick_donor_prefers_lightest(env):
    light = make_manager(env, "light", 4, {"a": 0.2})
    heavy = make_manager(env, "heavy", 4, {"b": 3.0})
    knob = ServerTransfer(env, donor_threshold=0.5)
    assert knob.pick_donor([light, heavy]) is light
    assert knob.pick_donor([light, heavy], exclude=["light"]) is None


def test_k3_refuses_elephant_recipient(env):
    donor = make_manager(env, "donor", 4)
    recipient_pod = Pod("fat", max_servers=2, max_vms=100)
    recipient_pod.add_server(PhysicalServer("fat-s0"))
    recipient_pod.add_server(PhysicalServer("fat-s1"))
    recipient = PodManager(recipient_pod, PRIVATE_RIP_POOL(10))
    knob = ServerTransfer(env)

    def run():
        return (yield from knob.execute(donor, recipient, 1))

    proc = env.process(run())
    assert env.run(until=proc) == 0
    assert knob.log.count("K3", "refuse-elephant") == 1


def test_k3_relieve_elephant_moves_loaded_servers(env):
    elephant = make_manager(env, "ele", 4, {"a": 2.0, "b": 1.0})
    recipient = make_manager(env, "rcpt", 2)
    knob = ServerTransfer(env)
    vms_before = elephant.pod.n_vms

    def run():
        return (yield from knob.relieve_elephant(elephant, recipient, 2))

    proc = env.process(run())
    moved = env.run(until=proc)
    assert moved == 2
    assert elephant.pod.n_servers == 2
    # instances moved with their servers, none stopped
    assert elephant.pod.n_vms + recipient.pod.n_vms == vms_before


# ---------------------------------------------------------------- K4


def test_k4_replicate_creates_serving_vm(env):
    pod = Pod("p", max_servers=10, max_vms=20)
    pod.add_server(PhysicalServer("p-s0"))
    spec = AppSpec("app", 0.1, ConstantDemand(1.0), vm_cpu=0.25)
    knob = AppDeployment(env, PRIVATE_RIP_POOL(10))
    started = []

    def run():
        return (
            yield from knob.replicate(spec, pod, on_start=lambda vm: started.append(vm))
        )

    proc = env.process(run())
    vm = env.run(until=proc)
    assert vm is not None and vm.is_serving
    assert vm.rip is not None
    assert started == [vm]
    assert env.now == pytest.approx(3.0)  # clone activation, fast
    assert knob.stats.clones == 1


def test_k4_replicate_fails_when_full(env):
    pod = Pod("p", max_servers=10, max_vms=20)
    server = PhysicalServer("p-s0", ServerSpec(cpu_capacity=0.1))
    pod.add_server(server)
    spec = AppSpec("app", 0.1, ConstantDemand(1.0), vm_cpu=0.5)
    knob = AppDeployment(env, PRIVATE_RIP_POOL(10))

    def run():
        return (yield from knob.replicate(spec, pod))

    proc = env.process(run())
    assert env.run(until=proc) is None
    assert knob.log.count("K4", "replicate-failed") == 1


def test_k4_migrate_moves_vm_between_pods(env):
    src_pod = Pod("src", 10, 20)
    dst_pod = Pod("dst", 10, 20)
    server_a = PhysicalServer("src-s0")
    server_b = PhysicalServer("dst-s0")
    src_pod.add_server(server_a)
    dst_pod.add_server(server_b)
    vm = VM("app@src-s0", "app", 0.25, 4.0, image_gb=2.0, state=VMState.RUNNING)
    server_a.attach(vm)
    knob = AppDeployment(env, PRIVATE_RIP_POOL(10), fabric_gbps=8.0)

    def run():
        return (yield from knob.migrate(vm, src_pod, dst_pod))

    proc = env.process(run())
    assert env.run(until=proc) is True
    assert vm.host == "dst-s0"
    assert vm.state == VMState.RUNNING
    assert server_a.is_empty
    assert knob.stats.migrations == 1
    assert env.now > 0  # migration took real time


# ---------------------------------------------------------------- K5


def test_k5_plan_is_demand_proportional_and_capped(env):
    server = PhysicalServer("s", ServerSpec(cpu_capacity=1.0))
    server.attach(VM("v1", "a", 0.3, 4.0))
    server.attach(VM("v2", "b", 0.3, 4.0))
    knob = VmCapacityAdjustment(env)
    plan = knob.plan_slices(server, {"a": 2.0, "b": 1.0})
    # demands 3.0 > capacity 1.0 -> scaled to 2/3, 1/3
    assert plan["v1"] == pytest.approx(2 / 3)
    assert plan["v2"] == pytest.approx(1 / 3)


def test_k5_apply_is_fast_and_safe(env):
    server = PhysicalServer("s", ServerSpec(cpu_capacity=1.0))
    server.attach(VM("v1", "a", 0.9, 4.0))
    server.attach(VM("v2", "b", 0.05, 4.0))
    knob = VmCapacityAdjustment(env, adjust_latency_s=2.0)

    def run():
        yield from knob.apply(server, {"a": 0.2, "b": 0.8})

    proc = env.process(run())
    env.run(until=proc)
    assert env.now == pytest.approx(2.0)  # seconds, the agile knob
    assert server.vm("v1").cpu_slice == pytest.approx(0.2)
    assert server.vm("v2").cpu_slice == pytest.approx(0.8)
    assert server.cpu_allocated <= 1.0 + 1e-9


# ---------------------------------------------------------------- K6


def k6_setup(env):
    switch = LBSwitch("lb", env)
    switch.add_vip("vip1", "app")
    switch.add_rip("vip1", "r-pod1-a", weight=1.0)
    switch.add_rip("vip1", "r-pod1-b", weight=1.0)
    switch.add_rip("vip1", "r-pod2-a", weight=2.0)
    pod_of = lambda rip: "pod1" if "pod1" in rip else "pod2"
    return switch, pod_of, RipWeightAdjustment(env)


def test_k6_inter_pod_shift(env):
    switch, pod_of, knob = k6_setup(env)

    def run():
        yield from knob.set_weights(switch, "vip1", {"r-pod1-a": 0.5, "r-pod2-a": 3.0})

    proc = env.process(run())
    env.run(until=proc)
    assert switch.entry("vip1").rips["r-pod1-a"] == 0.5
    assert switch.entry("vip1").rips["r-pod2-a"] == 3.0
    assert env.now == pytest.approx(3.0)  # one reconfiguration


def test_k6_intra_pod_conserves_total(env):
    switch, pod_of, knob = k6_setup(env)
    before = RipWeightAdjustment.pod_shares(switch, "vip1", pod_of)

    def run():
        yield from knob.intra_pod_rebalance(
            switch, "vip1", pod_of, "pod1", {"r-pod1-a": 1.5, "r-pod1-b": 0.5}
        )

    proc = env.process(run())
    env.run(until=proc)
    after = RipWeightAdjustment.pod_shares(switch, "vip1", pod_of)
    assert after["pod2"] == pytest.approx(before["pod2"])  # unaffected!
    assert switch.entry("vip1").rips["r-pod1-a"] == 1.5


def test_k6_intra_pod_rejects_total_change(env):
    switch, pod_of, knob = k6_setup(env)

    def run():
        with pytest.raises(ValueError, match="weight total changed"):
            yield from knob.intra_pod_rebalance(
                switch, "vip1", pod_of, "pod1", {"r-pod1-a": 5.0, "r-pod1-b": 0.5}
            )

    proc = env.process(run())
    env.run(until=proc)


def test_k6_intra_pod_requires_exact_rip_cover(env):
    switch, pod_of, knob = k6_setup(env)

    def run():
        with pytest.raises(ValueError, match="exactly the pod's RIPs"):
            yield from knob.intra_pod_rebalance(
                switch, "vip1", pod_of, "pod1", {"r-pod1-a": 2.0}
            )

    proc = env.process(run())
    env.run(until=proc)


def test_k6_unknown_rip_rejected(env):
    switch, pod_of, knob = k6_setup(env)

    def run():
        with pytest.raises(KeyError):
            yield from knob.set_weights(switch, "vip1", {"nope": 1.0})

    proc = env.process(run())
    env.run(until=proc)


# ------------------------------------------------------------------ ladder


def test_ladder_escalates_cheap_first():
    ladder = KnobLadder()
    assert ladder.order == CHEAP_FIRST
    assert ladder.next_knob(0) == "K6"
    assert ladder.next_knob(1) == "K5"
    assert ladder.next_knob(2) == "K4"
    assert ladder.next_knob(3) == "K3"
    assert ladder.next_knob(99) == "K3"  # stays at the top rung


def test_ladder_patience_and_alternate_order():
    ladder = KnobLadder(order=DEPLOY_FIRST, patience=2)
    assert ladder.next_knob(0) == "K4"
    assert ladder.next_knob(1) == "K4"
    assert ladder.next_knob(2) == "K6"


def test_ladder_validation():
    with pytest.raises(ValueError):
        KnobLadder(order=())
    with pytest.raises(ValueError):
        KnobLadder(order=("K9",))
    with pytest.raises(ValueError):
        KnobLadder(patience=0)
    with pytest.raises(ValueError):
        KnobLadder().next_knob(-1)
