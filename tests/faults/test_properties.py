"""Property-based fault invariants.

Whatever a random (but seeded, hence reproducible) fault schedule throws
at the platform, after the dust settles:

* no VIP is homed on a switch that is still failed;
* no VM serves from a server that is still crashed;
* the VIP/RIP manager's queue drains — re-home requests terminate
  (success or bounded-timeout rejection) even when every target is down.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MegaDataCenter, PlatformConfig
from repro.core.viprip import VipRipManager, VipRipRequest
from repro.faults import FaultInjector, FaultSchedule, RecoveryMonitor
from repro.lbswitch.addresses import PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits
from repro.sim import Environment, RngHub
from repro.workload import WorkloadBuilder


def build_dc(seed=0):
    apps = WorkloadBuilder(
        n_apps=8,
        total_gbps=4.0,
        diurnal_fraction=0.0,
        rng_hub=RngHub(seed),
    ).build()
    return MegaDataCenter(
        apps,
        config=PlatformConfig(),
        n_pods=3,
        servers_per_pod=6,
        n_switches=4,
    )


def run_random_scenario(seed: int):
    dc = build_dc(seed=seed)
    # At most 2 of the 4 switches can fault, so a re-home target always
    # exists eventually; all faults land in [60, 600] and the run extends
    # far enough past the horizon for every bounded retry loop to finish.
    schedule = FaultSchedule.random(
        seed=seed,
        duration_s=600.0,
        servers=sorted(dc.state.servers)[:6],
        switches=sorted(dc.switches)[:2],
        links=sorted(dc.internet.links)[:1],
        mtbf_s=400.0,
        mttr_s=120.0,
    )
    monitor = RecoveryMonitor()
    FaultInjector(dc, schedule, monitor)
    dc.run(900.0)
    return dc, monitor


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_no_vip_homed_on_failed_switch(seed):
    dc, _ = run_random_scenario(seed)
    for vip, info in dc.state.vips.items():
        assert info.switch not in dc.state.failed_switches
        assert dc.switches[info.switch].has_vip(vip)
    for name in dc.state.failed_switches:
        assert dc.switches[name].num_vips == 0


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_no_vm_serving_on_crashed_server(seed):
    dc, _ = run_random_scenario(seed)
    for name, (_, server) in dc._crashed_servers.items():
        assert not server.vms
        assert server.pod is None
    crashed = set(dc._crashed_servers)
    for info in dc.state.rips.values():
        assert info.vm.host not in crashed
        assert info.vm.is_serving
    assert dc.invariants_ok()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_every_fault_gets_a_response(seed):
    dc, monitor = run_random_scenario(seed)
    assert monitor.responded == len(monitor.records)
    for rec in monitor.records:
        assert rec.mttr_s >= 0


@settings(max_examples=10, deadline=None)
@given(
    n_requests=st.integers(min_value=1, max_value=8),
    timeout_s=st.floats(min_value=5.0, max_value=60.0),
)
def test_move_vip_queue_always_drains(n_requests, timeout_s):
    """Even with *every* possible target failed, a storm of move_vip
    requests terminates within the bounded timeout instead of wedging
    the serialized queue forever."""
    env = Environment()
    switches = [
        LBSwitch(f"lb-{i}", env, SwitchLimits(max_vips=20, max_rips=80))
        for i in range(3)
    ]
    mgr = VipRipManager(
        env,
        switches,
        PUBLIC_VIP_POOL(100),
        reconfig_s=1.0,
        rehome_timeout_s=timeout_s,
        rehome_backoff_s=1.0,
    )
    vips = []
    for i in range(n_requests):
        done = mgr.submit(VipRipRequest("new_vip", f"app-{i}"))
        env.run(until=done)
        vips.append(done.value[0])
    # Kill every switch except the sources: no move can ever succeed.
    for s in switches:
        mgr.mark_failed(s.name)
    for i, vip in enumerate(vips):
        mgr.submit(VipRipRequest("move_vip", f"app-{i}", vip=vip))
    env.run(until=env.now + (timeout_s + 10.0) * n_requests + 10.0)
    assert not mgr._heap
    assert mgr.rejected >= n_requests  # every hopeless move was bounded
    assert mgr.retries >= n_requests


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_schedule_roundtrip_valid(seed):
    """Random schedules always satisfy the alternation validator."""
    sched = FaultSchedule.random(
        seed=seed,
        duration_s=3600.0,
        servers=["s1", "s2", "s3"],
        switches=["lb-0"],
        mtbf_s=600.0,
        mttr_s=120.0,
    )
    FaultSchedule(sched.events)  # re-validation must not raise
