"""Property-based tests: pod-manager epochs preserve every hard invariant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pod import Pod
from repro.core.pod_manager import PodManager
from repro.hosts.server import PhysicalServer, ServerSpec
from repro.lbswitch.addresses import PRIVATE_RIP_POOL
from repro.workload.apps import AppSpec
from repro.workload.demand import ConstantDemand


def build_pod(n_servers, cpu=1.0, mem=32.0):
    pod = Pod("p", max_servers=100, max_vms=1000)
    for i in range(n_servers):
        pod.add_server(PhysicalServer(f"p-s{i}", ServerSpec(cpu, mem)))
    return pod


def check_invariants(pod, pool):
    for server in pod.servers:
        assert server.cpu_allocated <= server.spec.cpu_capacity + 1e-9
        assert server.mem_allocated <= server.spec.mem_gb + 1e-9
        for vm in server.vms:
            assert vm.rip is not None
            assert vm.host == server.name
    # RIP pool accounting matches live VM count exactly.
    assert len(pool._allocated) == pod.n_vms


@settings(max_examples=30, deadline=None)
@given(
    demands=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6),
    n_servers=st.integers(2, 8),
)
def test_single_epoch_invariants(demands, n_servers):
    pod = build_pod(n_servers)
    pool = PRIVATE_RIP_POOL(10_000)
    pm = PodManager(pod, pool)
    specs = {
        f"a{i}": AppSpec(f"a{i}", 0.1, ConstantDemand(d)) for i, d in enumerate(demands)
    }
    report = pm.run_epoch({a: s.demand.rate(0) for a, s in specs.items()}, specs)
    check_invariants(pod, pool)
    assert 0.0 <= report.satisfied_fraction <= 1.0 + 1e-9
    assert report.satisfied_cpu <= pod.cpu_capacity + 1e-9


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 1000),
    epochs=st.integers(2, 5),
)
def test_multi_epoch_churn_invariants(seed, epochs):
    rng = np.random.default_rng(seed)
    pod = build_pod(5)
    pool = PRIVATE_RIP_POOL(10_000)
    pm = PodManager(pod, pool)
    apps = [f"a{i}" for i in range(4)]
    specs = {a: AppSpec(a, 0.25, ConstantDemand(1.0)) for a in apps}
    for _ in range(epochs):
        demand = {a: float(rng.uniform(0, 2.0)) for a in apps}
        pm.run_epoch(demand, specs)
        check_invariants(pod, pool)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000))
def test_vacate_preserves_invariants_and_load(seed):
    rng = np.random.default_rng(seed)
    pod = build_pod(6)
    pool = PRIVATE_RIP_POOL(10_000)
    pm = PodManager(pod, pool)
    specs = {f"a{i}": AppSpec(f"a{i}", 0.2, ConstantDemand(1.0)) for i in range(3)}
    pm.run_epoch({a: float(rng.uniform(0.2, 1.2)) for a in specs}, specs)
    load_before = pod.cpu_allocated
    servers_before = pod.n_servers
    n = int(rng.integers(1, 4))
    vacated = pm.vacate(n)
    check_invariants(pod, pool)
    for server in vacated:
        assert server.is_empty
        assert server.pod is None
    assert pod.n_servers == servers_before - len(vacated)
    # Vacating may shed load its receivers cannot hold (it re-enters the
    # placement problem next epoch) but never invents load.
    assert pod.cpu_allocated <= load_before + 1e-6
    # And the shed amount is bounded by what the vacated servers carried.
    assert load_before - pod.cpu_allocated <= pod.cpu_capacity + 1e-6
