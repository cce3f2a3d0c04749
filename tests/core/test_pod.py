"""Tests for logical pods and the pod manager."""

import numpy as np
import pytest

from repro.core.pod import Pod
from repro.core.pod_manager import PodManager
from repro.hosts.server import PhysicalServer, ServerSpec
from repro.hosts.vm import VM, VMState
from repro.lbswitch.addresses import PRIVATE_RIP_POOL
from repro.placement import TangController
from repro.workload.apps import AppSpec
from repro.workload.demand import ConstantDemand


def make_pod(name="pod-0", n_servers=4, cpu=1.0, mem=32.0, max_servers=100, max_vms=200):
    pod = Pod(name, max_servers=max_servers, max_vms=max_vms)
    for i in range(n_servers):
        pod.add_server(
            PhysicalServer(f"{name}-s{i}", ServerSpec(cpu_capacity=cpu, mem_gb=mem))
        )
    return pod


def spec(app_id, gbps=1.0):
    return AppSpec(app_id, 0.1, ConstantDemand(gbps), vm_mem_gb=4.0)


# --------------------------------------------------------------------- pod


def test_pod_membership_and_aggregates():
    pod = make_pod(n_servers=3)
    assert pod.n_servers == 3
    assert pod.cpu_capacity == 3.0
    assert pod.utilization == 0.0
    server = pod.remove_server("pod-0-s1")
    assert server.pod is None
    assert pod.n_servers == 2
    with pytest.raises(KeyError):
        pod.remove_server("pod-0-s1")


def test_pod_server_cap_enforced():
    pod = Pod("p", max_servers=1, max_vms=10)
    pod.add_server(PhysicalServer("a"))
    with pytest.raises(RuntimeError, match="server cap"):
        pod.add_server(PhysicalServer("b"))
    with pytest.raises(ValueError):
        pod.add_server(pod.server("a"))


def test_pod_covered_apps_and_vms():
    pod = make_pod(n_servers=2)
    vm = VM("x@pod-0-s0", "appA", 0.2, 4.0, state=VMState.RUNNING)
    pod.server("pod-0-s0").attach(vm)
    assert pod.apps_covered() == {"appA"}
    assert pod.vms_of("appA") == [vm]
    assert pod.n_vms == 1
    assert sum(s.is_empty for s in pod.servers) == 1


def test_pod_at_capacity_limit():
    pod = Pod("p", max_servers=10, max_vms=1)
    pod.add_server(PhysicalServer("a"))
    assert not pod.at_capacity_limit
    pod.server("a").attach(VM("v", "app", 0.1, 1.0))
    assert pod.at_capacity_limit  # vm cap hit first


def test_pod_validation():
    with pytest.raises(ValueError):
        Pod("p", max_servers=0, max_vms=1)


# ------------------------------------------------------------- pod manager


def test_pod_manager_places_demand():
    pod = make_pod(n_servers=4)
    pm = PodManager(pod, PRIVATE_RIP_POOL(100))
    specs = {"a1": spec("a1"), "a2": spec("a2")}
    report = pm.run_epoch({"a1": 1.5, "a2": 0.5}, specs, t=0.0)
    assert report.satisfied_fraction == pytest.approx(1.0)
    assert report.demand_cpu == pytest.approx(2.0)
    assert pod.cpu_allocated == pytest.approx(2.0)
    assert report.changes >= 3  # at least 2 instances for a1, 1 for a2
    # every VM got a RIP
    for server in pod.servers:
        for vm in server.vms:
            assert vm.rip is not None


def test_pod_manager_reports_overload():
    pod = make_pod(n_servers=2)
    pm = PodManager(pod, PRIVATE_RIP_POOL(100))
    specs = {"big": spec("big")}
    report = pm.run_epoch({"big": 5.0}, specs)
    assert report.overloaded
    assert report.satisfied_cpu == pytest.approx(2.0)


def test_pod_manager_scales_down_and_releases_rips():
    pod = make_pod(n_servers=4)
    pool = PRIVATE_RIP_POOL(100)
    pm = PodManager(pod, pool)
    specs = {"a": spec("a")}
    pm.run_epoch({"a": 3.0}, specs)
    high_vms = pod.n_vms
    pm.run_epoch({"a": 0.2}, specs)
    assert pod.n_vms < high_vms
    assert pod.n_vms >= 1
    assert len(pool._allocated) == pod.n_vms


def test_pod_manager_callbacks_fire():
    pod = make_pod(n_servers=2)
    started, stopped = [], []
    pm = PodManager(
        pod,
        PRIVATE_RIP_POOL(100),
        on_start=lambda vm: started.append(vm.vm_id),
        on_stop=lambda vm: stopped.append(vm.vm_id),
    )
    specs = {"a": spec("a")}
    pm.run_epoch({"a": 1.5}, specs)
    assert len(started) >= 2
    pm.run_epoch({"a": 0.1}, specs)
    assert len(stopped) >= 1


def test_pod_manager_missing_spec_raises():
    pod = make_pod()
    pm = PodManager(pod, PRIVATE_RIP_POOL(10))
    with pytest.raises(KeyError, match="missing app specs"):
        pm.run_epoch({"ghost": 1.0}, {})


def test_pod_manager_works_with_tang_controller():
    pod = make_pod(n_servers=3)
    pm = PodManager(pod, PRIVATE_RIP_POOL(100), controller=TangController())
    specs = {"a": spec("a"), "b": spec("b")}
    report = pm.run_epoch({"a": 1.0, "b": 1.0}, specs)
    assert report.satisfied_fraction == pytest.approx(1.0)


def test_pod_manager_vacate_moves_load():
    pod = make_pod(n_servers=4)
    pm = PodManager(pod, PRIVATE_RIP_POOL(100))
    specs = {"a": spec("a")}
    pm.run_epoch({"a": 1.0}, specs)
    before_alloc = pod.cpu_allocated
    vacated = pm.vacate(2)
    assert len(vacated) == 2
    assert pod.n_servers == 2
    for s in vacated:
        assert s.is_empty and s.pod is None
    # the pod still serves (approximately) the same load
    assert pod.cpu_allocated == pytest.approx(before_alloc, abs=1e-6)


def test_pod_manager_vacate_counts_migrations():
    pod = make_pod(n_servers=3)
    pm = PodManager(pod, PRIVATE_RIP_POOL(100))
    specs = {"a": spec("a"), "b": spec("b")}
    pm.run_epoch({"a": 1.2, "b": 0.8}, specs)
    pm.vacate(1)
    assert pod.n_servers == 2
    # any moved VM counted
    assert pm.migration_stats.migrations >= 0


def test_pod_manager_vacate_refuses_when_no_room():
    pod = make_pod(n_servers=2)
    pm = PodManager(pod, PRIVATE_RIP_POOL(100))
    specs = {"a": spec("a"), "b": spec("b")}
    pm.run_epoch({"a": 1.0, "b": 1.0}, specs)  # both servers full
    vacated = pm.vacate(1)
    assert vacated == []  # nothing could be emptied
    assert pod.n_servers == 2


def test_pod_manager_epoch_counter_and_report_cache():
    pod = make_pod()
    pm = PodManager(pod, PRIVATE_RIP_POOL(10))
    assert pm.epochs_run == 0 and pm.last_report is None
    report = pm.run_epoch({"a": 0.5}, {"a": spec("a")}, t=7.0)
    assert pm.epochs_run == 1
    assert pm.last_report is report
    assert report.t == 7.0
