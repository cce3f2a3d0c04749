"""Tests for servers, VMs and migration models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hosts import (
    CloneModel,
    MigrationModel,
    MigrationStats,
    PhysicalServer,
    ServerSpec,
    VM,
    VMState,
)
from repro.sim import Environment


def make_vm(i=0, app="app", cpu=0.25, mem=4.0, image=4.0):
    return VM(vm_id=f"vm-{i}", app=app, cpu_slice=cpu, mem_gb=mem, image_gb=image)


# ------------------------------------------------------------------ VM


def test_vm_validation():
    with pytest.raises(ValueError):
        VM("v", "a", cpu_slice=-1, mem_gb=1)
    with pytest.raises(ValueError):
        VM("v", "a", cpu_slice=0.5, mem_gb=0)


def test_vm_is_serving():
    vm = make_vm()
    assert not vm.is_serving  # booting, no rip
    vm.state = VMState.RUNNING
    assert not vm.is_serving  # no rip yet
    vm.rip = "10.0.0.1"
    assert vm.is_serving


# ------------------------------------------------------------------ server


def test_server_capacity_accounting():
    s = PhysicalServer("s1", ServerSpec(cpu_capacity=1.0, mem_gb=16.0))
    s.attach(make_vm(0, cpu=0.5, mem=8))
    s.attach(make_vm(1, cpu=0.25, mem=4))
    assert s.cpu_allocated == pytest.approx(0.75)
    assert s.mem_allocated == pytest.approx(12)
    assert s.cpu_free == pytest.approx(0.25)
    assert s.utilization == pytest.approx(0.75)
    assert not s.is_empty


def test_server_rejects_overflow():
    s = PhysicalServer("s1", ServerSpec(cpu_capacity=1.0, mem_gb=8.0))
    s.attach(make_vm(0, cpu=0.9, mem=4))
    with pytest.raises(ValueError, match="cannot fit"):
        s.attach(make_vm(1, cpu=0.2, mem=1))
    with pytest.raises(ValueError, match="cannot fit"):
        s.attach(make_vm(2, cpu=0.05, mem=6))


def test_server_duplicate_and_missing_vm():
    s = PhysicalServer("s1")
    vm = make_vm(0)
    s.attach(vm)
    with pytest.raises(ValueError):
        s.attach(vm)
    with pytest.raises(KeyError):
        s.detach("nope")
    out = s.detach("vm-0")
    assert out.host is None and s.is_empty


def test_server_vms_of_app():
    s = PhysicalServer("s1", ServerSpec(cpu_capacity=2.0))
    s.attach(make_vm(0, app="a"))
    s.attach(make_vm(1, app="b"))
    s.attach(make_vm(2, app="a"))
    assert {vm.vm_id for vm in s.vms_of("a")} == {"vm-0", "vm-2"}


def test_server_resize_checks_capacity():
    s = PhysicalServer("s1", ServerSpec(cpu_capacity=1.0))
    s.attach(make_vm(0, cpu=0.5))
    s.attach(make_vm(1, cpu=0.4))
    s.resize("vm-0", 0.6)
    assert s.vm("vm-0").cpu_slice == 0.6
    with pytest.raises(ValueError):
        s.resize("vm-0", 0.7)
    with pytest.raises(ValueError):
        s.resize("vm-0", -0.1)


@settings(max_examples=50, deadline=None)
@given(
    slices=st.lists(st.floats(0.01, 0.5), min_size=1, max_size=6),
)
def test_server_never_oversubscribed(slices):
    s = PhysicalServer("s", ServerSpec(cpu_capacity=1.0, mem_gb=1000.0))
    for i, c in enumerate(slices):
        vm = make_vm(i, cpu=c, mem=1.0)
        if s.can_fit(vm.cpu_slice, vm.mem_gb):
            s.attach(vm)
        else:
            with pytest.raises(ValueError):
                s.attach(vm)
    assert s.cpu_allocated <= s.spec.cpu_capacity + 1e-9


# ---------------------------------------------------------------- migration


def test_migration_duration_and_cost():
    model = MigrationModel(dirty_rounds_factor=1.5, stop_copy_s=0.5)
    vm = make_vm(image=4.0)
    assert model.copied_gb(vm) == pytest.approx(6.0)
    assert model.duration_s(vm, bandwidth_gbps=1.0) == pytest.approx(48.5)
    with pytest.raises(ValueError):
        model.duration_s(vm, 0.0)


def test_migration_process_accounts_stats():
    env = Environment()
    model = MigrationModel()
    stats = MigrationStats()
    vm = make_vm(image=2.0)

    def proc():
        yield from model.migrate(env, vm, bandwidth_gbps=8.0, stats=stats)

    env.process(proc())
    env.run()
    assert stats.migrations == 1
    assert stats.bytes_copied_gb == pytest.approx(2.6)
    assert env.now == pytest.approx(2.6 * 8 / 8 + 0.5)


def test_clone_is_fast():
    env = Environment()
    clone = CloneModel(activation_s=3.0)
    migrate = MigrationModel()
    stats = MigrationStats()
    vm = make_vm(image=8.0)

    def proc():
        yield from clone.clone(env, vm, stats)

    env.process(proc())
    env.run()
    assert env.now == 3.0  # much faster than full migration
    assert env.now < migrate.duration_s(vm, bandwidth_gbps=1.0)
    assert stats.clones == 1
    assert stats.deployments == 1
