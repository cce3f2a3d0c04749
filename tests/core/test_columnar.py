"""Columnar pod state: the object-API bridge must be a faithful twin.

``ColumnarPodState.from_pod`` exists so the sharded-array hot path and the
object model (PodManager, knobs, faults) describe the same platform:
the columnar current matrix must be bit-identical to what
``PodManager._build_problem`` derives from the VM objects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ColumnarPodState, ColumnarServers
from repro.core.columnar import IdIndex
from repro.core.pod import Pod
from repro.core.pod_manager import PodManager
from repro.hosts.server import PhysicalServer, ServerSpec
from repro.lbswitch.addresses import PRIVATE_RIP_POOL
from repro.placement.sparse import (
    SparseGreedyController,
    SparsePlacement,
    SparseSolution,
)
from repro.workload.apps import AppSpec
from tests.placement.sparse_ref import (
    placement_keys,
    same_placement,
    sparse_count_changes,
)
from repro.workload.demand import ConstantDemand


def build_pod_with_load(n_servers=6, n_apps=4, seed=0):
    rng = np.random.default_rng(seed)
    pod = Pod("p", max_servers=100, max_vms=1000)
    for i in range(n_servers):
        pod.add_server(PhysicalServer(f"p-s{i}", ServerSpec(2.0, 32.0)))
    pool = PRIVATE_RIP_POOL(10_000)
    pm = PodManager(pod, pool)
    specs = {
        f"a{i}": AppSpec(f"a{i}", 0.5, ConstantDemand(1.0))
        for i in range(n_apps)
    }
    demand = {a: float(rng.uniform(0.3, 2.0)) for a in specs}
    pm.run_epoch(demand, specs)
    return pod, pm, specs


# ---------------------------------------------------------------- bridge


def test_from_pod_matches_build_problem_current():
    pod, pm, specs = build_pod_with_load()
    apps = sorted(pod.apps_covered())
    dense_ref = pm._build_problem(
        pod.servers, apps, {a: 0.0 for a in apps}, specs
    ).current
    state = ColumnarPodState.from_pod(pod, specs, apps=apps)
    assert np.array_equal(state.placement.to_dense(), np.asarray(dense_ref))
    # Per-entry loads come from the live cpu slices.
    assert state.load.sum() == pytest.approx(pod.cpu_allocated)
    assert state.n_vms == pod.n_vms
    assert state.n_servers == pod.n_servers


def test_from_pod_capacity_columns():
    pod, _pm, specs = build_pod_with_load(n_servers=3)
    state = ColumnarPodState.from_pod(pod, specs)
    assert np.allclose(state.servers.cpu, 2.0)
    assert np.allclose(state.servers.mem_gb, 32.0)
    expect_mem = [specs[a].vm_mem_gb for a in sorted(pod.apps_covered())]
    assert np.allclose(state.app_mem_gb, expect_mem)


# ------------------------------------------------------------ primitives


def test_id_index_stable_append_only():
    idx = IdIndex(["b", "a"])
    assert idx.get("b") == 0 and idx.get("a") == 1
    assert idx.add("b") == 0  # idempotent
    assert idx.add("c") == 2
    assert idx.name(2) == "c" and len(idx) == 3 and "a" in idx


def test_columnar_servers_validation():
    with pytest.raises(ValueError):
        ColumnarServers(cpu=np.ones(3), mem_gb=np.ones(2))
    with pytest.raises(ValueError):
        ColumnarServers(cpu=np.zeros(2), mem_gb=np.ones(2))
    s = ColumnarServers.uniform(4, 8.0, 64.0, name_prefix="x")
    assert s.n == 4 and s.name(2) == "x000002"
    # A uniform column stays one float; any other layout is made contiguous.
    assert s.cpu.strides == s.mem_gb.strides == (0,)
    strided = ColumnarServers(cpu=np.arange(1.0, 7.0)[::2], mem_gb=s.mem_gb[:3])
    assert strided.cpu.flags.c_contiguous and strided.mem_gb.strides == (0,)
    np.testing.assert_array_equal(strided.cpu, [1.0, 3.0, 5.0])


def make_state(dense, load=None, cpu=8.0):
    dense = np.asarray(dense, dtype=bool)
    sp = SparsePlacement.from_dense(dense)
    return ColumnarPodState(
        pod="p",
        servers=ColumnarServers.uniform(dense.shape[0], cpu, 64.0),
        app_mem_gb=np.full(dense.shape[1], 2.0),
        placement=sp,
        load=np.ones(sp.nnz) if load is None else np.asarray(load, float),
    )


def test_mem_headroom():
    state = make_state([[1, 1], [0, 1]])
    assert np.allclose(state.mem_headroom(), [60.0, 62.0])


def test_apply_diffs_entry_sets():
    state = make_state([[1, 1], [0, 1]])
    new = SparsePlacement.from_dense(np.array([[1, 0], [1, 1]], dtype=bool))
    sol = SparseSolution(
        placement=new, load=np.full(new.nnz, 2.0), changes=2
    )
    stats = state.apply(sol)
    assert stats == {
        "started": 1,
        "stopped": 1,
        "changes": 2,
        "vms": 3,
        "satisfied_cpu": 6.0,
    }
    assert same_placement(state.placement, new)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**16),
    old_density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    new_density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_apply_counts_equal_key_set_difference(
    shape, seed, old_density, new_density
):
    """Starts/stops derived from ``solution.changes`` and the entry
    counts equal the key-set difference, over random CSR pairs
    (density 0 gives an empty current or an empty solution)."""
    rng = np.random.default_rng(seed)
    state = make_state(rng.random(shape) < old_density)
    new = SparsePlacement.from_dense(rng.random(shape) < new_density)
    old_keys = set(placement_keys(state.placement).tolist())
    new_keys = set(placement_keys(new).tolist())
    sol = SparseSolution(
        placement=new,
        load=np.zeros(new.nnz),
        changes=sparse_count_changes(state.placement, new),
    )
    stats = state.apply(sol)
    assert stats["started"] == len(new_keys - old_keys)
    assert stats["stopped"] == len(old_keys - new_keys)


def test_apply_rejects_changes_from_another_current():
    state = make_state([[1, 1], [0, 1]])
    new = SparsePlacement.from_dense(np.array([[1, 0], [1, 1]], dtype=bool))
    with pytest.raises(ValueError):
        state.apply(SparseSolution(placement=new, load=np.ones(3), changes=1))


def test_noop_solve_adopts_the_current_placement():
    """A servable problem with no idle entry changes nothing: the bulk
    solve hands back the current placement object itself, apply counts
    no starts or stops and copies the loads into the pod's own buffer,
    and later fault surgery on the pod replaces its arrays instead of
    writing through the solution's."""
    dense = np.array(
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], dtype=bool
    )
    state = make_state(dense)
    problem = state.build_problem(np.array([1.0, 2.0, 3.0, 1.5]))
    sol = SparseGreedyController(dense_limit=1).solve(problem)
    assert sol.placement is problem.current
    assert sol.changes == 0
    assert (sol.load > 1e-12).all()
    sol.validate(problem)
    before = (
        sol.placement.indptr.copy(),
        sol.placement.indices.copy(),
        sol.load.copy(),
    )
    buffer = state.load
    stats = state.apply(sol)
    assert stats["started"] == stats["stopped"] == 0
    assert stats["vms"] == dense.sum()
    assert state.placement is sol.placement
    assert state.load is buffer and state.load is not sol.load
    assert state.load.tobytes() == sol.load.tobytes()
    assert state.remove_server(1) == 2
    assert state.clear_placement() == 6
    after = (sol.placement.indptr, sol.placement.indices, sol.load)
    assert all(np.array_equal(b, a) for b, a in zip(before, after))
    assert sol.placement.shape == dense.shape


def test_apply_refuses_a_misaligned_load_for_the_current_placement():
    state = make_state([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="load"):
        state.apply(SparseSolution(placement=state.placement, load=np.ones(1)))
    assert state.load.shape == (3,)


def test_build_problem_reuses_columns():
    state = make_state([[1, 0], [0, 1]])
    demand = np.array([1.0, 2.0])
    prob = state.build_problem(demand)
    assert prob.current is state.placement
    assert prob.server_cpu is state.servers.cpu
    assert np.array_equal(prob.app_cpu_demand, demand)


def test_post_init_validation():
    sp = SparsePlacement.from_dense(np.eye(2, dtype=bool))
    kw = dict(pod="p", placement=sp)
    state = ColumnarPodState(
        servers=ColumnarServers.uniform(2, 1.0, 1.0),
        app_mem_gb=np.ones(2),
        load=np.ones(2),
        **kw,
    )
    assert state.n_apps == 2  # the column count is the placement's
    with pytest.raises(ValueError, match="one value per placement column"):
        ColumnarPodState(
            servers=ColumnarServers.uniform(2, 1.0, 1.0),
            app_mem_gb=np.ones(3),  # three values for two columns
            load=np.ones(2),
            **kw,
        )
    with pytest.raises(ValueError, match="server rows"):
        ColumnarPodState(
            servers=ColumnarServers.uniform(3, 1.0, 1.0),  # 3 servers, 2 rows
            app_mem_gb=np.ones(2),
            load=np.ones(2),
            **kw,
        )
    with pytest.raises(ValueError, match="one value per placement entry"):
        ColumnarPodState(
            servers=ColumnarServers.uniform(2, 1.0, 1.0),
            app_mem_gb=np.ones(2),
            load=np.ones(5),  # wrong entry count
            **kw,
        )


# -- fault row surgery ------------------------------------------------------
def test_clear_placement_loses_all_vms_keeps_capacity():
    state = make_state([[1, 0], [0, 1]], load=[2.0, 3.0])
    assert state.clear_placement() == 2
    assert state.n_vms == 0 and state.load.size == 0
    assert state.placement.shape == (2, 2)
    assert state.servers.cpu.shape == (2,)
    assert state.clear_placement() == 0  # idempotent


def test_remove_server_drops_row_and_load():
    state = make_state([[1, 1], [0, 1], [1, 0]], load=[1.0, 2.0, 3.0, 4.0])
    lost = state.remove_server(1)
    assert lost == 1
    assert state.placement.shape == (2, 2)
    assert state.servers.name(0) == "s000000"
    assert state.servers.name(1) == "s000002"
    assert np.array_equal(state.load, [1.0, 2.0, 4.0])
    assert (state.mem_headroom() >= 0).all()


def test_insert_server_restores_sorted_position():
    state = make_state([[1, 0], [0, 1], [1, 1]])
    cpu, mem = float(state.servers.cpu[1]), float(state.servers.mem_gb[1])
    state.remove_server(1)
    state.insert_server(1, cpu, mem)
    assert state.placement.shape[0] == 3
    assert [state.servers.name(i) for i in range(3)] == [
        "s000000", "s000001", "s000002",
    ]
    assert state.servers.row_of(1) == 1
    # The restored row is empty.
    assert state.placement.indptr[2] - state.placement.indptr[1] == 0
    with pytest.raises(ValueError):
        state.insert_server(1, cpu, mem)  # already present


def test_remove_unknown_server_raises():
    state = make_state([[1]])
    with pytest.raises(KeyError):
        state.remove_server(7)


# -- the columnar RIP registry ---------------------------------------------
def make_registry():
    from repro.core import ColumnarRipRegistry

    reg = ColumnarRipRegistry()
    for app, pod in (("a", "pod-0"), ("a", "pod-1"), ("b", "pod-0")):
        reg.wire(f"{app}@{pod}", app, f"vip-{app}", "lb-0", pod)
    return reg


def test_registry_wire_and_homing():
    reg = make_registry()
    assert reg.n_active == 3
    assert reg.homing("a@pod-1") == ("a", "vip-a", "lb-0", "pod-1", 1.0)
    assert reg.homing("b@pod-0") == ("b", "vip-b", "lb-0", "pod-0", 1.0)
    assert reg.homing("c@pod-0") is None


def test_registry_ids_stable_across_rewire():
    reg = make_registry()
    rid = reg.rips.get("a@pod-0")
    n = reg.n_rips
    assert reg.unwire("a@pod-0")
    assert reg.n_active == 2
    assert reg.homing("a@pod-0") is None
    # Re-wiring reuses the same row: ids are stable, no growth.
    assert reg.wire("a@pod-0", "a", "vip-a", "lb-1", "pod-0", 0.5) == rid
    assert reg.n_rips == n
    assert reg.homing("a@pod-0") == ("a", "vip-a", "lb-1", "pod-0", 0.5)


def test_registry_switch_guard():
    reg = make_registry()
    # A stale op naming the wrong home switch must not apply.
    assert not reg.unwire("a@pod-0", switch="lb-9")
    assert reg.homing("a@pod-0") is not None
    assert reg.rehome_vip("vip-a", "lb-9", "lb-2") == 0
    assert reg.rehome_vip("vip-a", "lb-0", "lb-2") == 2
    assert reg.homing("a@pod-1")[2] == "lb-2"


def test_registry_fingerprint_is_name_canonical():
    from repro.core import ColumnarRipRegistry

    reg = make_registry()
    # Same homing built in a different insertion order: ids differ but
    # the name-canonical fingerprint agrees.
    other = ColumnarRipRegistry()
    for app, pod in (("b", "pod-0"), ("a", "pod-1"), ("a", "pod-0")):
        other.wire(f"{app}@{pod}", app, f"vip-{app}", "lb-0", pod)
    assert reg.fingerprint() == other.fingerprint()
    other.wire("b@pod-0", "b", "vip-b", "lb-0", "pod-0", 2.0)
    assert reg.fingerprint() != other.fingerprint()


def row_by_row_fingerprint(reg):
    """The fingerprint as one CRC call per canonical row, chained."""
    import zlib

    h = zlib.crc32(b"riprows:v1")
    active = np.flatnonzero(reg.rip_active[: reg.n_rips])
    for rip in sorted(reg.rips.name(int(r)) for r in active):
        app, vip, switch, pod, weight = reg.homing(rip)
        line = f"{rip}|{app}|{vip}|{switch}|{pod}|{weight:.9g}\n"
        h = zlib.crc32(line.encode(), h)
    return h


_REGISTRY_OPS = st.lists(
    st.tuples(
        st.sampled_from(["wire", "unwire", "rehome_vip"]),
        st.integers(0, 6),  # rip (6 has no pod)
        st.integers(0, 2),  # vip
        st.integers(0, 2),  # switch
        st.sampled_from([0.5, 1.0, 1 / 3, 2.5e-10]),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(ops=_REGISTRY_OPS)
def test_registry_fingerprint_equals_the_row_by_row_crc(ops):
    from repro.core import ColumnarRipRegistry

    reg = ColumnarRipRegistry()
    assert reg.fingerprint() == row_by_row_fingerprint(reg)
    for op, r, v, w, weight in ops:
        rip, vip, switch = f"app-{r % 3}@pod-{r}", f"vip-{v}", f"lb-{w}"
        if op == "wire":
            pod = f"pod-{r}" if r < 6 else None
            reg.wire(rip, f"app-{r % 3}", vip, switch, pod, weight)
        elif op == "unwire":
            reg.unwire(rip, switch if w else None)
        else:
            reg.rehome_vip(vip, None if w == 0 else switch, f"lb-{(w + 1) % 3}")
        assert reg.fingerprint() == row_by_row_fingerprint(reg)


def test_registry_from_authority_round_trip():
    from repro.core import ColumnarRipRegistry

    reg = make_registry()
    reg.unwire("b@pod-0")
    homing = {
        rip: reg.homing(rip)[:3] + (reg.homing(rip)[4],)
        for rip in ("a@pod-0", "a@pod-1")
    }
    rebuilt = ColumnarRipRegistry.from_authority(
        homing, lambda rip: rip.partition("@")[2] or None
    )
    assert rebuilt.fingerprint() == reg.fingerprint()
    assert rebuilt.n_active == reg.n_active == 2
    for rip in ("a@pod-0", "a@pod-1", "b@pod-0"):
        assert rebuilt.homing(rip) == reg.homing(rip)


def test_sparse_row_surgery_primitives():
    sp = SparsePlacement.from_dense(
        np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1]], dtype=bool)
    )
    dropped, kept = sp.drop_row(1)
    assert dropped.shape == (2, 3)
    assert np.array_equal(kept, [True, True, False, True, True, True])
    grown = dropped.insert_empty_row(1)
    assert grown.shape == (3, 3)
    assert np.array_equal(
        grown.to_dense(),
        np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=bool),
    )
    empty = SparsePlacement.empty((2, 4))
    assert empty.shape == (2, 4) and empty.nnz == 0
