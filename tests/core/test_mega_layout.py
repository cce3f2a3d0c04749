"""Mega pod layout: membership by residue class, 12 bytes per VM.

The driver stores no per-app membership: pod *p*'s local columns are the
apps of its ``cover`` residue classes mod ``n_pods`` in ascending global
id, per-app vectors reach a pod through one residue-column gather, and
alive-cover counts are kept per residue.  These tests hold that layout
to the per-app arithmetic definition, ``_pod_app_gids``, on configs
whose app count is and is not a multiple of the pod count, and the
fleet-wide demand split (``_share``) to a per-app alive recount.

The pods' long-lived state is also allocation-stable: a steady epoch
writes loads into each pod's existing buffer, uniform server columns
are zero-stride views and every pod shares one read-only id column.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.columnar import ColumnarPodState

from repro.core.mega import MegaConfig, MegaScaleDriver

_CONFIGS = [
    MegaConfig.quick(),
    MegaConfig.tiny(),
    MegaConfig.tiny(n_apps=61),  # n_apps % n_pods != 0: a tail block
    MegaConfig.tiny(vms_per_app=4),  # cover == n_pods
    MegaConfig.tiny(n_apps=3),  # n_apps < n_pods: only a tail block
    MegaConfig.quick(n_apps=29_999, vms_per_app=7),
]


def _ids(cfg):
    return f"{cfg.n_apps}x{cfg.n_pods}x{cfg.cover}"


def _per_app_cover(driver) -> np.ndarray:
    """Alive covering pods per app, recounted from ``_pod_app_gids``."""
    count = np.zeros(driver.config.n_apps, dtype=np.int64)
    for p in np.flatnonzero(driver.pod_alive):
        count[driver._pod_app_gids(int(p))] += 1
    return count


@pytest.mark.parametrize("cfg", _CONFIGS, ids=_ids)
def test_residue_gather_equals_take_by_app_ids(cfg):
    """On every pod the residue gather returns ``vec[_pod_app_gids(p)]``
    value for value, in order, and its length is the pod's column count."""
    vec = np.random.default_rng(7).random(cfg.n_apps)
    with MegaScaleDriver(cfg) as driver:
        for p, pod in enumerate(driver.pods):
            got = driver._gather(vec, p)
            want = np.take(vec, driver._pod_app_gids(p))
            assert got.size == pod.n_apps
            assert got.tobytes() == want.tobytes()


#: Three pod losses and a restore; every config has at least four pods.
_FAULT_STEPS = [("lose", 0), ("lose", 1), ("lose", 2), ("restore", 1)]


def _step(driver, step: tuple[str, int]) -> None:
    name = f"pod-{step[1]:03d}"
    if step[0] == "lose":
        driver.lose_pod(name)
    else:
        driver.restore_pod(name)


@pytest.mark.parametrize("cfg", _CONFIGS[1:5], ids=_ids)
def test_residue_alive_cover_matches_per_app_recount(cfg):
    """Pod loss and restore keep the per-residue alive cover equal to a
    per-app recount, and each alive pod gathers its apps' demand divided
    by that recount."""
    with MegaScaleDriver(cfg) as driver:
        driver.run_epoch()
        residue = np.arange(cfg.n_apps) % cfg.n_pods
        for step in _FAULT_STEPS:
            _step(driver, step)
            count = _per_app_cover(driver)
            np.testing.assert_array_equal(
                driver._residue_alive_cover[residue], count
            )
            driver._scatter_demand(60.0, 1)
            demand = driver.workload.cpu_demand(60.0)
            for p in np.flatnonzero(driver.pod_alive):
                gids = driver._pod_app_gids(int(p))
                got = driver._gather(driver._share, int(p))
                assert got.tobytes() == (demand[gids] / count[gids]).tobytes()


@pytest.mark.parametrize("cfg", _CONFIGS, ids=_ids)
def test_share_is_demand_over_alive_recount(cfg):
    """The fleet-wide split writes each app's demand divided by its
    per-app alive recount, byte for byte, with every pod alive and
    through three pod losses and a restore.  An app with no alive
    covering pod keeps its demand unsplit, and that demand is the
    epoch's dropped CPU."""
    with MegaScaleDriver(cfg) as driver:
        for epoch, step in enumerate([None] + _FAULT_STEPS):
            if step is not None:
                _step(driver, step)
            t = epoch * cfg.epoch_s
            dropped = driver._scatter_demand(t, epoch)
            demand = driver.workload.cpu_demand(t)
            count = _per_app_cover(driver)
            want = demand.copy()
            split = count > 0
            want[split] = demand[split] / count[split]
            assert driver._share.tobytes() == want.tobytes()
            assert dropped == pytest.approx(
                float(demand[~split].sum()), rel=1e-12, abs=0.0
            )


def _arrays(obj, prefix: str = "") -> dict:
    """Every ndarray attribute of *obj*, by prefixed name."""
    names = getattr(obj, "__slots__", None) or vars(obj)
    return {
        prefix + k: getattr(obj, k)
        for k in names
        if isinstance(getattr(obj, k), np.ndarray)
    }


def _storage(a: np.ndarray) -> tuple[int, int]:
    """``(address, bytes)`` of the memory *a* reads: one item for a
    zero-stride view, else the whole (contiguous) array."""
    if a.strides == (0,):
        return a.ctypes.data, a.itemsize
    assert a.flags.c_contiguous
    return a.ctypes.data, a.nbytes


def test_quick_pods_hold_twelve_bytes_per_vm():
    """A quick-scale mega pod holds an int32 column and a float64 load
    per VM and O(servers) besides: no array with one entry per app, the
    capacity columns and ``app_mem_gb`` are zero-stride views of one
    float and the server ids are one array shared by every pod.
    Counting each distinct buffer once, the fleet holds exactly 12 bytes
    per VM, one ``indptr`` and three floats per pod, and one id column."""
    with MegaScaleDriver(MegaConfig.quick()) as driver:
        driver.run_epoch()
        buffers = {}
        for pod in driver.pods:
            held = {
                **_arrays(pod),
                **_arrays(pod.servers, "servers."),
                **_arrays(pod.placement, "placement."),
            }
            assert set(held) == {
                "placement.indices", "placement.indptr", "load",
                "app_mem_gb", "servers.cpu", "servers.mem_gb", "servers.ids",
            }
            for name in ("app_mem_gb", "servers.cpu", "servers.mem_gb"):
                assert held[name].strides == (0,), name
            assert held["placement.indices"].dtype == np.int32
            assert held["load"].dtype == np.float64
            s = pod.n_servers
            assert {a.size for k, a in held.items() if k != "app_mem_gb"} == {
                pod.n_vms, s, s + 1
            }
            assert pod.n_apps not in (s, s + 1)
            for a in held.values():
                addr, nbytes = _storage(a)
                assert buffers.setdefault(addr, nbytes) == nbytes
        s = driver.config.servers_per_pod
        n_pods = len(driver.pods)
        assert sum(buffers.values()) == (
            12 * driver.n_vms + n_pods * (8 * (s + 1) + 3 * 8) + 8 * s
        )


def test_steady_epoch_keeps_every_pod_buffer():
    """A quick-scale epoch that starts and stops nothing keeps every
    pod's placement object and writes its loads into the same buffer,
    so the epoch's net allocation is a few kilobytes, not one load
    array per pod."""
    with MegaScaleDriver(MegaConfig.quick()) as driver:
        driver.run_epoch()
        placements = [pod.placement for pod in driver.pods]
        buffers = [pod.load.ctypes.data for pod in driver.pods]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            report = driver.run_epoch()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.changes == 0
        for pod, placement, addr in zip(driver.pods, placements, buffers):
            assert pod.placement is placement
            assert pod.load.ctypes.data == addr
        assert after - before < 64 * 1024


def test_changed_pod_adopts_a_load_aligned_to_its_new_placement():
    """Under pressure the solver starts VMs: a pod whose placement
    changed takes the solution's placement and a load with one entry per
    new entry, equal to the solution's; an unchanged pod keeps its
    buffer and holds the solution's loads byte for byte."""
    cfg = MegaConfig.quick(target_utilization=0.8, epoch_s=3600)
    with MegaScaleDriver(cfg) as driver:
        driver.run(2)
        solved = {}
        for p, ctl in enumerate(driver.controllers):
            def solve(problem, p=p, inner=ctl.solve):
                solved[p] = inner(problem)
                return solved[p]
            ctl.solve = solve
        before = [(pod.placement, pod.load.ctypes.data) for pod in driver.pods]
        report = driver.run_epoch()
        assert report.changes > 0
        changed = 0
        for p, pod in enumerate(driver.pods):
            sol = solved[p]
            assert pod.placement is sol.placement
            assert pod.load.shape == (pod.placement.nnz,)
            assert pod.load.tobytes() == sol.load.tobytes()
            placement, addr = before[p]
            if sol.placement is placement:
                assert pod.load.ctypes.data == addr
            else:
                changed += 1
                assert sol.changes > 0
        assert changed > 0


def test_server_columns_are_shared_and_private_after_surgery():
    """After bootstrap every pod's capacity columns are zero-stride and
    all pods share one read-only id column; crashing a server out of
    one pod and bringing it back gives that pod private columns and
    leaves every other pod's ids untouched."""
    with MegaScaleDriver(MegaConfig.tiny()) as driver:
        shared = driver.pods[0].servers.ids
        assert not shared.flags.writeable
        for pod in driver.pods:
            assert pod.servers.cpu.strides == (0,)
            assert pod.servers.mem_gb.strides == (0,)
            assert pod.servers.ids is shared
        ids0 = shared.copy()
        pod = driver.pods[1]
        name = pod.servers.name(3)
        driver.crash_server(name)
        assert pod.servers.ids is not shared
        assert 3 not in pod.servers.ids
        assert pod.servers.cpu.strides == (8,)
        driver.recover_server(name)
        np.testing.assert_array_equal(pod.servers.ids, ids0)
        assert pod.servers.ids.flags.writeable
        np.testing.assert_array_equal(shared, ids0)
        for other in driver.pods[:1] + driver.pods[2:]:
            assert other.servers.ids is shared


def _general_headroom(pod) -> np.ndarray:
    """``mem_headroom`` through the per-entry path: the same pod with a
    contiguous (per-app) ``app_mem_gb``."""
    twin = ColumnarPodState(
        pod=pod.pod,
        servers=pod.servers,
        app_mem_gb=np.array(pod.app_mem_gb),
        placement=pod.placement,
        load=pod.load,
    )
    assert twin.app_mem_gb.strides == (8,)
    return twin.mem_headroom()


@pytest.mark.parametrize(
    "cfg", [MegaConfig.quick(), MegaConfig.full()], ids=["quick", "full"]
)
def test_uniform_mem_headroom_equals_the_per_entry_sum(cfg):
    """With one VM size the O(servers) headroom (entries per server
    times the size) is byte-equal to the per-entry sum at the default
    4 GB: every partial sum is an exact multiple of a power of two."""
    with MegaScaleDriver(cfg) as driver:
        for pod in driver.pods:
            assert pod.app_mem_gb.strides == (0,)
            got = pod.mem_headroom()
            assert got.tobytes() == _general_headroom(pod).tobytes()


def test_uniform_mem_headroom_at_a_non_dyadic_size():
    """At 0.3 GB a repeated sum and a product round differently; the
    two paths agree to 1e-9 relative."""
    with MegaScaleDriver(MegaConfig.quick(vm_mem_gb=0.3)) as driver:
        for pod in driver.pods[:5]:
            np.testing.assert_allclose(
                pod.mem_headroom(), _general_headroom(pod), rtol=1e-9, atol=0
            )
