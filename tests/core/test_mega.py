"""Mega-scale driver: determinism, demand split, memory shape.

Tiny configs keep per-pod ``S x A`` under the dense-delegation limit so
these tests exercise the exact bit-identical path; the quick/full scales
(bulk sparse path) are covered by the ``repro mega`` bench lane and CI's
mega-smoke job.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import MegaConfig, MegaControlPlaneConfig, MegaScaleDriver
from repro.core.mega import VM_MEM_GB
from repro.placement.sparse import SparseGreedyController, SparsePlacement
from tests.placement.sparse_ref import same_placement


def tiny(**over):
    return MegaConfig.tiny(**over)


# ------------------------------------------------------------- config


def test_config_arithmetic():
    cfg = MegaConfig.full()
    assert cfg.n_servers == 300_000
    assert cfg.cover == 20
    assert cfg.total_cpu_demand == pytest.approx(
        0.55 * 300_000 * 32.0
    )


def test_config_validation():
    with pytest.raises(ValueError):
        MegaConfig(n_pods=0)
    with pytest.raises(ValueError):
        MegaConfig(target_utilization=1.5)
    with pytest.raises(ValueError):
        MegaConfig(vms_per_app=0)
    for epoch_s in (0.0, -60.0):
        with pytest.raises(ValueError, match="epoch_s"):
            MegaConfig(epoch_s=epoch_s)
    with pytest.raises(ValueError, match="chunk_apps"):
        MegaConfig(chunk_apps=0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="vips_per_app"):
            MegaControlPlaneConfig(vips_per_app=n)


def test_vip_pool_is_sized_for_every_wired_vip():
    # 600 apps x 3 VIPs = 1,800 VIPs: more than the old pool's
    # max(1000, 2 per app) = 1,200, well inside 4 switches x 1,000 slots.
    cfg = tiny(n_apps=600, servers_per_pod=60)
    cp = MegaControlPlaneConfig(wired_apps=600, vips_per_app=3, max_vips=1000)
    with MegaScaleDriver(cfg, control_plane=cp) as driver:
        plane = driver.control_plane
        assert plane.errored == 0 and plane.rejected == 0
        apps = [driver._app_name(g) for g in range(600)]
        assert sum(len(plane.vips_of(app)) for app in apps) == 1800
        assert len(plane.rip_index) == 600 * cfg.cover


def test_wiring_error_names_the_exhausted_pool(monkeypatch):
    import repro.lbswitch.addresses as addresses

    def five_addresses(size):
        return addresses.AddressPool("203.0.0.0", 5, label="vip")

    monkeypatch.setattr(addresses, "PUBLIC_VIP_POOL", five_addresses)
    cp = MegaControlPlaneConfig(wired_apps=8)
    with pytest.raises(ValueError, match="address pool 'vip' exhausted") as err:
        MegaScaleDriver(tiny(), control_plane=cp)
    assert "3 errored" in str(err.value)
    assert "max_vips" not in str(err.value)


def test_quick_still_uses_bulk_sparse_path():
    cfg = MegaConfig.quick()
    # Per-pod S x A above the dense limit: quick really smokes the
    # O(nnz) path, not the small-scale delegation.
    per_pod_apps = cfg.n_apps * cfg.cover // cfg.n_pods
    dense_limit = SparseGreedyController().dense_limit
    assert cfg.servers_per_pod * per_pod_apps > dense_limit


# ------------------------------------------------------------ bootstrap


def test_bootstrap_covers_every_app_and_fits_memory():
    with MegaScaleDriver(tiny()) as driver:
        covered = np.zeros(driver.config.n_apps, dtype=int)
        for p, pod in enumerate(driver.pods):
            assert (pod.mem_headroom() >= 0).all()
            counts = pod.placement.instance_counts()
            assert (counts >= 1).all()  # every covered app has an instance
            covered[driver._pod_app_gids(p)] += 1
        # The arithmetic cover rule: each app appears in exactly `cover` pods.
        assert (covered == driver.config.cover).all()


def test_pod_app_gids_partition_is_balanced():
    with MegaScaleDriver(tiny()) as driver:
        sizes = {p.n_apps for p in driver.pods}
        assert max(sizes) - min(sizes) <= 1


_RAGGED = [
    tiny(n_apps=61),  # n_apps % n_pods != 0
    tiny(vms_per_app=4),  # cover == n_pods
    tiny(vms_per_app=9, n_apps=37),  # cover clipped to n_pods
    tiny(n_apps=3),  # n_apps < n_pods
    MegaConfig.quick(n_apps=29_999, vms_per_app=7),
]


@pytest.mark.parametrize("cfg", _RAGGED, ids=lambda c: f"{c.n_apps}x{c.cover}")
def test_pod_app_gids_match_modular_predicate(cfg):
    """The residue-class enumeration returns exactly the apps the cover
    rule assigns, sorted, as a compact array of its own."""
    n = cfg.n_pods
    residues = [[r for r in range(n) if (p - r) % n < cfg.cover] for p in range(n)]
    driver = SimpleNamespace(config=cfg, _residues=np.asarray(residues))
    gids = np.arange(cfg.n_apps, dtype=np.int64)
    for p in range(cfg.n_pods):
        got = MegaScaleDriver._pod_app_gids(driver, p)
        want = gids[((p - gids) % cfg.n_pods) < cfg.cover]
        assert got.dtype == np.int64 and got.base is None
        np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(
    s_count=st.integers(1, 9),
    n_inst=st.lists(st.integers(1, 9), max_size=15),
)
@example(s_count=7, n_inst=[1, 2])  # total < S
@example(s_count=4, n_inst=[3, 4, 2])  # total % S != 0
@example(s_count=3, n_inst=[])
def test_round_robin_csr_matches_sorted_entries(s_count, n_inst):
    """The sort-free bootstrap CSR equals sorting the round-robin entry
    list: flat entry k on server k % S.  The counts come as floats, as
    the bootstrap computes them, and the columns land in the given
    buffer."""
    n_inst = np.minimum(np.asarray(n_inst, dtype=np.int64), s_count)
    cols = np.repeat(np.arange(n_inst.size, dtype=np.int64), n_inst)
    rows = np.arange(cols.size, dtype=np.int64) % s_count
    want, _ = SparsePlacement.from_entries((s_count, n_inst.size), rows, cols)
    indices = np.empty(cols.size, dtype=np.int32)
    got = MegaScaleDriver._round_robin(
        s_count, n_inst.size, n_inst.astype(float), indices
    )
    assert got.indices is indices
    got._validate()
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.indptr.dtype == np.int64 and got.indices.dtype == np.int32


# ----------------------------------------------------------- epoch loop


def test_run_is_deterministic_across_drivers():
    with MegaScaleDriver(tiny()) as a, MegaScaleDriver(tiny()) as b:
        ra = a.run(3)
        rb = b.run(3)
    assert len(a.pods) == len(b.pods)
    for pa, pb in zip(a.pods, b.pods):
        assert same_placement(pa.placement, pb.placement)
        assert pa.load.tobytes() == pb.load.tobytes()
    for x, y in zip(ra, rb):
        assert x.satisfied_cpu == y.satisfied_cpu
        assert x.changes == y.changes
        assert x.demand_cpu == y.demand_cpu


def test_reports_are_sane():
    with MegaScaleDriver(tiny()) as driver:
        reports = driver.run(2)
    for r in reports:
        assert r.vms == driver.n_vms
        assert 0.0 < r.satisfied_fraction <= 1.0 + 1e-9
        assert r.peak_rss_mb > 0
        assert r.wall_s >= 0
    # Chunked demand fingerprint was verified against the whole vector.
    assert driver.demand_fingerprint is not None


def test_trace_events_emitted():
    from repro.obs import TraceBus

    bus = TraceBus()
    with MegaScaleDriver(tiny(), trace=bus) as driver:
        driver.run(1)
    kinds = {e.kind for e in bus.events}
    assert "mega.chunk" in kinds
    assert "mega.epoch" in kinds


def test_demand_scatter_splits_across_cover():
    """Each pod gathers its apps' global demand / cover; the per-epoch
    total over the pods equals the workload total exactly."""
    with MegaScaleDriver(tiny()) as driver:
        assert driver._scatter_demand(0.0, 0) == 0.0
        demand = driver.workload.cpu_demand(0.0)
        total = 0.0
        for p in range(len(driver.pods)):
            got = driver._gather(driver._share, p)
            want = demand[driver._pod_app_gids(p)] / driver.config.cover
            assert got.tobytes() == want.tobytes()
            total += float(got.sum())
        assert total == pytest.approx(float(demand.sum()), rel=1e-12)


# ------------------------------------------------------- memory shape


def test_uniform_vm_memory_is_a_zero_stride_view():
    """Every VM has ``VM_MEM_GB``: each pod keeps one float as a view,
    not one float per app."""
    with MegaScaleDriver(tiny()) as driver:
        driver.run(1)
        for pod in driver.pods:
            assert pod.app_mem_gb.strides == (0,)
            assert pod.app_mem_gb.shape == (pod.n_apps,)
            assert (pod.app_mem_gb == VM_MEM_GB).all()


def test_epoch_working_set_is_one_pod():
    """Pods are built, solved and applied one at a time, so a steady
    quick-scale epoch allocates at most a small multiple of the largest
    pod's load array on top of the state it keeps, whatever the pod
    count.  Two epochs run under tracemalloc first, so one-off
    allocations are not counted."""
    with MegaScaleDriver(MegaConfig.quick(seed=0)) as driver:
        widest = max(pod.n_vms for pod in driver.pods) * 8
        tracemalloc.start()
        try:
            driver.run(2)
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            driver.run_epoch()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # The batch-at-once epoch allocated ~67x; one pod at a time ~7x.
    assert peak - before < 16 * widest
