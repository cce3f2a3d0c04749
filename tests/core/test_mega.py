"""Mega-scale driver: determinism, parallel parity, memory.

Tiny configs keep per-pod ``S x A`` under the dense-delegation limit so
these tests exercise the exact bit-identical path; the quick/full scales
(bulk sparse path) are covered by the ``repro mega`` bench lane and CI's
mega-smoke job.
"""

import numpy as np
import pytest

from repro.core import MegaConfig, MegaScaleDriver


def tiny(**over):
    return MegaConfig.tiny(**over)


def pod_signature(driver):
    return [
        (p.placement.tobytes(), p.load.tobytes()) for p in driver.pods
    ]


# ------------------------------------------------------------- config


def test_config_arithmetic():
    cfg = MegaConfig.full()
    assert cfg.n_servers == 300_000
    assert cfg.cover == 20
    assert cfg.n_vms_nominal == 6_000_000
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


def test_quick_still_uses_bulk_sparse_path():
    cfg = MegaConfig.quick()
    # Per-pod S x A above the dense limit: quick really smokes the
    # O(nnz) path, not the small-scale delegation.
    per_pod_apps = cfg.n_apps * cfg.cover // cfg.n_pods
    assert cfg.servers_per_pod * per_pod_apps > cfg.dense_limit


# ------------------------------------------------------------ bootstrap


def test_bootstrap_covers_every_app_and_fits_memory():
    with MegaScaleDriver(tiny()) as driver:
        covered = np.zeros(driver.config.n_apps, dtype=int)
        for pod in driver.pods:
            assert (pod.mem_headroom() >= 0).all()
            counts = pod.placement.instance_counts()
            assert (counts >= 1).all()  # every covered app has an instance
            covered[pod.app_gids] += 1
        # The arithmetic cover rule: each app appears in exactly `cover` pods.
        assert (covered == driver.config.cover).all()


def test_pod_app_gids_partition_is_balanced():
    with MegaScaleDriver(tiny()) as driver:
        sizes = {p.n_apps for p in driver.pods}
        assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------- epoch loop


def test_run_is_deterministic_across_drivers():
    with MegaScaleDriver(tiny()) as a, MegaScaleDriver(tiny()) as b:
        ra = a.run(3)
        rb = b.run(3)
    assert pod_signature(a) == pod_signature(b)
    for x, y in zip(ra, rb):
        assert x.satisfied_cpu == y.satisfied_cpu
        assert x.changes == y.changes
        assert x.demand_cpu == y.demand_cpu


def test_parallel_engine_matches_serial():
    with MegaScaleDriver(tiny()) as serial:
        serial.run(2)
        sig_serial = pod_signature(serial)
    with MegaScaleDriver(tiny(parallelism=2)) as parallel:
        parallel.run(2)
        sig_parallel = pod_signature(parallel)
    assert sig_serial == sig_parallel


def test_reports_are_sane():
    with MegaScaleDriver(tiny()) as driver:
        reports = driver.run(2)
    for r in reports:
        assert r.vms == driver.n_vms
        assert 0.0 < r.satisfied_fraction <= 1.0 + 1e-9
        assert r.peak_rss_mb > 0
        assert r.wall_s >= 0
    # Chunked demand fingerprint was verified against materialized.
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
    """Each pod's local demand is the app's global demand / cover; the
    per-epoch total equals the workload total exactly."""
    with MegaScaleDriver(tiny()) as driver:
        driver._scatter_demand(0.0, 0)
        total = sum(float(b.sum()) for b in driver._demand_buffers)
        expect = float(driver.workload.cpu_demand(0.0).sum())
        assert total == pytest.approx(expect, rel=1e-12)
