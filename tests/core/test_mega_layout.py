"""Mega pod layout: membership by residue class, 12 bytes per VM.

The driver stores no per-app membership: pod *p*'s local columns are the
apps of its ``cover`` residue classes mod ``n_pods`` in ascending global
id, per-app vectors reach a pod through one residue-column gather, and
alive-cover counts are kept per residue.  These tests hold that layout
to the per-app arithmetic definition, ``_pod_app_gids``, on configs
whose app count is and is not a multiple of the pod count.
"""

import numpy as np
import pytest

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


@pytest.mark.parametrize("cfg", _CONFIGS[1:5], ids=_ids)
def test_residue_alive_cover_matches_per_app_recount(cfg):
    """Pod loss and restore keep the per-residue alive cover equal to a
    per-app recount, and the spilled pod demand divides by it."""
    lost = [0, 1, 2] if cfg.n_pods > 3 else [0]
    with MegaScaleDriver(cfg) as driver:
        driver.run_epoch()
        residue = np.arange(cfg.n_apps) % cfg.n_pods
        for step in [("lose", p) for p in lost] + [("restore", lost[1])]:
            if step[0] == "lose":
                driver.lose_pod(f"pod-{step[1]:03d}")
            else:
                driver.restore_pod(f"pod-{step[1]:03d}")
            count = _per_app_cover(driver)
            np.testing.assert_array_equal(
                driver._residue_alive_cover[residue], count
            )
            dropped = driver._scatter_demand(60.0, 1)
            demand = driver._demand
            assert dropped == pytest.approx(
                float(demand[count == 0].sum()), rel=1e-12, abs=0.0
            )
            for p in np.flatnonzero(driver.pod_alive):
                gids = driver._pod_app_gids(int(p))
                got = driver._pod_demand(int(p), all_alive=False)
                assert got.tobytes() == (demand[gids] / count[gids]).tobytes()


def _arrays(obj, prefix: str = "") -> dict:
    """Every ndarray attribute of *obj*, by prefixed name."""
    names = getattr(obj, "__slots__", None) or vars(obj)
    return {
        prefix + k: getattr(obj, k)
        for k in names
        if isinstance(getattr(obj, k), np.ndarray)
    }


def test_quick_pods_hold_twelve_bytes_per_vm():
    """A quick-scale mega pod holds an int32 column and a float64 load
    per VM and O(servers) besides: no array with one entry per app
    except the zero-stride ``app_mem_gb`` view."""
    with MegaScaleDriver(MegaConfig.quick()) as driver:
        driver.run_epoch()
        for pod in driver.pods:
            held = {
                **_arrays(pod),
                **_arrays(pod.servers, "servers."),
                **_arrays(pod.placement, "placement."),
            }
            assert held.pop("app_mem_gb").strides == (0,)
            assert set(held) == {
                "placement.indices", "placement.indptr", "load",
                "servers.cpu", "servers.mem_gb", "servers.ids",
            }
            assert held["placement.indices"].dtype == np.int32
            assert held["load"].dtype == np.float64
            s = pod.n_servers
            assert {a.size for a in held.values()} == {pod.n_vms, s, s + 1}
            assert pod.n_apps not in (s, s + 1)
            nbytes = sum(a.nbytes for a in held.values())
            assert nbytes == 12 * pod.n_vms + 8 * (s + 1) + 3 * 8 * s
