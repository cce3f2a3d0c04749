"""Golden-trace regression: fixed-seed scenario runs must reproduce the
committed trace digests byte-for-byte.

A digest change means the sequence of control actions changed — either a
deliberate behavioural change (regenerate the goldens with
``python tests/obs/test_golden_traces.py``) or an accidental determinism
break (fix it).  The e01 case additionally asserts serial and parallel
engines agree, which is the cross-process determinism contract.
"""

import json
import pathlib

from repro.obs import Observability, TraceBus

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def run_e01(parallelism: int = 1) -> str:
    from repro.experiments import e01_architecture as e01

    obs = Observability(trace=TraceBus(keep_events=False))
    e01.run(
        n_apps=16, total_gbps=8.0, n_pods=2, servers_per_pod=8,
        n_switches=4, duration_s=600.0, seed=0, obs=obs, audit=True,
        parallelism=parallelism,
    )
    return obs.trace.digest


def run_e05() -> str:
    from repro.experiments.e05_vip_transfer import SwitchBalanceScenario

    obs = Observability(trace=TraceBus(keep_events=False))
    scenario = SwitchBalanceScenario(use_k2=True, seed=0, obs=obs)
    scenario.run(1800.0)
    return obs.trace.digest


def run_e14() -> str:
    from repro.experiments import e14_control_plane as e14

    obs = Observability(trace=TraceBus(keep_events=False))
    e14.run(
        seed=42, duration_s=1500.0, checkpoint_intervals=(240.0,),
        obs=obs, audit=True,
    )
    return obs.trace.digest


def run_e15(workers: int = 1) -> str:
    from repro.experiments.e15_parallel_scaling import trace_digest

    return trace_digest(workers, n_pods=4, pod_size=20, epochs=3, seed=0)


def run_mega() -> str:
    from repro.core.mega import (
        MegaConfig,
        MegaControlPlaneConfig,
        MegaScaleDriver,
    )
    from repro.faults.mega import MegaFaultInjector
    from repro.faults.schedule import FaultSchedule
    from repro.obs.audit import InvariantAuditor

    trace = TraceBus(keep_events=False)
    cfg = MegaConfig.tiny(seed=3)
    with MegaScaleDriver(
        cfg, trace=trace,
        control_plane=MegaControlPlaneConfig(wired_apps=8),
    ) as driver:
        InvariantAuditor(columnar=driver, strict=True).attach(trace)
        schedule = FaultSchedule.from_events(
            [
                (60.0, "pod_loss", "pod-001"),
                (120.0, "server_crash", "pod-000-s000003"),
                (180.0, "pod_restore", "pod-001"),
                (240.0, "server_recover", "pod-000-s000003"),
            ]
        )
        MegaFaultInjector(driver, schedule)
        for _ in range(6):
            driver.run_epoch()
    return trace.digest


def test_e01_golden_digest_serial_and_parallel():
    serial = run_e01(parallelism=1)
    parallel = run_e01(parallelism=2)
    assert serial == parallel, "serial and parallel engines diverged"
    assert serial == GOLDEN["e01_small_seed0"]


def test_e05_golden_digest():
    assert run_e05() == GOLDEN["e05_balance_seed0"]


def test_e14_golden_digest():
    assert run_e14() == GOLDEN["e14_ckpt240_seed42"]


def test_mega_fault_loop_golden_digest():
    """The unified mega epoch loop — columnar pods, sharded control
    plane, streaming demand, fault injection — must match the committed
    digest."""
    assert run_mega() == GOLDEN["e18_mega_faults_seed3"]


def test_e15_golden_digest_across_parallelism():
    """The engine's trace — dispatched task keys and merge CRCs — must
    be byte-identical at every worker count, and match the committed
    digest."""
    digests = {workers: run_e15(workers) for workers in (1, 2, 4)}
    assert digests[1] == digests[2] == digests[4], digests
    assert digests[1] == GOLDEN["e15_pods4_seed0"]


if __name__ == "__main__":  # regenerate the goldens
    fresh = {
        "e01_small_seed0": run_e01(),
        "e05_balance_seed0": run_e05(),
        "e14_ckpt240_seed42": run_e14(),
        "e15_pods4_seed0": run_e15(),
        "e18_mega_faults_seed3": run_mega(),
    }
    GOLDEN_PATH.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    print(json.dumps(fresh, indent=2, sort_keys=True))
