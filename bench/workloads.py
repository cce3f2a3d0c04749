"""The four benchmark workloads of the mega loop.

Every workload runs the same closed loop — one ``MegaScaleDriver``, one
epoch in flight, epoch *k+1* starting when ``run_epoch()`` for epoch *k*
returns.  The workloads differ in scale and in which layers are wired:

* ``fleet_steady`` — the paper's full 300k-server fleet at 60 s epochs,
  placement only; demand barely drifts, so per-epoch O(nnz) placement
  overhead dominates.
* ``fleet_pressure`` — quick scale, 80% utilisation, hourly epochs,
  placement only; the greedy solver really starts and stops instances.
* ``steer_heavy`` — quick scale with the control plane and 1M requests
  per epoch; the data plane's accept path dominates.
* ``faults_overload`` — the same wiring with switch capacity below the
  offered sessions and random pod/server faults: the reject, drop and
  journal record paths run.

The two fleet workloads wire no control plane, data plane or fault
injector, so a change to those layers must read as no change there; their
per-layer metrics read 0 with 0 calls.

The number of timed epochs is a function of the run length only
(``seconds / nominal_epoch_s``), never of wall time, so two runs with the
same arguments do identical work and produce identical outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    #: Untimed epochs before measurement starts.
    warm: int
    #: Epoch wall time on a 2-core x86 box, used only to turn the run
    #: length into a fixed epoch count.
    nominal_epoch_s: float
    #: Constructions timed for ``setup_s``; the last one is kept and run.
    #: On a shared box single constructions spike by up to 2x over a
    #: stable floor, so the median needs about ten of them where they
    #: are cheap.
    setup_repeats: int
    #: ``(seed, smoke) -> (MegaConfig, MegaControlPlaneConfig | None,
    #: MegaSteeringConfig | None)``.
    configs: Callable
    #: ``(driver, seed, horizon_s) -> FaultSchedule``, or None for a
    #: workload without a fault injector.
    faults: Optional[Callable] = None

    def timed_epochs(self, seconds: float) -> int:
        return max(3, round(seconds / self.nominal_epoch_s))


def _random_faults(driver, seed: int, horizon_s: float):
    """Pod loss on every pod (MTBF 1 h) plus crashes of every 300th
    server (MTBF 20 min), both repaired after ~2 min on average."""
    from repro.faults.schedule import FaultSchedule

    pods = [pod.pod for pod in driver.pods]
    servers = [
        pod.servers.name(i) for pod in driver.pods for i in range(pod.n_servers)
    ][::300]
    a = FaultSchedule.random(seed, horizon_s, pods=pods, mtbf_s=3600, mttr_s=120)
    b = FaultSchedule.random(
        seed + 1, horizon_s, servers=servers, mtbf_s=1200, mttr_s=120
    )
    return FaultSchedule(a.events + b.events)


def _wiring(seed: int, requests: int, **steer):
    """The control plane and data plane of the steering workloads."""
    from repro.core.mega import MegaControlPlaneConfig, MegaSteeringConfig

    return (
        MegaControlPlaneConfig(wired_apps=128, vips_per_app=2),
        MegaSteeringConfig(
            requests_per_epoch=requests, knob_period=2, seed=seed, **steer
        ),
    )


def _fleet_steady(seed: int, smoke: bool):
    from repro.core.mega import MegaConfig

    make = MegaConfig.quick if smoke else MegaConfig.full
    return make(seed=seed), None, None


def _fleet_pressure(seed: int, smoke: bool):
    from repro.core.mega import MegaConfig

    cfg = MegaConfig.quick(seed=seed, target_utilization=0.8, epoch_s=3600)
    return cfg, None, None


def _steer_heavy(seed: int, smoke: bool):
    from repro.core.mega import MegaConfig

    return (MegaConfig.quick(seed=seed), *_wiring(seed, 1_000_000))


def _faults_overload(seed: int, smoke: bool):
    from repro.core.mega import MegaConfig

    return (
        MegaConfig.quick(seed=seed),
        *_wiring(seed, 300_000, switch_max_connections=150_000),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fleet_steady", 2, 2.3, 5, _fleet_steady),
        Workload("fleet_pressure", 6, 0.6, 11, _fleet_pressure),
        Workload("steer_heavy", 3, 0.6, 11, _steer_heavy),
        Workload("faults_overload", 3, 0.33, 11, _faults_overload, _random_faults),
    )
}
