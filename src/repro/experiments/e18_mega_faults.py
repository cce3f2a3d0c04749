"""E18 — fault injection through the unified mega epoch loop.

E17 proved the paper's scale numbers; E18 proves the loop survives the
paper's failure model at that scale.  A scripted :class:`FaultSchedule`
loses whole pods and crashes individual servers mid-run, the
:class:`MegaFaultInjector` replays it against the columnar driver, and the
:class:`RecoveryMonitor` clocks the response: every failure is absorbed by
the next placement epoch, so MTTR is one epoch interval — the mega
analogue of the object model's reconciliation story.

The sharded VIP/RIP control plane is wired in, so each pod loss also
churns real ``del_rip``/``new_rip`` traffic whose journal records the
columnar RIP mirror replays (the ``rip_records`` column); the run ends by
CRC-verifying the mirror against the control-plane authority.  An
:class:`InvariantAuditor` rides the trace bus and checks the K3 vacate
witness of every fault online.

E18 is the :func:`~repro.experiments.e17_mega_scale.mega_run` harness with
the control plane wired and a fault schedule installed; its ``rows`` are
the driver's :class:`~repro.core.mega.MegaEpochReport` records.

At quick/full scale each app covers ``cover=20`` pods, so the default two
pod losses spill demand to survivors without black-holing anything —
``dropped_gb`` stays 0 and MTTR is the headline metric.  (Black-holed
drop accounting is exercised at tiny scale by the fault test suite, where
killing 3 of 4 pods is affordable.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import Table
from repro.core.mega import MegaConfig, MegaControlPlaneConfig
from repro.experiments.e17_mega_scale import E17Result, mega_run
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule


def default_schedule(
    cfg: MegaConfig,
    pod_faults: int = 2,
    server_faults: int = 4,
) -> FaultSchedule:
    """Scripted fail/repair cycle scaled to *cfg*'s geometry.

    Pod losses land spread ``n_pods // pod_faults`` apart so no app loses
    two covering pods at once; server crashes hit pod-000, which the pod
    losses avoid.  Failures arrive in epochs 1-2, everything is repaired
    at epoch 4 — a 6-epoch run books both MTTR legs and two clean epochs.
    """
    if not 0 < pod_faults < cfg.n_pods:
        raise ValueError("pod_faults must leave at least one pod alive")
    if not 0 <= server_faults <= cfg.servers_per_pod:
        raise ValueError("server_faults exceeds servers_per_pod")
    stride = max(1, cfg.n_pods // pod_faults)
    pods = [f"pod-{(1 + k * stride) % cfg.n_pods:03d}" for k in range(pod_faults)]
    servers = [f"pod-000-s{i:06d}" for i in range(server_faults)]
    e = cfg.epoch_s
    events = (
        [(1 * e, FaultKind.POD_LOSS, p) for p in pods]
        + [(2 * e, FaultKind.SERVER_CRASH, s) for s in servers]
        + [(4 * e, FaultKind.POD_RESTORE, p) for p in pods]
        + [(4 * e, FaultKind.SERVER_RECOVER, s) for s in servers]
    )
    return FaultSchedule([FaultEvent(t, k, tgt) for t, k, tgt in events])


@dataclass
class E18Result(E17Result):
    faults_injected: int = 0
    mttr_pod_s: float | None = None
    mttr_server_s: float | None = None
    dropped_gb: float = 0.0
    auditor_ok: bool = True
    rip_verified: bool = True

    @property
    def rip_records_total(self) -> int:
        return sum(r.rip_records for r in self.rows)

    def table(self) -> Table:
        cfg = self.config
        t = Table(
            "E18 — mega faults: "
            f"{cfg.n_servers} servers / {cfg.n_apps} apps "
            f"({cfg.n_pods} pods)",
            [
                "epoch",
                "wall(s)",
                "vms",
                "down",
                "demand(cpu)",
                "satisfied",
                "dropped(cpu)",
                "changes",
                "rip recs",
                "rss(MB)",
            ],
        )
        for r in self.rows:
            t.add_row(
                r.epoch,
                round(r.wall_s, 3),
                r.vms,
                r.pods_down,
                round(r.demand_cpu, 1),
                f"{r.satisfied_fraction:.4f}",
                round(r.dropped_cpu, 1),
                r.changes,
                r.rip_records,
                round(r.peak_rss_mb, 1),
            )
        mttr = ", ".join(
            f"{cls}={v:.0f}s"
            for cls, v in (
                ("pod", self.mttr_pod_s),
                ("server", self.mttr_server_s),
            )
            if v is not None
        )
        t.add_note(
            f"{self.faults_injected} faults injected; MTTR {mttr or 'n/a'} "
            f"(= one epoch interval: the next placement epoch absorbs "
            f"every failure); demand black-holed {self.dropped_gb:.1f} Gb"
        )
        t.add_note(
            f"invariant auditor {'ok' if self.auditor_ok else 'VIOLATED'}; "
            f"columnar RIP mirror "
            f"{'verified' if self.rip_verified else 'DIVERGED'} against the "
            f"sharded control plane after replaying "
            f"{self.rip_records_total} journal records"
        )
        t.add_note(
            f"bootstrap {self.bootstrap_wall_s:.2f}s; host "
            f"cpu_count={self.cpu_count}; each app covers {cfg.cover} pods, "
            "so isolated pod losses spill demand to survivors instead of "
            "black-holing it"
        )
        return t

    @property
    def recovered(self) -> bool:
        return bool(self.rows) and self.rows[-1].pods_down == 0


def run(
    full: bool = False,
    epochs: int = 6,
    seed: int = 0,
    pod_faults: int = 2,
    server_faults: int = 4,
) -> E18Result:
    """Run the fault-injected mega loop and report recovery economics."""
    cfg = (MegaConfig.full if full else MegaConfig.quick)(seed=seed)
    schedule = default_schedule(
        cfg, pod_faults=pod_faults, server_faults=server_faults
    )
    with mega_run(
        cfg,
        epochs,
        control_plane=MegaControlPlaneConfig(),
        schedule=schedule,
    ) as mega:
        rip_verified = mega.driver.bridge.verify()
    monitor = mega.injector.monitor
    pod_tally = monitor.mttr("pod")
    server_tally = monitor.mttr("server")
    return mega.result(
        E18Result,
        faults_injected=mega.injector.injected,
        mttr_pod_s=pod_tally.mean if pod_tally else None,
        mttr_server_s=server_tally.mean if server_tally else None,
        dropped_gb=monitor.dropped_gb,
        auditor_ok=mega.auditor.ok,
        rip_verified=rip_verified,
    )
