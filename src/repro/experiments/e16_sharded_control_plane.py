"""E16 — sharded VIP/RIP control plane: throughput, conflicts, convergence.

The paper's Section III-C manager serializes *every* reconfiguration
through one priority queue; PR 6/7 measured that queue as the
architectural bottleneck.  This experiment shards it
(:mod:`repro.controlplane.sharding`) and measures three things:

* **Throughput scaling** — a reconfiguration storm drained by 1, 2 and 4
  shards.  Shard 1 *is* the serialized baseline; each extra shard is an
  independent serial queue over a disjoint switch slice, so completed
  requests per second should rise monotonically with shard count.
* **Conflict rate under chaos** — a seeded schedule of per-shard crashes
  and shard<->shard partitions, with requests still flowing.  Emergency
  handoffs under unreachable owners create conflicting epoch-fenced
  claims; the run counts them and the rollbacks that resolve them.
* **Convergence** — after the chaos quiesces (partitions healed, shards
  recovered), how many anti-entropy gossip rounds until the six-way
  drift report (vip_missing / vip_misplaced / vip_duplicate /
  rip_missing / rip_orphaned / index_stale) is clean.

A final integrated case runs a 4-shard :class:`MegaDataCenter` under a
fault schedule mixing ``manager_crash`` of individual shards with
``shard_partition`` faults, and requires the reconciler *and* the online
:class:`~repro.obs.audit.InvariantAuditor` to come back clean at
quiescence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.reporting import Table
from repro.controlplane.sharding import ShardedControlPlane
from repro.core.config import PlatformConfig
from repro.core.datacenter import MegaDataCenter
from repro.core.viprip import VipRipRequest
from repro.faults import FaultInjector, FaultSchedule, RecoveryMonitor
from repro.lbswitch.addresses import PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits
from repro.sim.core import Environment
from repro.sim.rng import RngHub
from repro.workload.generator import WorkloadBuilder

DEFAULT_SHARDS = (1, 2, 4)


def _fleet(env: Environment, n_switches: int) -> list[LBSwitch]:
    limits = SwitchLimits(max_vips=4000, max_rips=16000)
    return [LBSwitch(f"lb-{i:02d}", env, limits) for i in range(n_switches)]


def _build_plane(
    n_shards: int, n_switches: int, reconfig_s: float, gossip_interval_s: float = 0.0
) -> tuple[Environment, ShardedControlPlane]:
    env = Environment()
    plane = ShardedControlPlane(
        env,
        _fleet(env, n_switches),
        PUBLIC_VIP_POOL(10**6),
        n_shards,
        reconfig_s=reconfig_s,
        gossip_interval_s=gossip_interval_s,
    )
    return env, plane


# ---------------------------------------------------------------- phase A
@dataclass
class ThroughputCase:
    """One shard count draining the same reconfiguration storm."""

    n_shards: int
    n_requests: int
    makespan_s: float
    throughput_rps: float
    #: Completed / submitted (loss-free storms complete everything).
    completed: int
    speedup_vs_serial: float = 1.0


def _throughput_case(
    n_shards: int,
    n_requests: int,
    n_apps: int,
    n_switches: int,
    reconfig_s: float,
) -> ThroughputCase:
    env, plane = _build_plane(n_shards, n_switches, reconfig_s)
    for i in range(n_requests):
        plane.submit(VipRipRequest("new_vip", f"app-{i % n_apps:04d}"))
    env.run()
    makespan = env.now
    return ThroughputCase(
        n_shards=n_shards,
        n_requests=n_requests,
        makespan_s=makespan,
        throughput_rps=n_requests / makespan if makespan > 0 else 0.0,
        completed=plane.processed,
    )


# ---------------------------------------------------------------- phase B
@dataclass
class ChaosCase:
    """Standalone chaos: crashes + partitions against flowing requests."""

    n_shards: int
    crashes: int
    partitions: int
    handoffs: int
    conflicts: int
    rollbacks: int
    #: Requests completed out of submitted (crashes may drop queued work).
    completed: int
    submitted: int
    lost: int
    #: Gossip rounds to a clean six-way drift report after quiescence.
    convergence_rounds: Optional[int]
    final_drift: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.convergence_rounds is not None and not any(
            self.final_drift.values()
        )


def _chaos_case(
    seed: int,
    n_shards: int,
    n_requests: int,
    n_apps: int,
    n_switches: int,
    reconfig_s: float,
) -> ChaosCase:
    env, plane = _build_plane(n_shards, n_switches, reconfig_s)
    rng = RngHub(seed).stream("e16-chaos", n_shards)

    submitted = 0
    partitions = 0

    def load():
        nonlocal submitted
        for i in range(n_requests):
            app = f"app-{i % n_apps:04d}"
            if i % 3 == 0 and i > 0:
                plane.submit(VipRipRequest("new_rip", app, rip=f"10.9.{i % 256}.{i // 256}"))
            else:
                plane.submit(VipRipRequest("new_vip", app))
            submitted += 1
            yield env.timeout(reconfig_s / 2.0)

    def chaos():
        nonlocal partitions
        # Partition a random pair, crash a random shard, heal/recover —
        # twice, with request load flowing throughout.
        for _ in range(2):
            yield env.timeout(float(rng.uniform(5.0, 15.0)))
            if n_shards > 1:
                i, j = sorted(rng.choice(n_shards, size=2, replace=False).tolist())
                if plane.partition(i, j):
                    partitions += 1
            victim = int(rng.integers(0, n_shards))
            yield env.timeout(float(rng.uniform(5.0, 15.0)))
            plane.crash(victim)
            yield env.timeout(float(rng.uniform(10.0, 25.0)))
            yield from plane.recover()
            plane.heal_all()

    env.process(load())
    env.process(chaos())
    env.run()
    rounds = plane.converge(max_rounds=4 * n_shards + 8)
    return ChaosCase(
        n_shards=n_shards,
        crashes=plane.crashes,
        partitions=partitions,
        handoffs=plane.handoffs,
        conflicts=plane.conflicts,
        rollbacks=plane.rollbacks,
        completed=plane.processed,
        submitted=submitted,
        lost=plane.lost,
        convergence_rounds=rounds,
        final_drift=plane.drift_report().as_dict(),
    )


# ---------------------------------------------------------------- phase C
@dataclass
class IntegratedCase:
    """Full MegaDataCenter on a 4-shard plane under mixed faults."""

    n_shards: int
    manager_crashes: int
    handoffs: int
    conflicts: int
    gossip_rounds: int
    reconciler_clean: bool
    plane_drift: dict = field(default_factory=dict)
    auditor_violations: int = 0
    mttr_manager_s: float = 0.0

    @property
    def clean(self) -> bool:
        return (
            self.reconciler_clean
            and self.auditor_violations == 0
            and not any(self.plane_drift.values())
        )


def _integrated_case(seed: int, n_shards: int = 4) -> IntegratedCase:
    from repro.obs import TraceBus

    hub = RngHub(seed)
    apps = WorkloadBuilder(
        n_apps=12, total_gbps=6.0, diurnal_fraction=0.0, rng_hub=hub.spawn("workload")
    ).build()
    dc = MegaDataCenter(
        apps,
        config=PlatformConfig(),
        n_pods=2,
        servers_per_pod=8,
        n_switches=2 * n_shards,
        control_plane_shards=n_shards,
        trace=TraceBus(),
        audit=True,
    )
    schedule = FaultSchedule.from_events(
        [
            (120.0, "shard_partition", "shard-0:shard-2"),
            (150.0, "manager_crash", "shard-1"),
            (240.0, "manager_crash", "shard-3"),
            (360.0, "shard_heal", "shard-0:shard-2"),
            (420.0, "switch_fail", "lb-0"),
            (700.0, "switch_recover", "lb-0"),
        ]
    )
    monitor = RecoveryMonitor()
    injector = FaultInjector(dc, schedule, monitor)
    dc.run(1100.0)
    assert injector.finished
    plane = dc.viprip
    plane.converge()
    final = dc.reconciler.run_pass()
    tally = monitor.mttr("manager")
    case = IntegratedCase(
        n_shards=n_shards,
        manager_crashes=dc.manager_crashes,
        handoffs=plane.handoffs,
        conflicts=plane.conflicts,
        gossip_rounds=plane.gossip_rounds,
        reconciler_clean=final.clean,
        plane_drift=plane.drift_report().as_dict(),
        auditor_violations=len(dc.auditor.violations),
        mttr_manager_s=tally.mean if tally is not None and tally.count else 0.0,
    )
    dc.close()
    return case


# ------------------------------------------------------------------ result
@dataclass
class E16Result:
    throughput: list[ThroughputCase] = field(default_factory=list)
    chaos: list[ChaosCase] = field(default_factory=list)
    integrated: Optional[IntegratedCase] = None

    @property
    def throughput_monotonic(self) -> bool:
        """Completed-requests-per-second rises with shard count."""
        rates = [c.throughput_rps for c in sorted(self.throughput, key=lambda c: c.n_shards)]
        return all(b > a for a, b in zip(rates, rates[1:]))

    @property
    def accepted(self) -> bool:
        return (
            self.throughput_monotonic
            and all(c.converged for c in self.chaos)
            and all(c.completed == c.submitted - c.lost for c in self.chaos)
            and self.integrated is not None
            and self.integrated.clean
        )

    def table(self) -> Table:
        t = Table(
            "E16 — sharded control plane: throughput / chaos / convergence",
            [
                "shards",
                "storm rps",
                "speedup",
                "chaos conflicts",
                "rollbacks",
                "handoffs",
                "conv rounds",
                "drift clean",
            ],
        )
        chaos_by_n = {c.n_shards: c for c in self.chaos}
        for tc in sorted(self.throughput, key=lambda c: c.n_shards):
            cc = chaos_by_n.get(tc.n_shards)
            t.add_row(
                tc.n_shards,
                round(tc.throughput_rps, 2),
                round(tc.speedup_vs_serial, 2),
                cc.conflicts if cc else "-",
                cc.rollbacks if cc else "-",
                cc.handoffs if cc else "-",
                cc.convergence_rounds if cc else "-",
                (not any(cc.final_drift.values())) if cc else "-",
            )
        t.add_note("shards=1 is the serialized Section III-C baseline")
        if self.integrated is not None:
            ic = self.integrated
            t.add_note(
                f"integrated 4-shard run: {ic.manager_crashes} shard crashes, "
                f"{ic.conflicts} conflicts, reconciler clean={ic.reconciler_clean}, "
                f"auditor violations={ic.auditor_violations}"
            )
        t.add_note(f"throughput monotonic 1->{max((c.n_shards for c in self.throughput), default=0)} shards: {self.throughput_monotonic}")
        t.add_note(f"accepted: {self.accepted}")
        return t


def run(
    seed: int = 0,
    shards: tuple[int, ...] = DEFAULT_SHARDS,
    n_requests: int = 240,
    n_apps: int = 64,
    n_switches: int = 8,
    reconfig_s: float = 0.5,
    integrated: bool = True,
) -> E16Result:
    """Run the three phases; ``integrated=False`` skips the (slower)
    MegaDataCenter case for quick sweeps."""
    result = E16Result()
    for n in shards:
        result.throughput.append(
            _throughput_case(n, n_requests, n_apps, n_switches, reconfig_s)
        )
    serial = next((c for c in result.throughput if c.n_shards == 1), None)
    if serial is not None and serial.throughput_rps > 0:
        for c in result.throughput:
            c.speedup_vs_serial = c.throughput_rps / serial.throughput_rps
    for n in shards:
        result.chaos.append(
            _chaos_case(seed, n, n_requests // 2, n_apps, n_switches, reconfig_s)
        )
    if integrated:
        result.integrated = _integrated_case(seed)
    return result
