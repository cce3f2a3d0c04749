"""Differential oracle: object-model platform vs the columnar mega loop.

The mega driver (:class:`~repro.core.mega.MegaScaleDriver`) re-implements
pod placement, fault surgery and demand routing on columnar state.  The
claim that earns it the right to run the paper's 300k-server scale is
that it computes *the same thing* the object-model platform computes —
at a scale where both can run, they must agree field by field.

This module replays one identical request/fault sequence through both:

* the **columnar loop** — the driver itself, with its epoch-time
  :class:`~repro.faults.mega.MegaFaultInjector` semantics;
* an **object twin** — one :class:`~repro.core.pod.Pod` +
  :class:`~repro.core.pod_manager.PodManager` per mega pod, seeded from
  the driver's bootstrap placement, solving each epoch with the exact
  dense :class:`~repro.placement.greedy.GreedyController` and taking the
  same faults at the same epoch boundaries;
* with steering wired, an **object data plane**
  (:meth:`~repro.dataplane.objectpath.ObjectDataPlane.twin_of`) steering
  the same request stream, so every request must get the same DNS
  answer, RIP choice and accept/reject on both sides.

:func:`run_differential` is the one replay loop;
:func:`run_dataplane_differential` is its data-plane preset.

After every epoch the oracle checks the per-epoch aggregates (demand,
satisfied CPU, dropped CPU, change count, VM census) and the full end
state: each pod's placement and load bridged through
:meth:`ColumnarPodState.from_pod`, the surviving server roster, and —
when the control plane is wired — the authoritative RIP homing against
the incrementally synced columnar mirror.

The oracle only accepts configurations where every pod's ``S x A`` fits
the sparse controller's dense delegation limit: there both sides run the
*bit-identical* dense solver, so placements are compared exactly and
float aggregates only need summation-order tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isclose
from typing import Optional, Sequence

import numpy as np

from repro.core.columnar import ColumnarPodState
from repro.core.mega import (
    MegaConfig,
    MegaControlPlaneConfig,
    MegaScaleDriver,
    MegaSteeringConfig,
    VM_MEM_GB,
)
from repro.core.pod import Pod
from repro.core.pod_manager import PodManager
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.hosts.server import PhysicalServer, ServerSpec
from repro.hosts.vm import VM, VMState
from repro.lbswitch.addresses import PRIVATE_RIP_POOL
from repro.placement.greedy import GreedyController
from repro.workload.apps import AppSpec
from repro.workload.demand import ConstantDemand
from repro.workload.streaming import StreamingWorkload

#: Relative tolerance for float *aggregates* (sums taken in different
#: orders on the two sides; the underlying per-entry values are exact).
_REL_TOL = 1e-9
_ABS_TOL = 1e-9


class DivergenceError(AssertionError):
    """The two platforms disagreed; carries every recorded mismatch."""

    def __init__(self, mismatches: list[str]):
        super().__init__(
            f"{len(mismatches)} divergence(s):\n" + "\n".join(mismatches)
        )
        self.mismatches = mismatches


@dataclass
class TwinEpoch:
    """Aggregates of one object-twin epoch (mirror of MegaEpochReport)."""

    t: float
    demand_cpu: float
    satisfied_cpu: float
    dropped_cpu: float
    changes: int
    vms: int


@dataclass
class DifferentialResult:
    """Outcome of one differential replay."""

    epochs: int = 0
    faults_injected: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def raise_for_divergence(self) -> "DifferentialResult":
        if self.mismatches:
            raise DivergenceError(self.mismatches)
        return self


class ObjectTwin:
    """Object-model replica of a mega driver, built from its bootstrap.

    The twin owns real :class:`Pod`/:class:`PhysicalServer`/:class:`VM`
    objects and a :class:`PodManager` per pod; demand routing and fault
    bookkeeping re-derive the driver's arithmetic independently (coverage
    rule, alive-cover spill, black-hole accounting), so a driver bug
    cannot leak into its own oracle.
    """

    def __init__(self, driver: MegaScaleDriver):
        cfg = driver.config
        for pod in driver.pods:
            dims = pod.servers.cpu.shape[0] * pod.n_apps
            if dims > driver.controllers[0].dense_limit:
                raise ValueError(
                    "differential twin needs the dense-delegation regime: "
                    f"pod {pod.pod} is {dims} > dense_limit"
                )
        self.config = cfg
        # Independent demand stream with the driver's parameters.
        self.workload = StreamingWorkload(
            n_apps=cfg.n_apps,
            total_gbps=cfg.total_cpu_demand,
            seed=cfg.seed,
        )
        self._app_names = [f"app-{g:06d}" for g in range(cfg.n_apps)]
        self.specs = {
            name: AppSpec(
                name,
                popularity=1.0,
                demand=ConstantDemand(0.0),
                vm_mem_gb=VM_MEM_GB,
            )
            for name in self._app_names
        }
        gids = np.arange(cfg.n_apps, dtype=np.int64)
        self._pod_gids = [
            gids[((p - gids) % cfg.n_pods) < cfg.cover]
            for p in range(cfg.n_pods)
        ]
        self.pod_alive = np.ones(cfg.n_pods, dtype=bool)
        self._alive_cover = np.full(cfg.n_apps, cfg.cover, dtype=np.int64)
        self._crashed: dict[str, tuple[int, PhysicalServer]] = {}
        self.rip_pool = PRIVATE_RIP_POOL(1 << 20)
        self.pods: list[Pod] = []
        self.managers: list[PodManager] = []
        self._pod_index: dict[str, int] = {}
        for p, cpod in enumerate(driver.pods):
            pod = Pod(
                cpod.pod,
                max_servers=cfg.servers_per_pod,
                max_vms=max(1, cfg.servers_per_pod * cfg.n_apps),
            )
            n_servers = cpod.servers.cpu.shape[0]
            for i in range(n_servers):
                pod.add_server(
                    PhysicalServer(
                        cpod.servers.name(i),
                        ServerSpec(
                            cpu_capacity=float(cpod.servers.cpu[i]),
                            mem_gb=float(cpod.servers.mem_gb[i]),
                        ),
                    )
                )
            servers = pod.servers  # name-sorted == id order (zero-padded)
            rows = cpod.placement.rows()
            cols = cpod.placement.indices
            local_names = [self._app_names[int(g)] for g in self._pod_gids[p]]
            for k in range(cpod.placement.nnz):
                server = servers[int(rows[k])]
                app = local_names[int(cols[k])]
                server.attach(
                    VM(
                        vm_id=f"{app}@{server.name}",
                        app=app,
                        cpu_slice=float(cpod.load[k]),
                        mem_gb=VM_MEM_GB,
                        image_gb=self.specs[app].vm_image_gb,
                        state=VMState.RUNNING,
                        rip=self.rip_pool.allocate(),
                    )
                )
            self.pods.append(pod)
            self.managers.append(
                PodManager(pod, self.rip_pool, controller=GreedyController())
            )
            self._pod_index[cpod.pod] = p

    # -- fault surgery (epoch-synchronous, object semantics) ------------
    def lose_pod(self, name: str) -> int:
        p = self._pod_index[name]
        if not self.pod_alive[p]:
            return 0
        lost = 0
        for server in self.pods[p].servers:
            for vm in list(server.vms):
                server.detach(vm.vm_id)
                vm.state = VMState.STOPPED
                if vm.rip is not None:
                    self.rip_pool.release(vm.rip)
                lost += 1
        self.pod_alive[p] = False
        self._alive_cover[self._pod_gids[p]] -= 1
        return lost

    def restore_pod(self, name: str) -> None:
        p = self._pod_index[name]
        if self.pod_alive[p]:
            return
        self.pod_alive[p] = True
        self._alive_cover[self._pod_gids[p]] += 1

    def crash_server(self, name: str) -> int:
        if name in self._crashed:
            return 0
        pod_name, _, _ = name.rpartition("-s")
        p = self._pod_index[pod_name]
        server = self.pods[p].server(name)
        victims = self.managers[p].crash_server(server)
        self._crashed[name] = (p, server)
        return len(victims)

    def recover_server(self, name: str) -> None:
        parked = self._crashed.pop(name, None)
        if parked is None:
            return
        p, server = parked
        self.pods[p].add_server(server)

    def apply_event(self, ev: FaultEvent) -> None:
        if ev.kind is FaultKind.POD_LOSS:
            self.lose_pod(ev.target)
        elif ev.kind is FaultKind.POD_RESTORE:
            self.restore_pod(ev.target)
        elif ev.kind is FaultKind.SERVER_CRASH:
            self.crash_server(ev.target)
        elif ev.kind is FaultKind.SERVER_RECOVER:
            self.recover_server(ev.target)
        else:  # pragma: no cover - schedules are pre-validated
            raise ValueError(f"twin cannot apply {ev.kind.value}")

    # -- epoch loop -----------------------------------------------------
    @property
    def n_vms(self) -> int:
        return sum(pod.n_vms for pod in self.pods)

    def run_epoch(self, t: float) -> TwinEpoch:
        """Route demand by the spill rule and run every alive pod."""
        demand = self.workload.cpu_demand(t)
        cov = self._alive_cover
        dead = cov == 0
        dropped = float(demand[dead].sum()) if dead.any() else 0.0
        demand_cpu = satisfied = 0.0
        changes = 0
        for p, manager in enumerate(self.managers):
            if not self.pod_alive[p]:
                continue
            gsel = self._pod_gids[p]
            assigned = {
                self._app_names[int(g)]: float(demand[g] / cov[g])
                for g in gsel
            }
            report = manager.run_epoch(assigned, self.specs, t=t)
            demand_cpu += report.demand_cpu
            satisfied += report.satisfied_cpu
            changes += report.changes
        return TwinEpoch(
            t=t,
            demand_cpu=demand_cpu,
            satisfied_cpu=satisfied,
            dropped_cpu=dropped,
            changes=changes,
            vms=self.n_vms,
        )


# -- comparison ----------------------------------------------------------
def _close(a: float, b: float) -> bool:
    return isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


def compare_epoch(report, twin_ep: TwinEpoch, out: list[str]) -> None:
    """Per-epoch aggregate equivalence (summation-order tolerance)."""
    e = report.epoch
    if not _close(report.demand_cpu, twin_ep.demand_cpu):
        out.append(
            f"epoch {e}: demand {report.demand_cpu!r} != {twin_ep.demand_cpu!r}"
        )
    if not _close(report.satisfied_cpu, twin_ep.satisfied_cpu):
        out.append(
            f"epoch {e}: satisfied {report.satisfied_cpu!r}"
            f" != {twin_ep.satisfied_cpu!r}"
        )
    if not _close(report.dropped_cpu, twin_ep.dropped_cpu):
        out.append(
            f"epoch {e}: dropped {report.dropped_cpu!r}"
            f" != {twin_ep.dropped_cpu!r}"
        )
    if report.changes != twin_ep.changes:
        out.append(f"epoch {e}: changes {report.changes} != {twin_ep.changes}")
    if report.vms != twin_ep.vms:
        out.append(f"epoch {e}: vms {report.vms} != {twin_ep.vms}")


def compare_states(
    driver: MegaScaleDriver, twin: ObjectTwin, out: list[str], when: str = ""
) -> None:
    """Field-by-field end-state equivalence of every pod."""
    tag = f"[{when}] " if when else ""
    if not np.array_equal(driver.pod_alive, twin.pod_alive):
        out.append(f"{tag}pod_alive masks differ")
    if set(driver._crashed_servers) != set(twin._crashed):
        out.append(
            f"{tag}crashed-server rosters differ: "
            f"{sorted(driver._crashed_servers)} != {sorted(twin._crashed)}"
        )
    for p, cpod in enumerate(driver.pods):
        opod = twin.pods[p]
        names = [
            cpod.servers.name(i) for i in range(cpod.servers.cpu.shape[0])
        ]
        twin_names = [s.name for s in opod.servers]
        if names != twin_names:
            out.append(f"{tag}{cpod.pod}: server roster {names} != {twin_names}")
            continue
        universe = [twin._app_names[int(g)] for g in twin._pod_gids[p]]
        bridged = ColumnarPodState.from_pod(opod, twin.specs, apps=universe)
        if not np.array_equal(
            bridged.placement.indptr, cpod.placement.indptr
        ) or not np.array_equal(
            bridged.placement.indices, cpod.placement.indices
        ):
            out.append(
                f"{tag}{cpod.pod}: placement differs "
                f"(nnz {bridged.placement.nnz} vs {cpod.placement.nnz})"
            )
            continue
        if not np.allclose(
            bridged.load, cpod.load, rtol=_REL_TOL, atol=_ABS_TOL
        ):
            worst = (
                float(np.abs(bridged.load - cpod.load).max())
                if cpod.load.size
                else 0.0
            )
            out.append(f"{tag}{cpod.pod}: load differs (max abs {worst})")


def compare_rip_homing(driver: MegaScaleDriver, out: list[str]) -> None:
    """Authoritative control-plane homing vs the columnar mirror."""
    if driver.control_plane is None or driver.bridge is None:
        return
    authority = driver.control_plane.rip_homing()
    registry = driver.bridge.registry
    if registry.n_active != len(authority):
        out.append(
            f"rip mirror: {registry.n_active} active rows,"
            f" authority has {len(authority)}"
        )
    for rip in sorted(authority):
        app, vip, switch, weight = authority[rip]
        mirrored = registry.homing(rip)
        if mirrored is None:
            out.append(f"rip mirror: {rip} missing")
            continue
        m_app, m_vip, m_switch, m_pod, m_weight = mirrored
        expect_pod = driver._pod_of_rip(rip)
        got = (m_app, m_vip, m_switch, m_pod, m_weight)
        want = (app, vip, switch, expect_pod, weight)
        if got != want:
            out.append(f"rip mirror: {rip} {got} != authority {want}")
    if not driver.bridge.verify():
        out.append("rip mirror: fingerprint diverged from authority rebuild")


# -- data-plane comparison ---------------------------------------------
def compare_steer(col, obj, out: list[str], max_detail: int = 5) -> None:
    """Request-for-request equivalence of one epoch's steering outcome:
    same VIP answer, same RIP choice, same acceptance, same counters."""
    e = col.epoch
    for name in (
        "requests", "dns_hits", "dns_misses", "opened", "rejected",
        "unserved", "closed",
    ):
        a, b = getattr(col, name), getattr(obj, name)
        if a != b:
            out.append(f"epoch {e}: steer {name} {a} != {b}")
    if col.outcomes is None or obj.outcomes is None:
        out.append(f"epoch {e}: steer outcomes not recorded on both sides")
        return
    shown = 0
    for k, (cv, ov) in enumerate(
        zip(col.outcomes["vip"], obj.outcomes["vip"])
    ):
        if cv != ov and shown < max_detail:
            out.append(f"epoch {e} request {k}: vip {cv!r} != {ov!r}")
            shown += 1
    for k, (cr, orr) in enumerate(
        zip(col.outcomes["rip"], obj.outcomes["rip"])
    ):
        if cr != orr and shown < max_detail:
            out.append(f"epoch {e} request {k}: rip {cr!r} != {orr!r}")
            shown += 1
    acc_c, acc_o = col.outcomes["accepted"], obj.outcomes["accepted"]
    if not np.array_equal(acc_c, acc_o):
        bad = np.flatnonzero(acc_c != acc_o)
        out.append(
            f"epoch {e}: acceptance differs at {bad.size} requests"
            f" (first: {bad[:max_detail].tolist()})"
        )


def compare_conn_state(
    driver: MegaScaleDriver, obj_dp, out: list[str], when: str
) -> None:
    """Live-session state equivalence: per-(VIP, RIP) counts and the K2
    pause window of every VIP."""
    col_pairs = driver.dataplane.live_pairs()
    obj_pairs = obj_dp.live_pairs()
    if col_pairs != obj_pairs:
        only_c = sorted(set(col_pairs) - set(obj_pairs))[:3]
        only_o = sorted(set(obj_pairs) - set(col_pairs))[:3]
        diff = [
            k
            for k in set(col_pairs) & set(obj_pairs)
            if col_pairs[k] != obj_pairs[k]
        ][:3]
        out.append(
            f"[{when}] live (vip, rip) pairs differ: columnar-only "
            f"{only_c}, object-only {only_o}, count-mismatch {diff}"
        )
    registry = driver.bridge.registry
    for vid in range(len(registry.vips)):
        vip = registry.vips.name(vid)
        col_paused = driver.dataplane.is_paused(vip)
        obj_paused = obj_dp.is_paused(vip)
        if col_paused != obj_paused:
            out.append(
                f"[{when}] pause window differs for {vip}: "
                f"columnar {col_paused}, object {obj_paused}"
            )


# -- the replay ----------------------------------------------------------
def run_differential(
    config: Optional[MegaConfig] = None,
    *,
    schedule: Optional[FaultSchedule] = None,
    epochs: int = 4,
    control_plane: Optional[MegaControlPlaneConfig] = None,
    requests: Optional[dict] = None,
    steering: Optional[MegaSteeringConfig] = None,
    knobs: Optional[dict] = None,
    check_every_epoch: bool = True,
) -> DifferentialResult:
    """Replay one workload + request/fault/knob sequence through both
    platforms.  This is the one replay loop: the placement oracle runs
    it as is, :func:`run_dataplane_differential` with steering wired.

    Parameters
    ----------
    config:
        Scale knobs; defaults to :meth:`MegaConfig.tiny`.  Must keep
        every pod inside the dense-delegation regime.
    schedule:
        Fault sequence (``pod_loss`` / ``pod_restore`` /
        ``server_crash`` / ``server_recover``), validated against the
        driver's target inventory before anything runs.
    control_plane:
        When given, the driver wires its sharded VIP/RIP control plane
        and the oracle also asserts authority-vs-mirror RIP homing.
    requests:
        ``epoch -> [VipRipRequest, ...]`` submitted to the control plane
        at that epoch's start, interleaving with the fault-driven RIP
        churn.  Rejected requests (e.g. deleting a RIP a pod fault
        already removed) are a legitimate part of the sequence — they
        journal nothing, so both authority and mirror ignore them.
    steering:
        When given (needs *control_plane*), the driver steers a request
        stream through its columnar data plane and an
        :class:`ObjectDataPlane` twin steers the same stream (Resolver /
        AuthoritativeDNS / weighted RIP pick / per-switch
        ConnectionTable).  Both read the *same* live control-plane
        switches but own independent DNS caches, conn tables and
        counters, fed the exact same per-request uniforms; the oracle
        asserts they steer request for request alike.  Knobs must be
        scripted (``knob_period == 0``).
    knobs:
        ``epoch -> [("k1", app, {vip: weight}), ("k2", app, vip) |
        ("k2", app, vip, True)]`` — queued on the driver (fires between
        mirror sync and steering) and mirrored onto the object plane at
        the same point.  A non-forced K2 of an unpaused VIP is a no-op on
        both sides; the oracle asserts the pause windows agree first.
    check_every_epoch:
        Compare full end states after every epoch (cheap at tiny
        scale), not just at the end.
    """
    from repro.dataplane.objectpath import ObjectDataPlane
    from repro.faults.mega import MegaFaultInjector

    cfg = config if config is not None else MegaConfig.tiny()
    if requests and control_plane is None:
        raise ValueError("requests need a wired control plane")
    if knobs and steering is None:
        raise ValueError("knobs need steering")
    if steering is not None and steering.knob_period:
        raise ValueError(
            "dataplane differential uses scripted knobs; set knob_period=0"
        )
    requests = requests or {}
    knobs = knobs or {}
    result = DifferentialResult()
    with MegaScaleDriver(
        cfg, control_plane=control_plane, steering=steering
    ) as driver:
        obj_dp = None
        if steering is not None:
            driver.dataplane.record_outcomes = True
            obj_dp = ObjectDataPlane.twin_of(driver)
        twin = ObjectTwin(driver)
        injector = None
        events: Sequence[FaultEvent] = ()
        if schedule is not None:
            injector = MegaFaultInjector(driver, schedule)
            events = schedule.events
        compare_states(driver, twin, result.mismatches, when="bootstrap")
        nxt = 0
        for epoch in range(epochs):
            t = epoch * cfg.epoch_s
            for req in requests.get(epoch, ()):
                driver.control_plane.submit(req)
            for act in knobs.get(epoch, ()):
                driver.queue_knob(epoch, act)
            # The injector fires due events inside run_epoch; mirror the
            # same due-set onto the twins before their epoch.
            while nxt < len(events) and events[nxt].t <= t:
                ev = events[nxt]
                twin.apply_event(ev)
                if obj_dp is not None and ev.kind is FaultKind.POD_LOSS:
                    obj_dp.on_pod_loss(ev.target)
                nxt += 1
            report = driver.run_epoch()
            if obj_dp is not None:
                # Mirror the knob actions at the same point of the object
                # plane's epoch: after faults, before its steer.
                for act in knobs.get(epoch, ()):
                    if act[0] == "k1":
                        obj_dp.k1_set_weights(act[1], act[2])
                    else:
                        vip = act[2]
                        force = bool(act[3]) if len(act) > 3 else False
                        if force and not obj_dp.is_paused(vip):
                            obj_dp.drop_vip_conns(vip)
                obj_rep = obj_dp.steer_epoch(epoch, t, record=True)
                compare_steer(
                    driver.dataplane.last_report, obj_rep, result.mismatches
                )
            compare_epoch(report, twin.run_epoch(t), result.mismatches)
            if check_every_epoch or epoch == epochs - 1:
                when = f"epoch {epoch}"
                if obj_dp is not None:
                    compare_conn_state(driver, obj_dp, result.mismatches, when)
                compare_states(driver, twin, result.mismatches, when=when)
        compare_rip_homing(driver, result.mismatches)
        result.epochs = epochs
        result.faults_injected = injector.injected if injector else 0
    return result


def run_dataplane_differential(
    config: Optional[MegaConfig] = None,
    *,
    schedule: Optional[FaultSchedule] = None,
    epochs: int = 4,
    control_plane: Optional[MegaControlPlaneConfig] = None,
    steering: Optional[MegaSteeringConfig] = None,
    knobs: Optional[dict] = None,
    check_every_epoch: bool = True,
) -> DifferentialResult:
    """The data-plane preset of :func:`run_differential`: steering wired
    over 16 apps with 2 VIPs each and a small request stream, so the
    columnar and object data planes replay one seeded request + fault +
    knob interleaving and must steer identically."""
    return run_differential(
        config,
        schedule=schedule,
        epochs=epochs,
        control_plane=(
            control_plane
            if control_plane is not None
            else MegaControlPlaneConfig(wired_apps=16, vips_per_app=2)
        ),
        steering=steering if steering is not None else MegaSteeringConfig(
            requests_per_epoch=2_000,
            n_resolvers=100,
            chunk_requests=256,
            switch_max_connections=1_000,
        ),
        knobs=knobs,
        check_every_epoch=check_every_epoch,
    )
