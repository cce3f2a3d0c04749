"""The full Figure-1 assembly: clients -> DNS -> access links -> border
routers -> LB switches -> fabric -> pods of servers, with the global
manager and per-pod managers running the control plane.

Epoch-level operation: every ``config.epoch_s`` the facade

1. relaxes the fluid DNS model (clients re-resolving within TTL);
2. computes each application's demand and splits it over its VIPs by the
   clients' current shares; charges access links and LB switches;
3. splits each VIP's traffic over its RIPs by the switch weights and
   assigns the implied CPU demand to the serving pods;
4. runs every pod manager's placement epoch (which boots/stops VMs and
   resizes slices);
5. lets the global manager react (knobs K1..K6, elephant avoidance).

RIP (un)wiring has two modes: the default mutates switch tables instantly
(counting reconfigurations), while ``serialized_reconfig=True`` routes
every runtime request through the global VIP/RIP manager's priority queue
with per-request decision and reconfiguration latencies (Section III-C).
The fabric is not modelled: Section III-B's flat address space is taken
as a premise, so any server can host any pod's VMs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Optional, Sequence

import numpy as np

from repro.analysis.stats import max_mean_ratio
from repro.controlplane import (
    AntiEntropyReconciler,
    CheckpointStore,
    ShardedControlPlane,
    WriteAheadJournal,
)
from repro.core.config import PlatformConfig
from repro.core.global_manager import GlobalManager
from repro.core.pod import Pod
from repro.core.pod_manager import EpochPlan, PodManager, PodReport
from repro.perf.engine import PlacementEngine, PlacementTask, derive_seed
from repro.core.state import PlatformState
from repro.dns.authority import AuthoritativeDNS
from repro.dns.policy import ExposurePolicy
from repro.dns.population import FluidDNSModel
from repro.hosts.server import PhysicalServer, ServerSpec
from repro.hosts.vm import VM
from repro.lbswitch.addresses import PRIVATE_RIP_POOL, PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, can_land, landing_target
from repro.network.bgp import BGPAnnouncer
from repro.network.links import InternetSide
from repro.obs import InvariantAuditor, TraceBus
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.sim.monitor import TimeSeries
from repro.core.sizing import switches_needed
from repro.core.viprip import VipRipManager, VipRipRequest
from repro.workload.apps import AppSpec

#: Default access network: 2 ISPs, 2 border routers, 4 access links.
DEFAULT_LINKS = (
    ("link-a", "isp-1", "AR1", "br-1", 10.0, 1.0),
    ("link-b", "isp-1", "AR2", "br-1", 10.0, 1.0),
    ("link-c", "isp-2", "AR3", "br-2", 10.0, 1.5),
    ("link-d", "isp-2", "AR4", "br-2", 10.0, 1.5),
)

#: VMs per pod before it counts as an elephant (Section III-A).
POD_MAX_VMS = 10_000


class MegaDataCenter:
    """Build and run a simulated mega data center.

    *pod_max_servers* and :data:`POD_MAX_VMS` are Section III-A's pod size
    limits: "about 5,000 servers and 10,000 VMs (whichever comes first)".
    Experiments run scaled-down pods; the *ratio* of these limits to
    total size is what matters.  *control_plane_shards* is the number of
    VIP/RIP manager shards: 1 keeps the serialized paper manager; >1
    partitions app ownership across shards (each with its own
    journal/checkpoints) behind the eventually consistent
    :class:`~repro.controlplane.sharding.ShardedControlPlane` facade.
    """

    def __init__(
        self,
        apps: Sequence[AppSpec],
        config: Optional[PlatformConfig] = None,
        n_pods: int = 4,
        servers_per_pod: int = 16,
        n_switches: Optional[int] = None,
        links: Sequence[tuple] = DEFAULT_LINKS,
        pod_controller_factory: Optional[Callable[[], object]] = None,
        enable_global_manager: bool = True,
        pod_max_servers: int = 5000,
        exposure_policy: Optional[ExposurePolicy] = None,
        proactive_exposure: bool = False,
        serialized_reconfig: bool = False,
        crash_safe_manager: bool = False,
        control_plane_shards: int = 1,
        parallelism: int = 1,
        trace: Optional[TraceBus] = None,
        audit: bool = False,
    ):
        if not apps:
            raise ValueError("need at least one application")
        self.config = config if config is not None else PlatformConfig()
        # Every subsystem below emits onto this one bus.  The default is
        # a disabled bus, whose emit is a no-op, so instrumented code
        # paths are unconditional.
        self.trace = trace if trace is not None else TraceBus(enabled=False)
        self.auditor: Optional[InvariantAuditor] = None
        if audit:
            if not self.trace.enabled:
                raise ValueError("audit=True needs an enabled trace bus")
            self.auditor = InvariantAuditor(dc=self).attach(self.trace)
        # Pod epochs are embarrassingly parallel (Section III-A): the pure
        # solve stage of every pod fans across the engine's persistent
        # worker pool; parallelism=1 is the exact serial fallback.
        self.engine = PlacementEngine(parallelism)
        self.engine.trace = self.trace
        # Crash safety only makes sense for the serialized control plane:
        # it journals the VIP/RIP manager's operations and runs the
        # anti-entropy reconciler against its registries.
        self.crash_safe_manager = crash_safe_manager
        if crash_safe_manager:
            serialized_reconfig = True
        # Sharded control plane (repro.controlplane.sharding): >1 shard
        # implies the serialized path *and* crash-safe semantics — each
        # shard carries its own journal/checkpoints, so the facade-level
        # self.journal/self.checkpoints stay None.
        self.control_plane_shards = control_plane_shards
        if self.control_plane_shards < 1:
            raise ValueError("control_plane_shards must be at least 1")
        sharded = self.control_plane_shards > 1
        if sharded:
            serialized_reconfig = True
            self.crash_safe_manager = crash_safe_manager = True
        self.env = Environment()
        self.specs = {a.app_id: a for a in apps}

        # --- access network ------------------------------------------------
        self.internet = InternetSide(self.env)
        for name, isp, ar, border, cap, cost in links:
            if border not in self.internet.borders:
                self.internet.add_border(border)
            self.internet.add_access_link(name, isp, ar, border, cap, cost)
        self.bgp = BGPAnnouncer(self.env, self.config.bgp_convergence_s)

        # --- LB switch layer ---------------------------------------------------
        if n_switches is None:
            size = switches_needed(
                len(apps),
                float(np.mean([a.n_vips for a in apps])),
                self.config.mean_rips_per_app,
                self.config.switch_limits,
            )
            n_switches = max(4, size.required)
        self.switches = {
            f"lb-{i}": LBSwitch(f"lb-{i}", self.env, self.config.switch_limits)
            for i in range(n_switches)
        }

        # --- DNS --------------------------------------------------------------
        self.authority = AuthoritativeDNS(self.env, self.config.dns_ttl_s)
        self.fluid_dns = FluidDNSModel(
            self.authority,
            violator_fraction=self.config.ttl_violator_fraction,
            violation_factor=self.config.ttl_violation_factor,
        )

        # --- pods ----------------------------------------------------------------
        self.state = PlatformState(self.internet, self.switches)
        self.vip_pool = PUBLIC_VIP_POOL()
        # Lazy recycling: a released RIP is not immediately reused while a
        # serialized del_rip referencing it may still be queued.
        self.rip_pool = PRIVATE_RIP_POOL(lazy_recycle=serialized_reconfig)
        self.pod_managers: dict[str, PodManager] = {}
        spec = ServerSpec(
            cpu_capacity=self.config.server_cpu, mem_gb=self.config.server_mem_gb
        )
        for p in range(n_pods):
            pod = Pod(f"pod-{p}", max_servers=pod_max_servers, max_vms=POD_MAX_VMS)
            for s in range(servers_per_pod):
                server = PhysicalServer(f"pod-{p}-s{s}", spec)
                pod.add_server(server)
                self.state.register_server(server)
            controller = (
                pod_controller_factory() if pod_controller_factory else None
            )
            manager = PodManager(
                pod,
                self.rip_pool,
                controller=controller,
                on_start=self._wire_rip,
                on_stop=self._unwire_rip,
                trace=self.trace,
                trace_clock=lambda: self.env.now,
            )
            # Out-of-band solves (fault-path re-placements) also go
            # through the engine, so randomized controllers get the same
            # per-(pod, fault) seed at every parallelism.
            manager.solve_fn = self._solve_pod_epoch
            self.pod_managers[pod.name] = manager

        # --- serialized VIP/RIP path (Section III-C) ----------------------------------
        # With serialized_reconfig, every RIP (un)wiring after bootstrap
        # goes through the global VIP/RIP manager's priority queue and
        # pays the per-request decision + reconfiguration latency; the
        # default instant mode mutates tables directly and only counts.
        self.serialized_reconfig = serialized_reconfig
        self.viprip: Optional[VipRipManager] = None
        #: Durable control-plane storage (crash-safe mode only): the
        #: write-ahead journal and checkpoint store survive manager
        #: crashes, unlike the manager's volatile queue and registries.
        self.journal: Optional[WriteAheadJournal] = None
        self.checkpoints: Optional[CheckpointStore] = None
        if crash_safe_manager and not sharded:
            self.journal = WriteAheadJournal(
                trace=self.trace, clock=lambda: self.env.now
            )
            self.checkpoints = CheckpointStore()
        if sharded:
            self.viprip = ShardedControlPlane(
                self.env,
                sorted(self.switches.values(), key=lambda s: s.name),
                self.vip_pool,
                self.control_plane_shards,
                reconfig_s=self.config.switch_reconfig_s,
                hosting_lookup=lambda app: {
                    v: self.state.vips[v].switch
                    for v in self.state.app_vips.get(app, [])
                },
                on_vip_moved=self._on_vip_rehomed,
                rehome_timeout_s=self.config.fault_rehome_timeout_s,
                rehome_backoff_s=self.config.fault_rehome_backoff_s,
                checkpoint_interval_s=self.config.checkpoint_interval_s,
                cutover_s=self.config.manager_cutover_s,
                replay_record_s=self.config.journal_replay_s,
                gossip_interval_s=self.config.shard_gossip_interval_s,
                trace=self.trace,
            )
        elif serialized_reconfig:
            self.viprip = VipRipManager(
                self.env,
                sorted(self.switches.values(), key=lambda s: s.name),
                self.vip_pool,
                reconfig_s=self.config.switch_reconfig_s,
                hosting_lookup=lambda app: {
                    v: self.state.vips[v].switch
                    for v in self.state.app_vips.get(app, [])
                },
                on_vip_moved=self._on_vip_rehomed,
                rehome_timeout_s=self.config.fault_rehome_timeout_s,
                rehome_backoff_s=self.config.fault_rehome_backoff_s,
                journal=self.journal,
                checkpoints=self.checkpoints,
                checkpoint_interval_s=(
                    self.config.checkpoint_interval_s if crash_safe_manager else 0.0
                ),
                cutover_s=(
                    self.config.manager_cutover_s if crash_safe_manager else 0.0
                ),
                replay_record_s=self.config.journal_replay_s,
                state_snapshot=(
                    self.state.snapshot if crash_safe_manager else None
                ),
            )
            self.viprip.trace = self.trace
        # RIPs whose wiring request is queued but not applied yet; maps
        # rip -> VM (dropped if the VM stops before the request lands).
        self._pending_wirings: dict[str, VM] = {}
        self._started = False  # set before bootstrap: wiring checks it

        # --- initial VIPs, routes, instances ------------------------------------------
        # VIPs whose exposure *we* zeroed because they had no serving RIP
        # (as opposed to a deliberate K1/K2 drain): restored automatically
        # once they serve again.
        self._auto_drained: set[str] = set()
        self._assign_vips()
        self._bootstrap_instances()

        # --- global manager ---------------------------------------------------------------
        self.global_manager: Optional[GlobalManager] = None
        if enable_global_manager:
            self.global_manager = GlobalManager(
                self.env,
                self.config,
                self.state,
                self.authority,
                self.fluid_dns,
                self.pod_managers,
                self.specs,
                self.rip_pool,
                exposure_policy=exposure_policy,
                wire_rip=self._wire_rip,
                unwire_rip=self._unwire_rip,
                proactive_exposure=proactive_exposure,
                trace=self.trace,
            )

        # --- monitors -----------------------------------------------------------------------
        self.pod_util = {
            name: TimeSeries(self.env, f"util:{name}") for name in self.pod_managers
        }
        self.satisfied = TimeSeries(self.env, "satisfied-fraction")
        self.link_imbalance = TimeSeries(self.env, "link-imbalance")
        self.switch_imbalance = TimeSeries(self.env, "switch-imbalance")
        self.reports_history: list[list[PodReport]] = []
        self.epochs = 0

        # --- control-plane reconciliation ---------------------------------------------
        #: Anti-entropy reconciler (crash-safe mode): periodically diffs
        #: intended vs. actual state and repairs drift.
        self.reconciler: Optional[AntiEntropyReconciler] = None
        if crash_safe_manager:
            self.reconciler = AntiEntropyReconciler(
                self, interval_s=self.config.reconcile_interval_s
            )

        # --- fault handling --------------------------------------------------------------
        # Crashed servers parked for repair: name -> (home pod, server).
        self._crashed_servers: dict[str, tuple[str, PhysicalServer]] = {}
        #: Re-home attempts that had to be retried (instant mode; the
        #: serialized path counts its own in ``viprip.retries``).
        self.rehome_retries = 0
        #: Optional :class:`repro.faults.RecoveryMonitor` fed by the epoch
        #: loop (dropped demand) — set by a ``FaultInjector``.
        self.recovery_monitor = None
        #: Control-plane crashes inflicted on the VIP/RIP manager.
        self.manager_crashes = 0

    # ------------------------------------------------------------------ build
    def _assign_vips(self) -> None:
        """Allocate each app's VIPs, place them on switches, advertise each
        on one access link, configure DNS."""
        link_names = sorted(self.internet.links)
        switch_list = sorted(self.switches.values(), key=lambda s: s.name)
        li = 0
        for app_id in sorted(self.specs):
            spec = self.specs[app_id]
            # Under a sharded control plane an app's VIPs must land on its
            # owner shard's switch slice, or every later reconfiguration
            # would start with a cross-shard migration.
            if isinstance(self.viprip, ShardedControlPlane):
                candidates = self.viprip.switches_for_app(app_id)
            else:
                candidates = switch_list
            weights = {}
            for _ in range(spec.n_vips):
                switch = min(candidates, key=lambda s: (s.num_vips, s.name))
                vip = self.vip_pool.allocate()
                switch.add_vip(vip, app_id)
                link = link_names[li % len(link_names)]
                li += 1
                self.bgp.advertise_now(vip, link)
                self.state.register_vip(vip, app_id, switch.name, link)
                weights[vip] = 1.0
            self.authority.configure(app_id, weights)

    def _bootstrap_instances(self) -> None:
        """Initial placement: spread each app's t=0 demand over pods
        (always wired instantly: this is build-time configuration).

        Apps sharing an ``affinity_group`` (tiers of one website) get the
        same pod offset, so their covers coincide and backend traffic
        stays intra-pod (Section II's co-placement).
        """
        pod_names = sorted(self.pod_managers)
        pod_demand: dict[str, dict[str, float]] = {p: {} for p in pod_names}
        ordered = sorted(self.specs)
        group_offset: dict[str, int] = {}
        for i, app_id in enumerate(ordered):
            group = self.specs[app_id].affinity_group
            if group is not None and group not in group_offset:
                group_offset[group] = i
        for idx, app_id in enumerate(ordered):
            spec = self.specs[app_id]
            if spec.affinity_group is not None:
                idx = group_offset[spec.affinity_group]
            cpu = spec.cpu_demand(0.0)
            cover = max(
                spec.min_instances,
                min(len(pod_names), spec.instances_needed(0.0)),
            )
            cover = min(cover, len(pod_names))
            share = cpu / cover if cover else 0.0
            for j in range(cover):
                pod = pod_names[(idx + j) % len(pod_names)]
                pod_demand[pod][app_id] = pod_demand[pod].get(app_id, 0.0) + max(
                    share, 1e-6
                )
        self._solve_and_apply_epochs(
            {p: d for p, d in pod_demand.items() if d}, t=0.0, epoch_tag="boot"
        )
        for app_id in self.specs:
            self._ensure_exposure(app_id)

    def _solve_and_apply_epochs(
        self, pod_demand: dict[str, dict[str, float]], t: float, epoch_tag
    ) -> list[PodReport]:
        """Run one placement epoch for *pod_demand*'s pods through the
        engine: prepare all plans, fan the pure solves out, then apply in
        sorted pod order (the same order the serial loop used, so the
        merge is deterministic)."""
        names = sorted(pod_demand)
        plans: list[EpochPlan] = []
        tasks: list[PlacementTask] = []
        for name in names:
            manager = self.pod_managers[name]
            plan = manager.prepare_epoch(dict(pod_demand[name]), self.specs, t=t)
            plans.append(plan)
            tasks.append(
                PlacementTask(
                    key=name,
                    problem=plan.problem,
                    controller=manager.controller,
                    # Randomized controllers get a stable per-(pod, epoch)
                    # seed so parallel == serial bit-for-bit.
                    seed=(
                        derive_seed(name, epoch_tag)
                        if hasattr(manager.controller, "rng")
                        else None
                    ),
                    trace_ctx=(
                        {"t": t, "epoch": str(epoch_tag)}
                        if self.trace.enabled
                        else None
                    ),
                )
            )
        solutions = self.engine.solve_batch(tasks)
        return [
            self.pod_managers[name].apply_epoch(plan, solution, self.specs)
            for name, plan, solution in zip(names, plans, solutions)
        ]

    def _solve_pod_epoch(self, manager: PodManager, plan: EpochPlan):
        """Single-pod solve hook (``PodManager.solve_fn``): routes solves
        initiated *by* a pod manager — crash recovery via
        ``replace_lost`` — through the engine, exactly like batch epochs.
        No seed / trace_ctx: these are the same defaults a direct
        ``controller.solve`` would have used, and fault events carry
        their own trace."""
        return self.engine.solve_batch(
            [
                PlacementTask(
                    key=manager.pod.name,
                    problem=plan.problem,
                    controller=manager.controller,
                    seed=(
                        derive_seed(manager.pod.name, f"fault@{plan.t}")
                        if hasattr(manager.controller, "rng")
                        else None
                    ),
                )
            ]
        )[0]

    # ---------------------------------------------------------------- RIP wiring
    def _wire_rip(self, vm: VM) -> None:
        """Configure a new instance's RIP under one of its app's VIPs.

        Instant mode mutates the switch table directly; serialized mode
        (Section III-C) submits a request to the VIP/RIP manager and
        completes asynchronously — the instance starts serving only once
        the request lands.
        """
        if vm.rip is None:
            return
        if self.viprip is not None and self._started:
            self._pending_wirings[vm.rip] = vm
            done = self.viprip.submit(
                VipRipRequest("new_rip", vm.app, rip=vm.rip)
            )
            done.callbacks.append(lambda ev, vm=vm: self._on_wired(vm, ev))
            return
        # Only VIPs currently on a healthy switch count (a VIP is briefly
        # off both switches mid-K2-transfer; a failed switch takes no new
        # RIPs).
        vips = [
            v
            for v in self.state.app_vips.get(vm.app, [])
            if self.state.switch_is_up(self.state.vips[v].switch)
            and self.state.switch_of_vip(v).has_vip(v)
        ]
        if not vips:
            return
        # Least-populated VIP group of the app.
        vip = min(
            vips, key=lambda v: (len(self.state.switch_of_vip(v).entry(v).rips), v)
        )
        # Join at the group's mean weight so a new instance neither starves
        # nor undoes a K6 rebalancing of its siblings.
        siblings = self.state.switch_of_vip(vip).entry(vip).rips
        weight = (sum(siblings.values()) / len(siblings)) if siblings else 1.0
        self.state.switch_of_vip(vip).add_rip(vip, vm.rip, weight=max(weight, 1e-6))
        self.state.register_rip(vm.rip, vm.app, vip, vm)
        if self.viprip is not None:
            # Keep the manager's index authoritative for later del_rip.
            self.viprip.rip_index[vm.rip] = (vip, self.state.vips[vip].switch)
        self.state.reconfigurations += 1
        self._ensure_exposure(vm.app)

    def _on_wired(self, vm: VM, event) -> None:
        """Completion of a serialized new_rip request."""
        from repro.hosts.vm import VMState

        mine = self._pending_wirings.get(vm.rip) is vm
        if mine:
            self._pending_wirings.pop(vm.rip, None)
        if not event.ok:
            return  # request errored; the reconciler re-wires survivors
        result = event.value
        if result is None:
            # Rejected (no hosting switch had capacity) or dropped by a
            # manager crash; a crash-safe deployment's reconciler re-wires
            # still-running VMs on its next pass.
            return
        vip, _switch = result
        if not mine or vm.state != VMState.RUNNING or vm.host is None:
            # The VM stopped (or the RIP was repurposed) while the request
            # was queued: undo the switch entry.
            self.viprip.submit(VipRipRequest("del_rip", vm.app, rip=vm.rip))
            return
        self.state.register_rip(vm.rip, vm.app, vip, vm)
        self.state.reconfigurations += 1
        self._ensure_exposure(vm.app)

    def _unwire_rip(self, vm: VM) -> None:
        if vm.rip is None:
            return
        if self.viprip is not None and self._started:
            if self._pending_wirings.get(vm.rip) is vm:
                # Wiring never landed; _on_wired will clean up the switch.
                del self._pending_wirings[vm.rip]
                return
            if vm.rip not in self.state.rips:
                return
            self.state.unregister_rip(vm.rip)
            self.viprip.submit(VipRipRequest("del_rip", vm.app, rip=vm.rip))
            self.state.reconfigurations += 1
            self._ensure_exposure(vm.app)
            return
        if vm.rip not in self.state.rips:
            return
        info = self.state.unregister_rip(vm.rip)
        switch = self.state.switch_of_vip(info.vip)
        try:
            if switch.has_vip(info.vip):
                switch.remove_rip(info.vip, vm.rip)
        except KeyError:  # pragma: no cover - defensive
            pass
        if self.viprip is not None:
            self.viprip.rip_index.pop(vm.rip, None)
        self.state.reconfigurations += 1
        self._ensure_exposure(vm.app)

    def _ensure_exposure(self, app: str) -> None:
        """Never answer DNS with a VIP that cannot serve — no RIPs, a
        failed switch, or a dead access link (the K1 re-steer)."""
        vips = self.state.app_vips.get(app, [])
        if not vips:
            return
        current = self.authority.weights(app)
        serving = {v for v in vips if self.state.vip_serving(v)}
        if not serving:
            return  # app fully down; keep old zone rather than crash
        # Respect deliberate weight-0 drains (K1/K2) on serving VIPs; only
        # zero out VIPs that genuinely cannot serve, and restore our own
        # zeroes once the VIP serves again.
        weights = {}
        for v in vips:
            if v in serving:
                w = current.get(v, 1.0)
                if w == 0 and v in self._auto_drained:
                    w = 1.0
                    self._auto_drained.discard(v)
                weights[v] = w
            else:
                weights[v] = 0.0
                self._auto_drained.add(v)
        if all(w == 0 for w in weights.values()):
            weights = {v: (1.0 if v in serving else 0.0) for v in vips}
            self._auto_drained -= serving
        if weights != current:
            self.authority.configure(app, weights)

    # ----------------------------------------------------------- fault control
    # Every handler returns an Event that succeeds once the platform's
    # *degradation response* is complete (demand re-placed, VIPs re-homed,
    # DNS re-steered) — not when the hardware comes back.  The fault
    # injector waits on these to measure MTTR.

    def fault_targets(self) -> dict[str, set[str]]:
        """Every target name the fault handlers can resolve, by fault
        class — the inventory :meth:`FaultSchedule.validate_targets`
        checks schedules against before injection ever starts."""
        targets: dict[str, set[str]] = {
            "server": set(self.state.servers) | set(self._crashed_servers),
            "switch": set(self.switches),
            "link": set(self.internet.links),
        }
        if self.viprip is not None:
            managers = {"viprip", "manager"}
            if isinstance(self.viprip, ShardedControlPlane):
                managers |= {s.name for s in self.viprip.shards}
                targets["shard"] = {
                    f"{a.name}:{b.name}"
                    for a in self.viprip.shards
                    for b in self.viprip.shards
                    if a.id != b.id
                }
            targets["manager"] = managers
        return targets

    def crash_server(self, name: str) -> Event:
        """A physical server dies: its VMs are lost on the spot; after the
        detection delay the owning pod manager re-places the displaced
        demand, spilling to the global manager (K3) if the pod is short."""
        done = Event(self.env)
        server = self.state.servers.get(name)
        if server is None or server.pod is None or name in self._crashed_servers:
            done.succeed()
            return done
        manager = self.pod_managers[server.pod]
        home_pod = server.pod
        manager.crash_server(server)
        self._crashed_servers[name] = (home_pod, server)
        self.env.process(self._recover_server_crash(manager, done))
        return done

    def _recover_server_crash(self, manager: PodManager, done: Event):
        yield self.env.timeout(self.config.fault_detection_s)
        report = manager.replace_lost(self.specs, t=self.env.now)
        if (
            report is not None
            and report.overloaded
            and self.global_manager is not None
        ):
            # In-pod re-placement came up short: pull servers (K3).
            transfer = self.global_manager.relieve_capacity_loss(manager, report)
            if transfer is not None:
                yield transfer
                manager.replace_lost(self.specs, t=self.env.now)
        done.succeed()

    def recover_server(self, name: str) -> Event:
        """A crashed server comes back (empty) and rejoins its home pod —
        or whichever pod has room if the home pod filled up meanwhile."""
        done = Event(self.env)
        parked = self._crashed_servers.pop(name, None)
        if parked is None:
            done.succeed()
            return done
        home_pod, server = parked
        candidates = [home_pod] + [p for p in sorted(self.pod_managers) if p != home_pod]
        for pod_name in candidates:
            pod = self.pod_managers[pod_name].pod
            if pod.n_servers < pod.max_servers:
                pod.add_server(server)
                break
        done.succeed()
        return done

    def fail_switch(self, name: str) -> Event:
        """An LB switch dies: its VIPs black-hole until each is re-homed
        to a healthy switch via the K2 transfer path (with retry,
        exponential backoff and a bounded per-VIP timeout)."""
        done = Event(self.env)
        if name not in self.switches or name in self.state.failed_switches:
            done.succeed()
            return done
        self.state.failed_switches.add(name)
        if self.viprip is not None:
            self.viprip.mark_failed(name)
        self.env.process(self._rehome_failed_switch(name, done))
        return done

    def _rehome_failed_switch(self, name: str, done: Event):
        yield self.env.timeout(self.config.fault_detection_s)
        victim = self.switches[name]
        # K1 first: stop answering DNS with the dead VIPs while they move.
        for app in sorted({self.state.vips[v].app for v in victim.vips()}):
            self._ensure_exposure(app)
        for vip in list(victim.vips()):
            if name not in self.state.failed_switches:
                break  # switch recovered first; survivors serve in place
            if not victim.has_vip(vip):
                continue  # deleted while we worked through the list
            app = self.state.vips[vip].app
            if self.viprip is not None:
                yield self.viprip.submit(
                    VipRipRequest("move_vip", app, vip=vip, switch=name, priority=0)
                )
            else:
                yield from self._rehome_vip(vip, name)
        done.succeed()

    def _rehome_vip(self, vip: str, src_name: str):
        """Instant-mode re-home of one VIP with the same retry discipline
        as the serialized path (backoff doubling, bounded total time)."""
        src = self.switches[src_name]
        deadline = self.env.now + self.config.fault_rehome_timeout_s
        backoff = self.config.fault_rehome_backoff_s
        is_up = self.state.switch_is_up
        while src.has_vip(vip):
            target = landing_target(
                self.switches, is_up, len(src.entry(vip).rips), {src_name}
            )
            if target is not None:
                yield self.env.timeout(self.config.switch_reconfig_s)
                # The target may have failed while we reconfigured (flap).
                if src.has_vip(vip) and can_land(
                    target, is_up, len(src.entry(vip).rips)
                ):
                    entry = src.remove_vip(vip)
                    target.install_entry(entry)
                    self._on_vip_rehomed(vip, target.name)
                    return True
            self.rehome_retries += 1
            if self.env.now + backoff > deadline:
                return False
            yield self.env.timeout(backoff)
            backoff *= 2.0
        return False

    def _on_vip_rehomed(self, vip: str, switch_name: str) -> None:
        """Post-move bookkeeping shared by the instant and serialized
        re-home paths: registry, reconfig count, DNS exposure."""
        self.state.move_vip(vip, switch_name)
        self.state.reconfigurations += 1
        self._ensure_exposure(self.state.vips[vip].app)

    def recover_switch(self, name: str) -> Event:
        """A failed switch comes back; VIPs that were never re-homed are
        still in its table and serve again immediately."""
        done = Event(self.env)
        if name not in self.state.failed_switches:
            done.succeed()
            return done
        self.state.failed_switches.discard(name)
        if self.viprip is not None:
            self.viprip.mark_recovered(name)
        for vip in self.switches[name].vips():
            self._ensure_exposure(self.state.vips[vip].app)
        done.succeed()
        return done

    def fail_link(self, name: str) -> Event:
        """An access link goes dark: after detection, selective exposure
        (K1) steers DNS demand away from the dead access router."""
        done = Event(self.env)
        link = self.internet.links.get(name)
        if link is None or not link.is_up:
            done.succeed()
            return done
        link.fail()
        self.env.process(self._resteer_failed_link(name, done))
        return done

    def _resteer_failed_link(self, name: str, done: Event):
        yield self.env.timeout(self.config.fault_detection_s)
        apps = sorted(
            {info.app for info in self.state.vips.values() if info.link == name}
        )
        for app in apps:
            self._ensure_exposure(app)
        done.succeed()

    def recover_link(self, name: str) -> Event:
        done = Event(self.env)
        link = self.internet.links.get(name)
        if link is not None and not link.is_up:
            link.restore()
            for app in sorted(
                {info.app for info in self.state.vips.values() if info.link == name}
            ):
                self._ensure_exposure(app)
        done.succeed()
        return done

    def crash_manager(self, name: str = "viprip") -> Event:
        """The serialized VIP/RIP manager dies mid-operation: queued and
        in-flight requests are lost (their waiters see ``None``) and the
        volatile registries are wiped.  A supervisor restarts it after
        ``config.manager_restart_s``; recovery restores the latest
        checkpoint and replays the journal tail.  The returned event fires
        once replay is complete (the MTTR the injector measures)."""
        done = Event(self.env)
        if self.viprip is None or self._manager_is_crashed(name):
            done.succeed()
            return done
        before_lost = self.viprip.lost
        self._crash_manager_target(name)
        self.manager_crashes += 1
        lost = self.viprip.lost - before_lost
        if self.recovery_monitor is not None and lost:
            self.recovery_monitor.note_lost_reconfigurations(lost)
        self.env.process(self._restart_manager(done))
        return done

    def _manager_is_crashed(self, name: str) -> bool:
        """Sharded planes crash per shard (target ``shard-k``); the
        serialized manager is one unit whatever the target says."""
        if isinstance(self.viprip, ShardedControlPlane):
            return self.viprip.is_crashed(name)
        return self.viprip.crashed

    def _crash_manager_target(self, name: str) -> None:
        if isinstance(self.viprip, ShardedControlPlane):
            self.viprip.crash(name)
        else:
            self.viprip.crash()

    def _restart_manager(self, done: Event):
        yield self.env.timeout(self.config.manager_restart_s)
        yield from self.viprip.recover(failed=set(self.state.failed_switches))
        done.succeed()

    def recover_manager(self, name: str = "viprip") -> Event:
        """Force recovery of a crashed manager (a scheduled
        ``manager_recover`` event); a no-op when the supervisor's
        automatic restart already brought it back."""
        done = Event(self.env)
        if self.viprip is None or not self.viprip.crashed:
            done.succeed()
            return done
        self.env.process(self._force_recover_manager(done))
        return done

    def _force_recover_manager(self, done: Event):
        yield from self.viprip.recover(failed=set(self.state.failed_switches))
        done.succeed()

    def partition_shards(self, target: str) -> Event:
        """Sever the coordination path between two control-plane shards
        (``shard_partition`` fault; target ``"shard-i:shard-j"``).  The
        plane keeps serving both sides — divergence is reconciled by the
        gossip rounds once :meth:`heal_shards` runs."""
        done = Event(self.env)
        plane = self.viprip
        if isinstance(plane, ShardedControlPlane):
            a, _, b = target.partition(":")
            plane.partition(a, b)
        done.succeed()
        return done

    def heal_shards(self, target: str) -> Event:
        """Heal a shard partition and let anti-entropy converge."""
        done = Event(self.env)
        plane = self.viprip
        if isinstance(plane, ShardedControlPlane):
            a, _, b = target.partition(":")
            plane.heal(a, b)
        done.succeed()
        return done

    @property
    def reconfig_retries(self) -> int:
        """Re-home attempts retried across both reconfiguration modes."""
        extra = self.viprip.retries if self.viprip is not None else 0
        return self.rehome_retries + extra

    # ------------------------------------------------------------------- run
    def close(self) -> None:
        """Release the placement engine's worker pool and detach the
        auditor, so a shared trace bus outlives this datacenter without
        stale subscriptions."""
        self.engine.close()
        if self.auditor is not None:
            self.auditor.detach()

    def run(self, duration_s: float) -> None:
        """Advance the simulation by *duration_s* seconds."""
        if not self._started:
            self.env.process(self._epoch_loop())
            self._started = True
        self.env.run(until=self.env.now + duration_s)

    def _epoch_loop(self):
        while True:
            self._run_epoch(self.env.now)
            yield self.env.timeout(self.config.epoch_s)
            self.fluid_dns.advance(self.config.epoch_s)

    def _run_epoch(self, t: float) -> None:
        if self.trace.enabled:
            self.trace.emit("epoch.start", t=t, epoch=self.epochs)
        pod_demand: dict[str, dict[str, float]] = {
            p: defaultdict(float) for p in self.pod_managers
        }
        link_loads = {name: 0.0 for name in self.internet.links}
        vip_traffic: dict[str, float] = {}
        blackholed = 0.0

        for sw in self.switches.values():
            for vip in sw.vips():
                sw.set_vip_traffic(vip, 0.0)

        for app_id in sorted(self.specs):
            spec = self.specs[app_id]
            demand_gbps = spec.traffic_gbps(t)
            if demand_gbps <= 0:
                continue
            for vip, share in self.fluid_dns.shares(app_id).items():
                traffic = demand_gbps * share
                if traffic <= 0:
                    continue
                vip_traffic[vip] = traffic
                info = self.state.vips[vip]
                if not self.internet.link(info.link).is_up:
                    # Dead access link: demand is lost until the DNS
                    # re-steer (K1) moves the laggards away.
                    blackholed += traffic
                    continue
                link_loads[info.link] += traffic
                switch = self.switches[info.switch]
                if info.switch in self.state.failed_switches:
                    # Dead switch: traffic reaches the border router and
                    # dies there until the VIP is re-homed (K2).
                    blackholed += traffic
                    continue
                if not switch.has_vip(vip):
                    # Mid-transfer: residual laggard traffic is lost.
                    blackholed += traffic
                    continue
                switch.set_vip_traffic(vip, traffic)
                weights = switch.entry(vip).normalized_weights()
                if not weights:
                    blackholed += traffic
                    continue
                for rip, w in weights.items():
                    pod = self.state.pod_of_rip(rip)
                    if pod is None:
                        blackholed += traffic * w
                        continue
                    pod_demand[pod][app_id] += traffic * w

        for name, load in link_loads.items():
            if self.internet.link(name).is_up:
                self.internet.link(name).set_load(load)
        self.state.vip_traffic = vip_traffic
        self.state.blackholed_gbps = blackholed
        if self.recovery_monitor is not None:
            self.recovery_monitor.note_dropped(blackholed, self.config.epoch_s)

        reports = self._solve_and_apply_epochs(
            {name: dict(pod_demand[name]) for name in self.pod_managers},
            t=t,
            epoch_tag=self.epochs,
        )
        for report in reports:
            self.pod_util[report.pod].observe(report.utilization)
        self.reports_history.append(reports)

        total_demand = sum(r.demand_cpu for r in reports)
        total_satisfied = sum(r.satisfied_cpu for r in reports)
        self.satisfied.observe(
            total_satisfied / total_demand if total_demand > 0 else 1.0
        )
        self.link_imbalance.observe(max_mean_ratio(self.internet.utilizations()))
        self.switch_imbalance.observe(
            max_mean_ratio([s.utilization for s in self.switches.values()])
        )

        if self.global_manager is not None:
            self.global_manager.react(reports, t)
        if self.trace.enabled:
            # Emitted after the global manager reacted: this is the
            # quiescent point where the auditor's structural sweep runs.
            self.trace.emit(
                "epoch.end", t=t, epoch=self.epochs,
                blackholed=round(blackholed, 6),
                satisfied=round(
                    total_satisfied / total_demand if total_demand > 0 else 1.0, 6
                ),
                reconfigurations=self.state.reconfigurations,
            )
        self.epochs += 1

    # ------------------------------------------------------------- accessors
    def total_demand_gbps(self, t: Optional[float] = None) -> float:
        t = self.env.now if t is None else t
        return sum(s.traffic_gbps(t) for s in self.specs.values())

    def link_utilizations(self) -> dict[str, float]:
        return {n: l.utilization for n, l in self.internet.links.items()}

    def switch_utilizations(self) -> dict[str, float]:
        return {n: s.utilization for n, s in self.switches.items()}

    def pod_utilizations(self) -> dict[str, float]:
        return {n: m.pod.utilization for n, m in self.pod_managers.items()}

    def action_log(self):
        if self.global_manager is None:
            return None
        return self.global_manager.log

    def invariants_ok(self) -> bool:
        """Platform-wide hard invariants (used by E1 and integration tests)."""
        for sw in self.switches.values():
            if sw.num_vips > sw.limits.max_vips or sw.num_rips > sw.limits.max_rips:
                return False
        for manager in self.pod_managers.values():
            for server in manager.pod.servers:
                if server.cpu_allocated > server.spec.cpu_capacity + 1e-6:
                    return False
                if server.mem_allocated > server.spec.mem_gb + 1e-6:
                    return False
        for rip, info in self.state.rips.items():
            if not info.vm.is_serving:
                return False
        return True
