"""The server pod manager (Section III-A).

A pod manager "only knows the servers and applications of its pod".  Each
epoch it receives the CPU demand the global manager's routing has assigned
to its pod per application, solves an intra-pod placement problem with a
pluggable controller (greedy/agile by default, Tang's exact controller
optionally) and applies the result: boots/stops instance VMs and sets their
CPU slices (the intra-pod use of knob K5).

The *measured* decision wall time is reported — that is the quantity that
blows up when a pod grows too large (the elephant-pod problem, E2/E6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from repro.core.pod import Pod
from repro.hosts.migration import MigrationStats
from repro.hosts.server import PhysicalServer
from repro.hosts.vm import VM, VMState
from repro.lbswitch.addresses import AddressPool
from repro.placement.greedy import GreedyController
from repro.placement.problem import PlacementProblem
from repro.workload.apps import AppSpec


@dataclass
class EpochPlan:
    """The pure inputs of one pod epoch, split off so the solve stage can
    run out-of-process (:mod:`repro.perf`): everything here except
    ``servers`` is picklable, and only ``problem`` ships to a worker."""

    apps: list[str]
    assigned: dict[str, float]
    t: float
    problem: PlacementProblem
    servers: list[PhysicalServer]


@dataclass
class PodReport:
    """What a pod manager tells the global manager after an epoch."""

    pod: str
    t: float
    demand_cpu: float
    satisfied_cpu: float
    changes: int
    decision_time_s: float
    utilization: float
    n_servers: int
    n_vms: int

    @property
    def satisfied_fraction(self) -> float:
        if self.demand_cpu <= 0:
            return 1.0
        return self.satisfied_cpu / self.demand_cpu

    @property
    def overloaded(self) -> bool:
        """Demand exceeded what the pod could serve."""
        return self.satisfied_fraction < 0.999


class PodManager:
    """Local resource manager of one pod."""

    def __init__(
        self,
        pod: Pod,
        rip_pool: AddressPool,
        controller=None,
        on_start: Optional[Callable[[VM], None]] = None,
        on_stop: Optional[Callable[[VM], None]] = None,
        trace=None,
        trace_clock: Optional[Callable[[], float]] = None,
    ):
        self.pod = pod
        self.rip_pool = rip_pool
        self.controller = controller if controller is not None else GreedyController()
        self.on_start = on_start
        self.on_stop = on_stop
        # Trace bus + sim clock (vacate() has no plan.t to stamp with).
        self.trace = trace
        self.trace_clock = trace_clock
        self.migration_stats = MigrationStats()
        self.epochs_run = 0
        self.last_report: Optional[PodReport] = None
        self.server_crashes = 0
        # Last epoch's inputs, kept so a crash can re-run placement for
        # the displaced demand without waiting for the next control epoch.
        self._last_assigned: Optional[dict[str, float]] = None
        #: Optional solve-stage override: ``solve_fn(self, plan)`` returns
        #: the ``PlacementSolution`` for ``plan.problem``.  The datacenter
        #: facade points this at its engine so *every* solve — including
        #: fault-path re-placements via :meth:`replace_lost` — is seeded
        #: and traced the same way at every parallelism.  ``None``
        #: (default) solves in-process with :attr:`controller`.
        self.solve_fn: Optional[Callable] = None
        # Columnar problem-array caches: structural arrays are rebuilt
        # only when the server set / app set actually changes, so quiet
        # epochs reuse the same ndarray objects instead of reallocating.
        self._server_cache: tuple = ()
        self._app_cache: tuple = ()
        # Current-placement matrix cache: (server_key, apps, per-server
        # placement_rev, matrix).  The rev tuple makes staleness checks
        # O(S) attribute reads instead of an O(S x VMs) object rescan;
        # apply_epoch refreshes it with the realized placement, so across
        # epochs the scan never reruns unless something outside the epoch
        # loop (faults, K3/K4) attached or detached a VM.
        self._current_cache: tuple = ()

    # -- epoch ------------------------------------------------------------
    def run_epoch(
        self,
        assigned_cpu: Mapping[str, float],
        specs: Mapping[str, AppSpec],
        t: float = 0.0,
    ) -> PodReport:
        """Re-place and re-size this pod's VMs for the assigned demand.

        Parameters
        ----------
        assigned_cpu:
            app_id -> CPU demand routed to this pod this epoch.
        specs:
            Application specs (for per-instance memory etc.).  Must cover
            every app in *assigned_cpu* and every app with a VM here.
        """
        plan = self.prepare_epoch(assigned_cpu, specs, t=t)
        if self.solve_fn is not None:
            solution = self.solve_fn(self, plan)
        else:
            solution = self.controller.solve(plan.problem)
        return self.apply_epoch(plan, solution, specs)

    def prepare_epoch(
        self,
        assigned_cpu: Mapping[str, float],
        specs: Mapping[str, AppSpec],
        t: float = 0.0,
    ) -> EpochPlan:
        """Build the pure solve-stage inputs for one epoch.

        The returned plan plus any ``PlacementSolution`` for its problem
        can later be realized with :meth:`apply_epoch`; nothing may mutate
        the pod's servers in between (the epoch loop solves and applies
        within one simulation instant, so this holds by construction).
        """
        servers = self.pod.servers
        apps = sorted(set(assigned_cpu) | self.pod.apps_covered())
        missing = [a for a in apps if a not in specs]
        if missing:
            raise KeyError(f"missing app specs: {missing}")
        problem = self._build_problem(servers, apps, assigned_cpu, specs)
        return EpochPlan(
            apps=apps,
            assigned=dict(assigned_cpu),
            t=t,
            problem=problem,
            servers=servers,
        )

    def apply_epoch(
        self,
        plan: EpochPlan,
        solution,
        specs: Mapping[str, AppSpec],
    ) -> PodReport:
        """Realize a solved plan on the pod (the stateful apply stage)."""
        changes = self._apply(plan.servers, plan.apps, plan.problem, solution, specs)
        self.epochs_run += 1
        self._last_assigned = dict(plan.assigned)
        report = PodReport(
            pod=self.pod.name,
            t=plan.t,
            demand_cpu=float(plan.problem.total_demand),
            satisfied_cpu=float(solution.satisfied().sum()),
            changes=changes,
            decision_time_s=solution.wall_time_s,
            utilization=self.pod.utilization,
            n_servers=self.pod.n_servers,
            n_vms=self.pod.n_vms,
        )
        self.last_report = report
        if self.trace is not None and self.trace.enabled:
            # decision_time_s is wall-clock and is deliberately excluded:
            # trace content must be identical across engine parallelism.
            self.trace.emit(
                "pod.apply", t=plan.t, pod=self.pod.name,
                demand=round(report.demand_cpu, 6),
                satisfied=round(report.satisfied_cpu, 6),
                changes=report.changes,
                servers=report.n_servers, vms=report.n_vms,
            )
        return report

    def _build_problem(
        self,
        servers: list[PhysicalServer],
        apps: list[str],
        assigned_cpu: Mapping[str, float],
        specs: Mapping[str, AppSpec],
    ) -> PlacementProblem:
        s_count, a_count = len(servers), len(apps)
        server_key = tuple(
            (s.name, s.spec.cpu_capacity, s.spec.mem_gb) for s in servers
        )
        if not self._server_cache or self._server_cache[0] != server_key:
            self._server_cache = (
                server_key,
                np.asarray([s.spec.cpu_capacity for s in servers]),
                np.asarray([s.spec.mem_gb for s in servers]),
            )
        app_key = tuple((a, specs[a].vm_mem_gb) for a in apps)
        if not self._app_cache or self._app_cache[0] != app_key:
            self._app_cache = (
                app_key,
                np.asarray([specs[a].vm_mem_gb for a in apps]),
            )
        apps_key = tuple(apps)
        rev_key = tuple(s.placement_rev for s in servers)
        cache = self._current_cache
        if cache and cache[0] == server_key and cache[1] == apps_key and cache[2] == rev_key:
            current = cache[3]
        else:
            current = np.zeros((s_count, a_count), dtype=bool)
            app_index = {a: j for j, a in enumerate(apps)}
            for i, server in enumerate(servers):
                for vm in server.vms:
                    if vm.state != VMState.STOPPED:
                        current[i, app_index[vm.app]] = True
            self._current_cache = (server_key, apps_key, rev_key, current)
        return PlacementProblem(
            server_cpu=self._server_cache[1],
            server_mem=self._server_cache[2],
            app_cpu_demand=np.asarray(
                [float(assigned_cpu.get(a, 0.0)) for a in apps]
            ),
            app_mem=self._app_cache[1],
            current=current,
        )

    def _apply(
        self,
        servers: list[PhysicalServer],
        apps: list[str],
        problem: PlacementProblem,
        solution,
        specs: Mapping[str, AppSpec],
    ) -> int:
        """Realize the solution on the pod's servers; returns change count.

        The start/stop sets come from one vectorised diff of the solved
        placement against the plan's current matrix (the prepare/apply
        invariant guarantees the matrix still reflects the servers), so
        the per-server Python work is proportional to the *changes*, not
        to S x A.  Per server the realization order is unchanged: stops
        in ascending app order, then starts in ascending app order, then
        K5 resizes shrink-first.
        """
        changes = 0
        app_index = {a: j for j, a in enumerate(apps)}
        placement = np.asarray(solution.placement, dtype=bool)
        current = np.asarray(problem.current, dtype=bool)
        stops = current & ~placement
        starts = placement & ~current
        changed_rows = set(
            np.flatnonzero(stops.any(axis=1) | starts.any(axis=1)).tolist()
        )
        for i, server in enumerate(servers):
            if i in changed_rows:
                # Stops first: a start on this server may need the memory
                # a stopped instance frees.
                for j in np.flatnonzero(stops[i]):
                    app = apps[int(j)]
                    vm = server.vms_of(app)[0]
                    server.detach(vm.vm_id)
                    vm.state = VMState.STOPPED
                    if vm.rip is not None:
                        self.rip_pool.release(vm.rip)
                    changes += 1
                    if self.on_stop:
                        self.on_stop(vm)
                for j in np.flatnonzero(starts[i]):
                    app = apps[int(j)]
                    vm = VM(
                        vm_id=f"{app}@{server.name}",
                        app=app,
                        cpu_slice=0.0,  # sized below
                        mem_gb=specs[app].vm_mem_gb,
                        image_gb=specs[app].vm_image_gb,
                        state=VMState.RUNNING,
                        rip=self.rip_pool.allocate(),
                    )
                    server.attach(vm)
                    changes += 1
                    if self.on_start:
                        self.on_start(vm)
            # Size every remaining instance to its assigned load (K5).
            # Shrinks first so a grow never transiently exceeds capacity.
            resizes = [
                (vm, float(solution.load[i, app_index[vm.app]]))
                for vm in server.vms
            ]
            resizes.sort(key=lambda pair: pair[1] - pair[0].cpu_slice)
            for vm, new_slice in resizes:
                server.resize(vm.vm_id, new_slice)
        # The realized placement is exactly the solution's matrix; refresh
        # the prepare-stage cache so the next quiet epoch skips the scan.
        self._current_cache = (
            tuple((s.name, s.spec.cpu_capacity, s.spec.mem_gb) for s in servers),
            tuple(apps),
            tuple(s.placement_rev for s in servers),
            placement.copy(),
        )
        return changes

    # -- fault handling ---------------------------------------------------
    def crash_server(self, server: PhysicalServer) -> list[VM]:
        """A server died: its VMs are gone, the server leaves the pod.

        Every resident VM is marked dead and unwired (its RIP leaves the
        LB tables via ``on_stop``), so no switch keeps balancing traffic
        to a corpse.  Returns the victims; call :meth:`replace_lost` after
        the failure is detected to re-place their demand in the pod.
        """
        if server.pod != self.pod.name:
            raise KeyError(f"{server.name} not in pod {self.pod.name}")
        victims: list[VM] = []
        for vm in list(server.vms):
            server.detach(vm.vm_id)
            vm.state = VMState.STOPPED
            if vm.rip is not None:
                self.rip_pool.release(vm.rip)
            if self.on_stop:
                self.on_stop(vm)
            victims.append(vm)
        self.pod.remove_server(server.name)
        self.server_crashes += 1
        return victims

    def replace_lost(
        self, specs: Mapping[str, AppSpec], t: float = 0.0
    ) -> Optional[PodReport]:
        """Re-run placement for the last assigned demand on the surviving
        servers (the in-pod recovery path after a crash).

        Returns the fresh report, or ``None`` when no epoch has run yet.
        The caller escalates to the global manager (K3 server transfer)
        when the report still shows unsatisfied demand.
        """
        if self._last_assigned is None or not self.pod.servers:
            return None
        return self.run_epoch(self._last_assigned, specs, t=t)

    # -- K3 support: vacating servers -----------------------------------------
    def vacate(self, n: int) -> list[PhysicalServer]:
        """Empty up to *n* least-loaded servers for donation (knob K3).

        VM load is folded back into the remaining servers' spare capacity
        where possible; instances that do not fit are stopped (their demand
        re-enters the placement problem next epoch).  Each moved VM counts
        as a migration in :attr:`migration_stats`.
        """
        if n < 1:
            return []
        candidates = sorted(self.pod.servers, key=lambda s: (s.cpu_allocated, s.name))
        vacated: list[PhysicalServer] = []
        vms_before = self.pod.n_vms
        migrations_before = self.migration_stats.migrations
        stopped = 0
        for server in candidates:
            if len(vacated) >= n:
                break
            receivers = [
                s for s in self.pod.servers if s is not server and s not in vacated
            ]
            moved_all = True
            for vm in list(server.vms):
                target = self._find_receiver(receivers, vm)
                if target is None:
                    moved_all = False
                    break
                server.detach(vm.vm_id)
                # Rename to keep vm_id = app@server unique per server.
                vm.vm_id = f"{vm.app}@{target.name}"
                if target.vms_of(vm.app):
                    # Already an instance there: merge the load instead
                    # (clamped — cpu_free can be a hair negative from
                    # accumulated float rounding).
                    existing = target.vms_of(vm.app)[0]
                    merged = max(
                        0.0,
                        min(
                            existing.cpu_slice + vm.cpu_slice,
                            existing.cpu_slice + target.cpu_free,
                        ),
                    )
                    target.resize(existing.vm_id, merged)
                    vm.state = VMState.STOPPED
                    stopped += 1
                    if vm.rip is not None:
                        self.rip_pool.release(vm.rip)
                        if self.on_stop:
                            self.on_stop(vm)
                else:
                    target.attach(vm)
                self.migration_stats.migrations += 1
                self.migration_stats.bytes_copied_gb += vm.image_gb
            if moved_all and server.is_empty:
                vacated.append(server)
        for server in vacated:
            self.pod.remove_server(server.name)
        if self.trace is not None and self.trace.enabled:
            # The vms_before/after/stopped triple is the conservation
            # witness the InvariantAuditor checks: a vacate may stop VMs
            # deliberately (merged load) but must never lose one.
            self.trace.emit(
                "k3.vacate",
                t=self.trace_clock() if self.trace_clock is not None else 0.0,
                pod=self.pod.name, requested=n, vacated=len(vacated),
                migrations=self.migration_stats.migrations - migrations_before,
                stopped=stopped, vms_before=vms_before,
                vms_after=self.pod.n_vms,
            )
        return vacated

    @staticmethod
    def _find_receiver(receivers: list[PhysicalServer], vm: VM):
        """Best-fit receiving server for a migrating VM."""
        best = None
        for s in receivers:
            if s.vms_of(vm.app):
                return s  # merge path: no new memory needed
            if s.can_fit(vm.cpu_slice, vm.mem_gb):
                if best is None or s.cpu_free < best.cpu_free:
                    best = s  # tightest fit
        return best
