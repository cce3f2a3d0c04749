"""Property-based determinism contracts of the parallel engine.

* A parallel engine (``parallelism>1``) must produce the same
  ``PlacementSolution``s and ``PodReport``s as the serial fallback
  (``parallelism=1``) — bit-identical placements/loads, equal report
  fields except the measured ``decision_time_s``.
* Random epoch/fault interleavings (server crashes + in-pod recovery
  routed through the engine) must be identical at every parallelism.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pod import Pod
from repro.core.pod_manager import PodManager
from repro.hosts.server import PhysicalServer, ServerSpec
from repro.lbswitch.addresses import PRIVATE_RIP_POOL
from repro.perf.engine import PlacementEngine, PlacementTask, derive_seed
from repro.placement import TangController
from repro.workload.apps import AppSpec
from repro.workload.demand import ConstantDemand


def build_manager(n_pods, n_servers, controller_factory):
    managers = []
    pool = PRIVATE_RIP_POOL(10_000)
    for p in range(n_pods):
        pod = Pod(f"p{p}", max_servers=100, max_vms=1000)
        for i in range(n_servers):
            pod.add_server(PhysicalServer(f"p{p}-s{i}", ServerSpec(1.0, 32.0)))
        managers.append(PodManager(pod, pool, controller=controller_factory()))
    return managers


def run_epochs(managers, engine, demand_seq, specs):
    """The datacenter epoch loop in miniature: prepare all pods, solve the
    batch through *engine*, apply in order.  Returns all PodReports."""
    reports = []
    for epoch, demands in enumerate(demand_seq):
        plans = [pm.prepare_epoch(demands, specs, t=float(epoch)) for pm in managers]
        tasks = [
            PlacementTask(
                key=pm.pod.name,
                problem=plan.problem,
                controller=pm.controller,
                seed=derive_seed(pm.pod.name, epoch),
            )
            for pm, plan in zip(managers, plans)
        ]
        solutions = engine.solve_batch(tasks)
        reports.extend(
            pm.apply_epoch(plan, sol, specs)
            for pm, plan, sol in zip(managers, plans, solutions)
        )
    return reports


def report_key(r):
    # Everything the global manager consumes, minus the measured wall time.
    return (
        r.pod,
        r.t,
        round(r.demand_cpu, 12),
        round(r.satisfied_cpu, 12),
        r.changes,
        round(r.utilization, 12),
        r.n_servers,
        r.n_vms,
    )


def pod_state(managers):
    return [
        sorted(
            (s.name, vm.app, round(vm.cpu_slice, 12))
            for s in pm.pod.servers
            for vm in s.vms
        )
        for pm in managers
    ]


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 100),
    n_pods=st.integers(2, 4),
    epochs=st.integers(1, 3),
)
def test_parallel_reports_identical_to_serial(seed, n_pods, epochs):
    rng = np.random.default_rng(seed)
    apps = [f"a{i}" for i in range(5)]
    specs = {a: AppSpec(a, 0.25, ConstantDemand(1.0)) for a in apps}
    demand_seq = [
        {a: float(rng.uniform(0.0, 2.0)) for a in apps} for _ in range(epochs)
    ]
    results = {}
    for parallelism in (1, 2):
        managers = build_manager(n_pods, 4, TangController)
        with PlacementEngine(parallelism) as engine:
            reports = run_epochs(managers, engine, demand_seq, specs)
        results[parallelism] = (
            [report_key(r) for r in reports],
            pod_state(managers),
        )
    assert results[1] == results[2]


def attach_engine(managers, engine):
    """Route every manager's solve stage (including the fault path's
    ``replace_lost``) through *engine*, the way the datacenter does."""

    def solve_fn(pm, plan):
        (sol,) = engine.solve_batch(
            [
                PlacementTask(
                    key=pm.pod.name, problem=plan.problem,
                    controller=pm.controller,
                )
            ]
        )
        return sol

    for pm in managers:
        pm.solve_fn = solve_fn


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 100),
    n_pods=st.integers(2, 3),
    epochs=st.integers(2, 3),
    crash_pod=st.integers(0, 10),
    crash_idx=st.integers(0, 10),
)
def test_random_fault_sequences_identical_across_parallelism(
    seed, n_pods, epochs, crash_pod, crash_idx
):
    """Random epoch/fault interleavings: after the first epoch a random
    server in a random pod crashes and the pod recovers via
    ``replace_lost``, solved through the engine.  Reports and final pod
    state must be identical at parallelism 1 and 2."""
    rng = np.random.default_rng(seed)
    apps = [f"a{i}" for i in range(5)]
    specs = {a: AppSpec(a, 0.25, ConstantDemand(1.0)) for a in apps}
    demand_seq = [
        {a: float(rng.uniform(0.0, 2.0)) for a in apps} for _ in range(epochs)
    ]
    results = {}
    for parallelism in (1, 2):
        managers = build_manager(n_pods, 4, TangController)
        with PlacementEngine(parallelism) as engine:
            attach_engine(managers, engine)
            reports = run_epochs(managers, engine, demand_seq[:1], specs)
            pm = managers[crash_pod % n_pods]
            victim = pm.pod.servers[crash_idx % len(pm.pod.servers)]
            pm.crash_server(victim)
            reports.append(pm.replace_lost(specs, t=0.5))
            reports.extend(run_epochs(managers, engine, demand_seq[1:], specs))
        results[parallelism] = (
            [report_key(r) for r in reports],
            pod_state(managers),
        )
    assert results[1] == results[2]
