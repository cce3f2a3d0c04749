"""Tests for the three placement controllers and shared problem machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import (
    DistributedController,
    GreedyController,
    PlacementProblem,
    PlacementSolution,
    TangController,
    evaluate_solution,
)
from repro.placement.greedy import waterfill_load
from repro.placement.problem import count_changes


def simple_problem(
    n_servers=4,
    n_apps=3,
    cpu=1.0,
    mem=16.0,
    demands=None,
    app_mem=4.0,
    current=None,
):
    demands = demands if demands is not None else [0.5] * n_apps
    current = (
        current
        if current is not None
        else np.zeros((n_servers, n_apps), dtype=bool)
    )
    return PlacementProblem(
        server_cpu=np.full(n_servers, cpu),
        server_mem=np.full(n_servers, mem),
        app_cpu_demand=np.asarray(demands, dtype=float),
        app_mem=np.full(n_apps, app_mem),
        current=current,
    )


def random_problem(rng, n_servers=12, n_apps=8, load_factor=0.7):
    demands = rng.uniform(0.1, 1.0, n_apps)
    demands *= load_factor * n_servers / demands.sum()
    app_mem = rng.uniform(1.0, 4.0, n_apps)
    # Build a memory-feasible current placement.
    current = np.zeros((n_servers, n_apps), dtype=bool)
    mem_free = np.full(n_servers, 16.0)
    for s in range(n_servers):
        for a in range(n_apps):
            if rng.random() < 0.15 and mem_free[s] >= app_mem[a]:
                current[s, a] = True
                mem_free[s] -= app_mem[a]
    return PlacementProblem(
        server_cpu=np.ones(n_servers),
        server_mem=np.full(n_servers, 16.0),
        app_cpu_demand=demands,
        app_mem=app_mem,
        current=current,
    )


CONTROLLERS = [TangController(), GreedyController(), DistributedController(sample_size=6)]


# ------------------------------------------------------------------ problem


def test_problem_validation():
    with pytest.raises(ValueError, match="server capacities"):
        simple_problem(cpu=0.0)
    with pytest.raises(ValueError, match="shape"):
        PlacementProblem(
            server_cpu=np.ones(2),
            server_mem=np.ones(3),
            app_cpu_demand=np.ones(1),
            app_mem=np.ones(1),
            current=np.zeros((2, 1), dtype=bool),
        )
    with pytest.raises(ValueError, match="demands"):
        simple_problem(demands=[-1.0, 0.0, 0.0])


def test_problem_validation_reads_a_uniform_column_once():
    """A zero-stride column (one float broadcast, as mega pods store
    uniform capacities and VM sizes) passes or fails on its one value."""

    def uniform(value, n):
        return np.broadcast_to(np.float64(value), (n,))

    def problem(cpu=1.0, mem=8.0, app_mem=1.0):
        return PlacementProblem(
            server_cpu=uniform(cpu, 4),
            server_mem=uniform(mem, 4),
            app_cpu_demand=np.ones(3),
            app_mem=uniform(app_mem, 3),
            current=np.zeros((4, 3), dtype=bool),
        )

    ok = problem()
    assert ok.server_cpu.strides == ok.server_mem.strides == (0,)
    assert ok.app_mem.strides == (0,)
    with pytest.raises(ValueError, match="server capacities"):
        problem(cpu=0.0)
    with pytest.raises(ValueError, match="server capacities"):
        problem(mem=-1.0)
    with pytest.raises(ValueError, match="per-instance memory"):
        problem(app_mem=0.0)


def test_solution_validation_catches_violations():
    prob = simple_problem()
    bad_placement = np.zeros((4, 3), dtype=bool)
    bad_load = np.zeros((4, 3))
    bad_load[0, 0] = 0.5  # load without placement
    sol = PlacementSolution(placement=bad_placement, load=bad_load)
    with pytest.raises(ValueError, match="without an instance"):
        sol.validate(prob)

    over = np.ones((4, 3), dtype=bool)
    load = np.zeros((4, 3))
    load[0, :] = 1.0  # 3 CPU on a 1-CPU server
    sol2 = PlacementSolution(placement=over, load=load)
    with pytest.raises(ValueError, match="CPU capacity"):
        sol2.validate(prob)


def test_solution_validation_memory():
    prob = simple_problem(mem=4.0, app_mem=4.0)
    placement = np.zeros((4, 3), dtype=bool)
    placement[0, :2] = True  # 8 GB on a 4 GB server
    sol = PlacementSolution(placement=placement, load=np.zeros((4, 3)))
    with pytest.raises(ValueError, match="memory"):
        sol.validate(prob)


def test_count_changes():
    a = np.array([[True, False], [False, False]])
    b = np.array([[False, False], [True, True]])
    assert count_changes(a, b) == 3


# ---------------------------------------------------------------- waterfill


def test_waterfill_respects_capacity_and_demand():
    prob = simple_problem(n_servers=2, n_apps=2, cpu=1.0, demands=[1.5, 0.3])
    placement = np.array([[True, True], [True, False]])
    load = waterfill_load(prob, placement)
    assert (load.sum(axis=1) <= 1.0 + 1e-9).all()
    assert (load.sum(axis=0) <= np.array([1.5, 0.3]) + 1e-9).all()
    # Waterfill is near- but not exactly max-flow-optimal (that gap is the
    # greedy-vs-Tang quality difference E12 measures); it must still get
    # within a few percent of the optimum 1.8 here.
    assert 1.75 <= load.sum() <= 1.8 + 1e-9


def test_waterfill_overload_spreads():
    prob = simple_problem(n_servers=1, n_apps=2, cpu=1.0, demands=[5.0, 5.0])
    placement = np.ones((1, 2), dtype=bool)
    load = waterfill_load(prob, placement)
    assert load.sum() == pytest.approx(1.0)


def test_waterfill_no_placement_no_load():
    prob = simple_problem()
    load = waterfill_load(prob, np.zeros((4, 3), dtype=bool))
    assert load.sum() == 0


# ------------------------------------------------------------- controllers


@pytest.mark.parametrize("controller", CONTROLLERS, ids=lambda c: c.name)
def test_controller_solves_feasible_instance(controller):
    prob = simple_problem(demands=[0.5, 0.5, 0.5])
    sol = controller.solve(prob)
    q = evaluate_solution(prob, sol)  # validates feasibility
    assert q.satisfied_fraction > 0.0
    assert q.wall_time_s >= 0.0


def test_tang_satisfies_all_demand_when_capacity_allows():
    prob = simple_problem(n_servers=6, n_apps=4, demands=[0.8, 0.8, 0.8, 0.8])
    sol = TangController().solve(prob)
    q = evaluate_solution(prob, sol)
    assert q.satisfied_fraction == pytest.approx(1.0)


def test_greedy_satisfies_all_demand_when_capacity_allows():
    prob = simple_problem(n_servers=6, n_apps=4, demands=[0.8, 0.8, 0.8, 0.8])
    sol = GreedyController().solve(prob)
    q = evaluate_solution(prob, sol)
    assert q.satisfied_fraction == pytest.approx(1.0)


def test_tang_no_changes_when_current_placement_suffices():
    current = np.zeros((4, 3), dtype=bool)
    current[0, 0] = current[1, 1] = current[2, 2] = True
    prob = simple_problem(demands=[0.5, 0.5, 0.5], current=current)
    sol = TangController().solve(prob)
    assert sol.changes == 0
    assert evaluate_solution(prob, sol).satisfied_fraction == pytest.approx(1.0)


def test_tang_load_shift_is_optimal_where_greedy_is_not():
    # 2 servers; app0 placed on both, app1 only on server1.
    # Optimal: app0 entirely on server0, app1 fills server1.
    current = np.array([[True, False], [True, True]])
    prob = simple_problem(
        n_servers=2, n_apps=2, cpu=1.0, demands=[1.0, 1.0], current=current
    )
    tang = TangController(max_iterations=0)  # pure load shift, no changes
    sol = tang.solve(prob)
    assert sol.satisfied().sum() == pytest.approx(2.0)


def test_tang_makes_room_by_stopping_idle_instances():
    # One server, memory fits exactly one instance; an idle app occupies it.
    current = np.array([[True, False]])
    prob = PlacementProblem(
        server_cpu=np.array([1.0]),
        server_mem=np.array([4.0]),
        app_cpu_demand=np.array([0.0, 0.9]),  # app0 idle, app1 needs room
        app_mem=np.array([4.0, 4.0]),
        current=current,
    )
    sol = TangController().solve(prob)
    q = evaluate_solution(prob, sol)
    assert q.satisfied_fraction == pytest.approx(1.0)
    assert sol.placement[0, 1] and not sol.placement[0, 0]
    assert sol.changes == 2  # one stop + one start


def test_greedy_consolidates_underused_instances():
    current = np.zeros((4, 1), dtype=bool)
    current[:, 0] = True  # 4 instances for tiny demand
    prob = simple_problem(n_servers=4, n_apps=1, demands=[0.1], current=current)
    sol = GreedyController(stop_idle=True).solve(prob)
    assert sol.placement[:, 0].sum() == 1  # fits on one server
    assert evaluate_solution(prob, sol).satisfied_fraction == pytest.approx(1.0)


def test_greedy_keeps_instances_when_stop_idle_disabled():
    current = np.zeros((4, 1), dtype=bool)
    current[:, 0] = True
    prob = simple_problem(n_servers=4, n_apps=1, demands=[0.1], current=current)
    sol = GreedyController(stop_idle=False).solve(prob)
    assert sol.placement[:, 0].sum() == 4
    assert sol.changes == 0


def test_greedy_respects_max_instances():
    prob = simple_problem(n_servers=4, n_apps=1, demands=[3.0])
    prob.max_instances = np.array([2])
    sol = GreedyController().solve(prob)
    assert sol.placement[:, 0].sum() <= 2
    evaluate_solution(prob, sol)


def test_distributed_is_deterministic_with_seeded_rng():
    prob = random_problem(np.random.default_rng(1))
    s1 = DistributedController(rng=np.random.default_rng(7)).solve(prob)
    s2 = DistributedController(rng=np.random.default_rng(7)).solve(prob)
    assert np.array_equal(s1.placement, s2.placement)


def test_distributed_quality_below_tang_on_tight_instance():
    rng = np.random.default_rng(42)
    worse = 0
    for trial in range(5):
        prob = random_problem(np.random.default_rng(trial), n_servers=20, n_apps=30, load_factor=0.9)
        qt = evaluate_solution(prob, TangController().solve(prob))
        qd = evaluate_solution(
            prob, DistributedController(sample_size=3, rng=rng).solve(prob)
        )
        if qd.satisfied_fraction < qt.satisfied_fraction - 1e-9:
            worse += 1
    assert worse >= 3  # distributed loses on most tight instances


@pytest.mark.parametrize("controller", CONTROLLERS, ids=lambda c: c.name)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_controllers_always_produce_feasible_solutions(controller, seed):
    prob = random_problem(np.random.default_rng(seed))
    sol = controller.solve(prob)
    evaluate_solution(prob, sol)  # raises on any constraint violation


def test_tang_runtime_grows_with_scale():
    import time

    times = []
    for n in (20, 80):
        prob = random_problem(np.random.default_rng(0), n_servers=n, n_apps=2 * n)
        t0 = time.perf_counter()
        TangController().solve(prob)
        times.append(time.perf_counter() - t0)
    assert times[1] > times[0]  # the superlinear blow-up begins
