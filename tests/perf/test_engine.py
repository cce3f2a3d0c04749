"""The placement engine's contracts: exact serial fallback,
bit-identical parallel results, persistent pool."""

import numpy as np
import pytest

from repro.experiments.e02_placement_scalability import (
    make_instance,
    split_into_pods,
)
from repro.perf.engine import (
    PlacementEngine,
    PlacementTask,
    derive_seed,
    solve_placement_task,
)
from repro.placement import (
    DistributedController,
    GreedyController,
    TangController,
)


def make_tasks(n_servers=60, pod_size=20, seed=0, controller=GreedyController):
    problem = make_instance(n_servers, seed=seed)
    pods = split_into_pods(problem, pod_size)
    return [
        PlacementTask(key=f"pod-{i}", problem=p, controller=controller())
        for i, p in enumerate(pods)
    ]


def signatures(solutions):
    return [(s.placement.tobytes(), s.load.tobytes()) for s in solutions]


def test_serial_engine_matches_direct_solve():
    tasks = make_tasks()
    direct = [GreedyController().solve(t.problem) for t in tasks]
    with PlacementEngine(1) as engine:
        batched = engine.solve_batch(tasks)
    assert signatures(batched) == signatures(direct)


@pytest.mark.parametrize("controller", [GreedyController, TangController])
def test_parallel_matches_serial_bitwise(controller):
    serial_tasks = make_tasks(controller=controller)
    parallel_tasks = make_tasks(controller=controller)
    with PlacementEngine(1) as serial, PlacementEngine(2) as parallel:
        s = serial.solve_batch(serial_tasks)
        p = parallel.solve_batch(parallel_tasks)
    assert signatures(p) == signatures(s)


def test_seeded_distributed_identical_across_parallelism():
    def tasks():
        made = make_tasks(controller=lambda: DistributedController(rng=None))
        for t in made:
            t.seed = derive_seed(t.key, 0)
        return made

    with PlacementEngine(1) as serial, PlacementEngine(2) as parallel:
        s = serial.solve_batch(tasks())
        p = parallel.solve_batch(tasks())
    assert signatures(p) == signatures(s)


def test_pool_persists_across_batches():
    with PlacementEngine(2) as engine:
        for _ in range(3):
            engine.solve_batch(make_tasks())
        assert engine.pool_spawns == 1
        assert engine.batches == 3


def test_serial_engine_never_spawns_pool():
    with PlacementEngine(1) as engine:
        engine.solve_batch(make_tasks())
        assert engine.pool_spawns == 0


def test_single_task_batch_routes_to_resident_worker():
    """Even a one-task batch (a fault-path re-placement) is solved by the
    pool, and matches the in-process solve."""
    tasks = make_tasks(n_servers=20, pod_size=20)
    assert len(tasks) == 1
    direct = [GreedyController().solve(tasks[0].problem)]
    with PlacementEngine(4) as engine:
        solved = engine.solve_batch(tasks)
        assert engine.pool_spawns == 1
        assert engine.tasks_solved == 1
    assert signatures(solved) == signatures(direct)


def test_empty_batch():
    with PlacementEngine(2) as engine:
        assert engine.solve_batch([]) == []
        assert engine.pool_spawns == 0


def test_invalid_parallelism():
    with pytest.raises(ValueError):
        PlacementEngine(0)


def test_close_is_idempotent():
    engine = PlacementEngine(2)
    engine.solve_batch(make_tasks())
    engine.close()
    engine.close()
    # A fresh pool is spawned if the engine is used again after close.
    engine.solve_batch(make_tasks())
    assert engine.pool_spawns == 2
    engine.close()


def test_derive_seed_stable_and_distinct():
    assert derive_seed("pod-0", 3) == derive_seed("pod-0", 3)
    assert derive_seed("pod-0", 3) != derive_seed("pod-1", 3)
    assert derive_seed("pod-0", 3) != derive_seed("pod-0", 4)
    assert 0 <= derive_seed("pod-0", "boot") < 2**31


def test_solve_placement_task_reseeds_rng():
    task = make_tasks(controller=lambda: DistributedController(rng=None))[0]
    task.seed = 123
    sol_a = solve_placement_task(task)
    task.controller.rng = np.random.default_rng(999)  # would diverge if kept
    sol_b = solve_placement_task(task)
    assert sol_a.placement.tobytes() == sol_b.placement.tobytes()
