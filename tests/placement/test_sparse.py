"""CSR placement layer: roundtrips, dense bit-identity, bulk feasibility.

The acceptance bar for the sparse path is split in two:

* at scales the dense reference can afford (``S * A <= dense_limit``),
  :class:`SparseGreedyController` must be *bit-identical* to
  :class:`GreedyController` — same placement bytes, same float loads;
* above it, the O(nnz) bulk path must stay deterministic and feasible
  (capacity, memory, at-least-one-instance), which ``validate`` checks.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.e02_placement_scalability import make_instance
from repro.perf.engine import PlacementEngine, PlacementTask, derive_seed
from repro.placement import (
    GreedyController,
    PlacementProblem,
    SparseGreedyController,
    SparsePlacement,
)
from repro.placement.sparse import (
    SparseSolution,
    sparse_count_changes,
    sparse_waterfill,
)
from repro.placement.greedy import waterfill_load


def sparse_problem(problem: PlacementProblem) -> PlacementProblem:
    """The same problem with its current placement converted to CSR."""
    return PlacementProblem(
        server_cpu=problem.server_cpu,
        server_mem=problem.server_mem,
        app_cpu_demand=problem.app_cpu_demand,
        app_mem=problem.app_mem,
        current=SparsePlacement.from_dense(np.asarray(problem.current, bool)),
    )


# ------------------------------------------------------------ CSR basics


@settings(max_examples=40, deadline=None)
@given(
    s=st.integers(1, 12),
    a=st.integers(1, 15),
    seed=st.integers(0, 100),
    density=st.floats(0.0, 1.0),
)
def test_roundtrip_dense_csr_dense(s, a, seed, density):
    rng = np.random.default_rng(seed)
    dense = rng.random((s, a)) < density
    sp = SparsePlacement.from_dense(dense)
    assert np.array_equal(sp.to_dense(), dense)
    assert sp.nnz == int(dense.sum())
    assert np.array_equal(sp.instance_counts(), dense.sum(axis=0))
    # keys() are the row-major flat indices of the True cells.
    assert np.array_equal(sp.keys(), np.flatnonzero(dense.ravel()))
    assert sp.equals(SparsePlacement.from_dense(dense))


def test_from_entries_sorts_and_returns_alignment_order():
    rows = np.array([2, 0, 2, 1])
    cols = np.array([1, 3, 0, 2])
    payload = np.array([10.0, 20.0, 30.0, 40.0])
    sp, order = SparsePlacement.from_entries((3, 4), rows, cols)
    assert np.array_equal(sp.rows(), [0, 1, 2, 2])
    assert np.array_equal(sp.indices, [3, 2, 0, 1])
    assert np.array_equal(payload[order], [20.0, 40.0, 30.0, 10.0])


def test_tobytes_distinguishes_shape_and_content():
    a = SparsePlacement.from_dense(np.eye(3, dtype=bool))
    b = SparsePlacement.from_dense(np.eye(3, 4, dtype=bool))
    assert a.tobytes() != b.tobytes()
    assert a.tobytes() == SparsePlacement.from_dense(np.eye(3, dtype=bool)).tobytes()


def test_validation_rejects_malformed():
    with pytest.raises(ValueError):
        SparsePlacement((2, 3), np.array([0, 1]), np.array([0]))  # bad indptr
    with pytest.raises(ValueError):
        SparsePlacement((2, 3), np.array([0, 1, 1]), np.array([5]))  # col range
    with pytest.raises(ValueError):
        # duplicate column within a row
        SparsePlacement((1, 3), np.array([0, 2]), np.array([1, 1]))


def test_sparse_count_changes():
    before = SparsePlacement.from_dense(
        np.array([[1, 0], [1, 1]], dtype=bool)
    )
    after = SparsePlacement.from_dense(
        np.array([[0, 1], [1, 1]], dtype=bool)
    )
    assert sparse_count_changes(before, after) == 2  # one stop + one start


def test_pickle_roundtrip():
    sp = SparsePlacement.from_dense(np.eye(4, dtype=bool))
    clone = pickle.loads(pickle.dumps(sp))
    assert clone.equals(sp)


# ------------------------------------------ dense-delegation bit-identity


@pytest.mark.parametrize("n_servers", [40, 120])
def test_sparse_controller_bit_identical_to_dense(n_servers):
    base = make_instance(n_servers, seed=5)
    dense_sol = GreedyController().solve(base)
    ssol = SparseGreedyController().solve(sparse_problem(base))
    assert np.array_equal(ssol.placement.to_dense(), dense_sol.placement)
    # Loads byte-identical where placed, zero elsewhere.
    assert (
        dense_sol.load[dense_sol.placement].tobytes() == ssol.load.tobytes()
    )
    assert ssol.changes == dense_sol.changes
    ssol.validate(base)


def test_sparse_controller_stable_across_repeat_solves():
    """The dense controller's reusable buffer ring must not leak state
    between solves: solving A, B, then A again reproduces A's bytes."""
    a = make_instance(40, seed=1)
    b = make_instance(40, seed=2)
    ctrl = SparseGreedyController()
    first = ctrl.solve(sparse_problem(a))
    ctrl.solve(sparse_problem(b))
    again = ctrl.solve(sparse_problem(a))
    assert first.placement.tobytes() == again.placement.tobytes()
    assert first.load.tobytes() == again.load.tobytes()


def test_sparse_waterfill_matches_dense():
    base = make_instance(60, seed=11)
    placement = SparsePlacement.from_dense(np.asarray(base.current, bool))
    dense_load = waterfill_load(base, np.asarray(base.current, bool))
    sparse_load = sparse_waterfill(
        base.server_cpu, base.app_cpu_demand, placement
    )
    assert np.allclose(
        dense_load[placement.rows(), placement.indices],
        sparse_load,
        rtol=1e-9,
        atol=1e-12,
    )


# ------------------------------------------------------- bulk sparse path


def test_bulk_path_deterministic_and_feasible():
    base = make_instance(80, seed=7)
    prob = sparse_problem(base)
    # dense_limit=1 forces the O(nnz) bulk algorithm on a small instance.
    sols = [
        SparseGreedyController(dense_limit=1).solve(prob) for _ in range(2)
    ]
    assert sols[0].placement.tobytes() == sols[1].placement.tobytes()
    assert sols[0].load.tobytes() == sols[1].load.tobytes()
    sols[0].validate(base)
    # Ample capacity (load factor 0.7): demand should be ~fully satisfied.
    assert sols[0].satisfied().sum() >= 0.95 * base.app_cpu_demand.sum()


def test_bulk_path_places_onto_empty_current():
    """A freshly restored pod solves from a zero-VM current placement —
    the membership probe must not index into the empty key table."""
    base = make_instance(40, seed=3)
    prob = PlacementProblem(
        server_cpu=base.server_cpu,
        server_mem=base.server_mem,
        app_cpu_demand=base.app_cpu_demand,
        app_mem=base.app_mem,
        current=SparsePlacement.from_dense(
            np.zeros((base.n_servers, base.n_apps), dtype=bool)
        ),
    )
    sol = SparseGreedyController(dense_limit=1).solve(prob)
    sol.validate(base)
    assert sol.placement.indptr[-1] > 0
    assert sol.satisfied().sum() >= 0.95 * base.app_cpu_demand.sum()


def test_bulk_stop_idle_keeps_every_app_covered():
    base = make_instance(50, seed=13)
    sol = SparseGreedyController(dense_limit=1, stop_idle=True).solve(
        sparse_problem(base)
    )
    assert (sol.placement.instance_counts() >= 1).all()
    sol.validate(base)


# -------------------------------------------------- engine sparse codec


def test_engine_ships_sparse_solutions_identically():
    """SparseSolution survives the worker-process codec: parallel results
    are byte-identical to serial, and delta shipping still engages."""
    base = make_instance(30, seed=3)
    pods = 4
    size = base.n_servers // pods

    def tasks(epoch, currents, controllers):
        out = []
        for p in range(pods):
            lo, hi = p * size, (p + 1) * size
            sub = PlacementProblem(
                server_cpu=base.server_cpu[lo:hi],
                server_mem=base.server_mem[lo:hi],
                app_cpu_demand=base.app_cpu_demand * (1.0 + 0.01 * epoch),
                app_mem=base.app_mem,
                current=currents[p],
            )
            out.append(
                PlacementTask(
                    key=f"pod-{p}",
                    problem=sub,
                    controller=controllers[p],
                    seed=derive_seed(f"pod-{p}", epoch),
                )
            )
        return out

    def run(workers):
        currents = [
            SparsePlacement.from_dense(np.asarray(base.current, bool)[p * size : (p + 1) * size])
            for p in range(pods)
        ]
        controllers = [
            SparseGreedyController(dense_limit=1) for _ in range(pods)
        ]
        with PlacementEngine(workers) as engine:
            sigs = []
            for epoch in range(2):
                sols = engine.solve_batch(tasks(epoch, currents, controllers))
                for p, sol in enumerate(sols):
                    assert isinstance(sol, SparseSolution)
                    sigs.append(
                        (sol.placement.tobytes(), sol.load.tobytes())
                    )
                    # Adopt the solution (what a pod's apply step does).
                    currents[p] = sol.placement
            return sigs

    assert run(1) == run(2)
