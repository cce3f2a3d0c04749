"""CSR placement layer: roundtrips, dense bit-identity, bulk feasibility.

The acceptance bar for the sparse path is split in two:

* at scales the dense reference can afford (``S * A <= dense_limit``),
  :class:`SparseGreedyController` must be *bit-identical* to
  :class:`GreedyController` — same placement bytes, same float loads;
* above it, the O(nnz) bulk path must stay deterministic and feasible
  (capacity, memory, at-least-one-instance), which ``validate`` checks.
"""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mega import MegaConfig, MegaScaleDriver
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
    sparse_waterfill,
)
from repro.placement.greedy import waterfill_load
from tests.placement.sparse_ref import (
    placement_keys,
    same_placement,
    sparse_count_changes,
)


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
    # Entry keys are the row-major flat indices of the True cells.
    assert np.array_equal(placement_keys(sp), np.flatnonzero(dense.ravel()))
    assert same_placement(sp, SparsePlacement.from_dense(dense))


def test_from_entries_sorts_and_returns_alignment_order():
    rows = np.array([2, 0, 2, 1])
    cols = np.array([1, 3, 0, 2])
    payload = np.array([10.0, 20.0, 30.0, 40.0])
    sp, order = SparsePlacement.from_entries((3, 4), rows, cols)
    assert np.array_equal(sp.rows(), [0, 1, 2, 2])
    assert np.array_equal(sp.indices, [3, 2, 0, 1])
    assert np.array_equal(payload[order], [20.0, 40.0, 30.0, 10.0])


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
    assert same_placement(clone, sp)


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
    assert same_placement(first.placement, again.placement)
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


def _waterfill_reference(
    server_cpu, app_cpu_demand, placement, rounds=12, capped=None
):
    """The dense-mask waterfill that walks every entry every round; the
    live-set :func:`sparse_waterfill` must reproduce its bytes.  When
    *capped* is a list, each round appends whether some server scaled
    its wants down."""
    s_count, a_count = placement.shape
    rows = placement.rows()
    cols = placement.indices
    load = np.zeros(rows.shape[0])
    remaining = np.asarray(app_cpu_demand, dtype=float).copy()
    free = np.asarray(server_cpu, dtype=float).copy()
    for _ in range(rounds):
        entry_open = free[rows] > 1e-12
        counts = np.bincount(cols[entry_open], minlength=a_count)
        active = (remaining > 1e-12) & (counts > 0)
        if not active.any():
            break
        entry_act = entry_open & active[cols]
        want = np.zeros_like(load)
        act_cols = cols[entry_act]
        want[entry_act] = remaining[act_cols] / counts[act_cols]
        want_per_server = np.bincount(rows, weights=want, minlength=s_count)
        safe = np.where(want_per_server > 1e-15, want_per_server, 1.0)
        scale = np.where(
            want_per_server > 1e-15, np.minimum(1.0, free / safe), 0.0
        )
        if capped is not None:
            capped.append(
                not ((scale == 1.0) | (want_per_server == 0.0)).all()
            )
        grant = want * scale[rows]
        load += grant
        free -= np.bincount(rows, weights=grant, minlength=s_count)
        np.maximum(free, 0.0, out=free)
        remaining -= np.bincount(cols, weights=grant, minlength=a_count)
        np.maximum(remaining, 0.0, out=remaining)
    return load


@st.composite
def waterfill_instances(draw):
    """Random CSR placements with tight or ample server CPU, zero-demand
    apps and empty rows (an all-empty placement included)."""
    s = draw(st.integers(1, 12))
    a = draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.random((s, a)) < draw(st.sampled_from([0.0, 0.1, 0.4, 1.0]))
    dense[rng.random(s) < draw(st.sampled_from([0.0, 0.3]))] = False
    # Tight CPU caps servers and leaves demand for later rounds.
    server_cpu = rng.uniform(0.0, draw(st.sampled_from([0.05, 1.0, 50.0])), s)
    server_cpu[rng.random(s) < 0.1] = 0.0
    demand = rng.uniform(0.0, 10.0, a)
    demand[rng.random(a) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    rounds = draw(st.integers(1, 12))
    return server_cpu, demand, SparsePlacement.from_dense(dense), rounds


@settings(max_examples=300, deadline=None)
@given(inst=waterfill_instances())
def test_sparse_waterfill_bytes_match_reference(inst):
    server_cpu, demand, placement, rounds = inst
    load = sparse_waterfill(server_cpu, demand, placement, rounds=rounds)
    ref = _waterfill_reference(server_cpu, demand, placement, rounds=rounds)
    assert load.tobytes() == ref.tobytes()


def _waterfill_filter_every_round(
    server_cpu, app_cpu_demand, placement, rounds=12
):
    """The live-set waterfill as it was before its liveness test went
    O(S + A): it gathers both liveness masks over every live entry each
    round, divides per entry, and zero-fills the load up front."""
    s_count, a_count = placement.shape
    rows = placement.rows()
    cols = placement.indices
    load = np.zeros(rows.shape[0])
    remaining = np.asarray(app_cpu_demand, dtype=float).copy()
    free = np.asarray(server_cpu, dtype=float).copy()
    live = None
    counts = None
    for _ in range(rounds):
        if not (remaining > 1e-12).any() or not (free > 1e-12).any():
            break
        in_play = (free[rows] > 1e-12) & (remaining[cols] > 1e-12)
        if not in_play.all():
            live = np.flatnonzero(in_play) if live is None else live[in_play]
            rows, cols = rows[in_play], cols[in_play]
            counts = None
        if rows.size == 0:
            break
        if counts is None:
            counts = np.bincount(cols, minlength=a_count)
        want = remaining[cols] / counts[cols]
        want_per_server = np.bincount(rows, weights=want, minlength=s_count)
        safe = np.where(want_per_server > 1e-15, want_per_server, 1.0)
        scale = np.where(
            want_per_server > 1e-15, np.minimum(1.0, free / safe), 0.0
        )
        if ((scale == 1.0) | (want_per_server == 0.0)).all():
            grant, granted = want, want_per_server
        else:
            grant = want * scale[rows]
            granted = np.bincount(rows, weights=grant, minlength=s_count)
        if live is None:
            load += grant
        else:
            load[live] += grant
        free -= granted
        np.maximum(free, 0.0, out=free)
        remaining -= np.bincount(cols, weights=grant, minlength=a_count)
        np.maximum(remaining, 0.0, out=remaining)
    return load


@settings(max_examples=300, deadline=None)
@given(inst=waterfill_instances())
def test_sparse_waterfill_bytes_match_filter_every_round(inst):
    """Zero-CPU and capped servers, zero-demand and all-met apps: the
    O(S + A) liveness test leaves the bytes of the per-entry filter."""
    server_cpu, demand, placement, rounds = inst
    ref = _waterfill_filter_every_round(
        server_cpu, demand, placement, rounds=rounds
    )
    for rows in (None, placement.rows()):
        load = sparse_waterfill(
            server_cpu, demand, placement, rounds=rounds, rows=rows
        )
        assert load.tobytes() == ref.tobytes()


def test_sparse_waterfill_capped_then_uncapped_round():
    """Server 0 caps round 1 (wants 7 > 1 CPU) and closes; round 2 only
    tops up app 1 on roomy server 1, with no cap."""
    placement = SparsePlacement.from_dense(
        np.array([[1, 1, 0], [0, 1, 1]], dtype=bool)
    )
    server_cpu = np.array([1.0, 100.0])
    demand = np.array([5.0, 4.0, 1.0])
    capped = []
    ref = _waterfill_reference(server_cpu, demand, placement, capped=capped)
    assert capped == [True, False]
    load = sparse_waterfill(server_cpu, demand, placement)
    assert load.tobytes() == ref.tobytes()


# ------------------------------------------------------- bulk sparse path


def test_bulk_path_deterministic_and_feasible():
    base = make_instance(80, seed=7)
    prob = sparse_problem(base)
    # dense_limit=1 forces the O(nnz) bulk algorithm on a small instance.
    sols = [
        SparseGreedyController(dense_limit=1).solve(prob) for _ in range(2)
    ]
    assert same_placement(sols[0].placement, sols[1].placement)
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


@st.composite
def bulk_problems(draw):
    """Random small problems whose current placement is feasible: memory
    fits every server and no app is over its instance cap, so any
    violation in the solution is the solver's own.  Returns the problem
    with a dense and with a CSR current placement."""
    s = draw(st.integers(1, 10))
    a = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
    current = rng.random((s, a)) < density
    app_mem = rng.uniform(0.5, 4.0, a)
    server_mem = current @ app_mem + rng.uniform(0.1, 12.0, s)
    demand = rng.uniform(0.0, 20.0, a)
    # Placed apps with zero demand go idle everywhere: the rescue branch.
    demand[rng.random(a) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    max_instances = None
    if draw(st.booleans()):
        max_instances = current.sum(axis=0) + rng.integers(0, 3, a)
    dense = PlacementProblem(
        server_cpu=rng.uniform(1.0, 16.0, s),
        server_mem=server_mem,
        app_cpu_demand=demand,
        app_mem=app_mem,
        current=current,
        max_instances=max_instances,
    )
    sparse = PlacementProblem(
        server_cpu=dense.server_cpu,
        server_mem=dense.server_mem,
        app_cpu_demand=dense.app_cpu_demand,
        app_mem=dense.app_mem,
        current=SparsePlacement.from_dense(current),
        max_instances=max_instances,
    )
    return dense, sparse


@settings(max_examples=150, deadline=None)
@given(problems=bulk_problems(), stop_idle=st.booleans())
def test_bulk_path_invariants(problems, stop_idle):
    dense, prob = problems
    cur = prob.current
    sol = SparseGreedyController(dense_limit=1, stop_idle=stop_idle).solve(prob)
    out = sol.placement
    SparsePlacement(out.shape, out.indptr, out.indices, check=True)
    assert sol.load.shape == (out.nnz,)
    sol.validate(dense)
    assert sol.changes == sparse_count_changes(cur, out)
    if stop_idle:
        # Without stop_idle the output is every entry placed before or
        # started; idle stops may shrink it but must never empty an app.
        full = SparseGreedyController(dense_limit=1, stop_idle=False).solve(
            prob
        )
        covered = full.placement.instance_counts() > 0
        assert (out.instance_counts()[covered] >= 1).all()
        assert np.isin(placement_keys(out), placement_keys(full.placement)).all()


# Recorded with the sort-based bulk solve (np.unique, lexsort and
# intersect1d) that the O(nnz) set operations replaced.
BULK_QUICK_PIN = (
    "88131bb362b6ae6e6c4859497bc6e9bb05b8967e2116494fc86df2e4443c8282"
)


def test_bulk_path_quick_scale_pin():
    """Quick-scale mega epochs run the bulk path (per-pod ``S * A`` is
    above ``dense_limit``), which no golden trace covers.  Pin its
    placements, loads and change counts through a pod loss/restore and a
    server crash/recover."""
    cfg = MegaConfig.quick(seed=0, target_utilization=0.8, epoch_s=3600)
    digest = hashlib.sha256()
    with MegaScaleDriver(cfg) as driver:
        assert all(
            cfg.servers_per_pod * pod.app_gids.size > cfg.dense_limit
            for pod in driver.pods
        )
        server = driver.pods[11].servers.name(42)
        for epoch in range(3):
            if epoch == 1:
                driver.lose_pod("pod-007")
                driver.crash_server(server)
            elif epoch == 2:
                driver.restore_pod("pod-007")
                driver.recover_server(server)
            report = driver.run_epoch()
            digest.update(np.int64(report.changes).tobytes())
            for pod in driver.pods:
                digest.update(pod.placement.indptr.tobytes())
                digest.update(pod.placement.indices.tobytes())
                digest.update(pod.load.tobytes())
    assert digest.hexdigest() == BULK_QUICK_PIN


# -------------------------------------------------- engine sparse codec


def test_engine_ships_sparse_solutions_identically():
    """SparseSolution survives pickling to and from pool workers: over two
    epochs that adopt each solution, parallel results are byte-identical
    to serial."""
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
                    sigs.append((sol.placement, sol.load.tobytes()))
                    # Adopt the solution (what a pod's apply step does).
                    currents[p] = sol.placement
            return sigs

    serial, pooled = run(1), run(2)
    assert len(serial) == len(pooled)
    for (pa, la), (pb, lb) in zip(serial, pooled):
        assert same_placement(pa, pb) and la == lb
