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
import tracemalloc

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
    SteadySummary,
    sparse_waterfill,
)
from repro.placement.greedy import waterfill_load
from tests.placement.test_bulk_starts import _solve_bulk_reference
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


def test_indices_are_int32_and_refuse_columns_past_int32():
    """Column ids are stored as int32 (row pointers stay int64); a
    placement whose column ids would not fit is refused, not wrapped."""
    top = int(np.iinfo(np.int32).max)
    sp = SparsePlacement(
        (1, top + 1), np.array([0, 1]), np.array([top], dtype=np.int64)
    )
    assert sp.indices.dtype == np.int32 and sp.indptr.dtype == np.int64
    assert sp.indices.tolist() == [top]
    assert sp.cols().dtype == np.intp and sp.cols().tolist() == [top]
    for made in (
        SparsePlacement.from_dense(np.eye(3, dtype=bool)),
        SparsePlacement.from_entries((2, 3), [1, 0], [2, 1])[0],
        SparsePlacement.empty((2, 3)),
    ):
        assert made.indices.dtype == np.int32
    with pytest.raises(ValueError, match="do not fit the int32 indices"):
        SparsePlacement(
            (1, top + 2), np.array([0, 1]), np.array([top + 1], dtype=np.int64)
        )


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
    sparse_load, _ = sparse_waterfill(
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
    load, _ = sparse_waterfill(server_cpu, demand, placement, rounds=rounds)
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
        load, _ = sparse_waterfill(
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
    load, _ = sparse_waterfill(server_cpu, demand, placement)
    assert load.tobytes() == ref.tobytes()


# ------------------------------------------- summarised (warm) waterfill


def _summarised(placement):
    """A copy of *placement* carrying the summary a no-change solve
    would leave on it."""
    warm = SparsePlacement(
        placement.shape, placement.indptr, placement.indices, check=False
    )
    warm.summary = SteadySummary.of(warm.cols(), warm.instance_counts())
    return warm


def _assert_cold_and_warm_match(server_cpu, demand, placement, rounds=12):
    """Both a cold call and a warm one (summary cached on the placement)
    give the reference loads, and each app's demand less its loads' sum,
    byte for byte.  Returns the reference's per-round cap flags."""
    capped = []
    ref = _waterfill_reference(
        server_cpu, demand, placement, rounds=rounds, capped=capped
    )
    ref_unmet = np.maximum(
        demand
        - np.bincount(placement.cols(), weights=ref, minlength=demand.size),
        0.0,
    )
    for current in (placement, _summarised(placement)):
        load, unmet = sparse_waterfill(
            server_cpu, demand, current, rounds=rounds
        )
        assert load.tobytes() == ref.tobytes()
        assert unmet.tobytes() == ref_unmet.tobytes()
    return capped


@st.composite
def summarised_instances(draw):
    """Placements where every app has one instance, or a mix with apps of
    up to 12 instances; apps with no instance; placed apps with zero or
    negligible (1e-13) demand; tight or ample CPU; 1 to 12 rounds."""
    s = draw(st.integers(1, 12))
    a = draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dense = np.zeros((s, a), dtype=bool)
        dense[rng.integers(0, s, a), np.arange(a)] = True
    else:
        dense = rng.random((s, a)) < draw(st.sampled_from([0.1, 0.4, 1.0]))
    dense[:, rng.random(a) < draw(st.sampled_from([0.0, 0.3]))] = False
    server_cpu = rng.uniform(0.0, draw(st.sampled_from([0.05, 1.0, 50.0])), s)
    server_cpu[rng.random(s) < 0.1] = 0.0
    demand = rng.uniform(0.0, 10.0, a)
    demand[rng.random(a) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    demand[rng.random(a) < draw(st.sampled_from([0.0, 0.2]))] = 1e-13
    rounds = draw(st.integers(1, 12))
    return server_cpu, demand, SparsePlacement.from_dense(dense), rounds


@settings(max_examples=400, deadline=None)
@given(inst=summarised_instances())
def test_cold_and_warm_waterfill_bytes_match_reference(inst):
    server_cpu, demand, placement, rounds = inst
    _assert_cold_and_warm_match(server_cpu, demand, placement, rounds)


def _placement(rows, cols, shape):
    return SparsePlacement.from_entries(shape, np.array(rows), np.array(cols))[0]


def test_warm_waterfill_meets_single_instance_apps_in_round_one():
    """Every app has one instance and no server caps: the loads are the
    demands themselves and nothing is left unmet."""
    placement = _placement([0, 0, 1, 2], [0, 3, 1, 2], (3, 4))
    server_cpu = np.array([10.0, 10.0, 10.0])
    demand = np.array([1.5, 2.25, 0.1, 3.0])
    assert _assert_cold_and_warm_match(server_cpu, demand, placement) == [False]
    load, unmet = sparse_waterfill(server_cpu, demand, _summarised(placement))
    assert load.tobytes() == demand[placement.cols()].tobytes()
    assert not unmet.any()


@pytest.mark.parametrize(
    "server_cpu, demand, capped",
    [
        # Server 0 caps round 1 (wants 7 > 1 CPU); round 2 tops up app 1.
        ([1.0, 100.0], [5.0, 4.0, 1.0], [True, False]),
        # Server 1 caps round 1, then caps app 1's top-up in round 2.
        ([1.0, 6.5], [5.0, 10.0, 1.0], [True, True]),
    ],
    ids=["capped-first-round", "capped-later-round"],
)
def test_warm_waterfill_continues_a_capped_first_round(server_cpu, demand, capped):
    placement = _placement([0, 0, 1, 1], [0, 1, 1, 2], (2, 3))
    assert (
        _assert_cold_and_warm_match(
            np.array(server_cpu), np.array(demand), placement
        )
        == capped
    )


def test_warm_waterfill_zero_demand_and_absent_apps():
    """Placed apps with zero and negligible demand (one and two
    instances) take no load; apps with no instance keep their demand
    unmet."""
    placement = _placement(
        [0, 0, 1, 1, 2, 2, 2], [0, 2, 2, 3, 0, 5, 6], (3, 8)
    )
    demand = np.array([0.0, 4.0, 1e-13, 3.0, 7.0, 0.0, 2.0, 1e-13])
    server_cpu = np.array([20.0, 20.0, 20.0])
    for rounds in (1, 2, 12):
        _assert_cold_and_warm_match(server_cpu, demand, placement, rounds)
    load, unmet = sparse_waterfill(server_cpu, demand, _summarised(placement))
    assert not load[np.isin(placement.cols(), [0, 2, 5])].any()
    # Apps 1, 4 and 7 have no instance; app 2's 1e-13 is never granted.
    assert unmet[[1, 2, 4, 7]].tobytes() == demand[[1, 2, 4, 7]].tobytes()


@pytest.mark.parametrize("cpu", [1.0, 100.0], ids=["capped", "uncapped"])
def test_warm_waterfill_one_round(cpu):
    placement = _placement([0, 0, 1, 1, 1], [0, 1, 1, 2, 3], (2, 4))
    demand = np.array([2.0, 3.0, 0.5, 0.0])
    capped = _assert_cold_and_warm_match(
        np.array([cpu, cpu]), demand, placement, rounds=1
    )
    assert capped == [cpu == 1.0]


def _mixed_pod(capped: bool):
    """A pod-like instance: 20,000 single-instance apps and 100 apps with
    3 instances on 200 servers, every server capped or none."""
    rng = np.random.default_rng(5)
    s, a = 200, 20_100
    rows = [rng.integers(0, s, a)]
    cols = [np.arange(a)]
    multi = np.arange(a - 100, a)
    for k in (1, 2):
        rows.append((rows[0][multi] + k) % s)
        cols.append(multi)
    placement = _placement(np.concatenate(rows), np.concatenate(cols), (s, a))
    demand = rng.uniform(0.1, 1.0, a)
    server_cpu = np.full(s, 30.0 if capped else 1e6)
    return server_cpu, demand, placement


def _binned(monkeypatch, call) -> int:
    """Entries ``np.bincount`` is handed while *call* runs."""
    seen = []
    bincount = np.bincount

    def counting(x, *args, **kwargs):
        seen.append(len(x))
        return bincount(x, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "bincount", counting)
        call()
    return sum(seen)


def test_warm_uncapped_waterfill_bins_each_entry_once(monkeypatch):
    """With no server capping round 1, a warm call sums every entry once
    (the per-server wants) and only the multi-instance entries again; a
    cold call bins every entry four times."""
    server_cpu, demand, placement = _mixed_pod(capped=False)
    warm = _summarised(placement)
    multi = warm.summary.entries.size
    assert multi == 300
    for current, binned in ((warm, placement.nnz + 2 * multi), (placement, 4 * placement.nnz)):
        assert _binned(
            monkeypatch, lambda c=current: sparse_waterfill(server_cpu, demand, c)
        ) == binned
    _assert_cold_and_warm_match(server_cpu, demand, placement)


def test_warm_capped_waterfill_continues_rather_than_restarts(monkeypatch):
    """When round 1 caps, the warm call carries round 1's grants into the
    live-set rounds: it bins every entry once less than a cold call (no
    instance count), not a whole round more."""
    server_cpu, demand, placement = _mixed_pod(capped=True)
    warm = _summarised(placement)
    cold_binned = _binned(
        monkeypatch, lambda: sparse_waterfill(server_cpu, demand, placement)
    )
    warm_binned = _binned(
        monkeypatch, lambda: sparse_waterfill(server_cpu, demand, warm)
    )
    assert warm_binned == cold_binned - placement.nnz
    assert _assert_cold_and_warm_match(server_cpu, demand, placement)[0]


def test_warm_uncapped_waterfill_allocates_its_results_alone():
    """A warm uncapped call allocates its two results (one float per
    entry, one per app) and O(servers) besides: single-instance wants
    are gathered, never divided by an instance count."""
    server_cpu, demand, placement = _mixed_pod(capped=False)
    warm = _summarised(placement)
    rows, cols = warm.rows(), warm.cols()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        load, unmet = sparse_waterfill(
            server_cpu, demand, warm, rows=rows, cols=cols
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= load.nbytes + unmet.nbytes + 32 * 1024


def test_summary_is_int32_and_sized_by_the_multi_instance_apps():
    _, _, placement = _mixed_pod(capped=False)
    summary = SteadySummary.of(placement.cols(), placement.instance_counts())
    assert all(a.dtype == np.int32 for a in summary)
    assert summary.apps.tolist() == list(range(20_000, 20_100))
    assert (summary.counts == 3).all()
    assert summary.absent.size == 0
    assert np.array_equal(
        placement.indices[summary.entries], summary.apps[summary.local]
    )
    assert summary.nbytes == 8 * 300 + 8 * 100
    assert SteadySummary.nbytes_of(placement.instance_counts()) == summary.nbytes
    absent = np.array([0, 3, 1, 0, 2])
    assert SteadySummary.nbytes_of(absent) == 8 * 5 + 8 * 2 + 4 * 2


def test_kept_placement_is_summarised_read_only_and_pickles_without_it():
    """A bulk solve that keeps the current placement leaves a summary on
    it and makes its CSR arrays read-only; a pickled copy starts cold."""
    server_cpu, demand, placement = _mixed_pod(capped=False)
    problem = PlacementProblem(
        server_cpu=server_cpu,
        server_mem=np.full(server_cpu.size, 1e6),
        app_cpu_demand=demand,
        app_mem=np.ones(demand.size),
        current=placement,
    )
    assert placement.summary is None
    sol = SparseGreedyController(dense_limit=1).solve(problem)
    assert sol.placement is placement and sol.changes == 0
    want = SteadySummary.of(placement.cols(), placement.instance_counts())
    assert all(
        np.array_equal(x, y) for x, y in zip(placement.summary, want)
    )
    for arr in (placement.indptr, placement.indices):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    again = SparseGreedyController(dense_limit=1).solve(problem)
    assert again.placement is placement
    assert again.load.tobytes() == sol.load.tobytes()
    clone = pickle.loads(pickle.dumps(placement))
    assert clone.summary is None and same_placement(clone, placement)


def test_kept_placement_past_a_byte_per_vm_is_not_summarised():
    """Every app has two instances: a summary would take 24 B per app
    against 2 VMs, so the kept placement gets none and stays writeable."""
    placement = _placement([0, 1, 1, 2, 2, 0], [0, 0, 1, 1, 2, 2], (3, 3))
    problem = PlacementProblem(
        server_cpu=np.full(3, 100.0),
        server_mem=np.full(3, 100.0),
        app_cpu_demand=np.array([1.0, 2.0, 3.0]),
        app_mem=np.ones(3),
        current=placement,
    )
    sol = SparseGreedyController(dense_limit=1).solve(problem)
    assert sol.placement is placement and sol.changes == 0
    assert SteadySummary.nbytes_of(placement.instance_counts()) == 72
    assert placement.summary is None
    assert placement.indices.flags.writeable


def test_solve_whose_only_idle_entry_is_rescued_keeps_the_placement():
    """App 1's one instance has no demand, so the stop pass rescues it:
    nothing starts or stops, and the current placement comes back
    itself, summarised."""
    placement = _placement([0, 1], [0, 1], (2, 2))
    problem = PlacementProblem(
        server_cpu=np.full(2, 10.0),
        server_mem=np.full(2, 10.0),
        app_cpu_demand=np.array([1.0, 0.0]),
        app_mem=np.ones(2),
        current=placement,
    )
    sol = SparseGreedyController(dense_limit=1).solve(problem)
    assert sol.placement is placement and sol.changes == 0
    assert sol.load.tolist() == [1.0, 0.0]
    assert placement.summary is not None


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
    sol = SparseGreedyController(dense_limit=1).solve(sparse_problem(base))
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
@given(problems=bulk_problems())
def test_bulk_path_invariants(problems):
    dense, prob = problems
    cur = prob.current
    sol = SparseGreedyController(dense_limit=1).solve(prob)
    out = sol.placement
    SparsePlacement(out.shape, out.indptr, out.indices, check=True)
    assert sol.load.shape == (out.nnz,)
    sol.validate(dense)
    assert sol.changes == sparse_count_changes(cur, out)
    # With no stop pass the output is every entry placed before or
    # started.  The stop pass removes only zero-load entries of that
    # placement, plus each rescued app's lowest-server entry, so it
    # never empties an app.
    full, full_load, _ = _solve_bulk_reference(prob, stop_idle=False)
    covered = full.instance_counts() > 0
    assert (out.instance_counts()[covered] >= 1).all()
    assert np.isin(placement_keys(out), placement_keys(full)).all()
    kept = np.isin(placement_keys(full), placement_keys(out))
    assert (full_load[~kept] <= 1e-12).all()
    # A kept idle entry is its app's only one, on the app's lowest server
    # (rows ascend, so an app's first entry is its lowest).
    rescued = kept & (full_load <= 1e-12)
    apps, first = np.unique(full.cols(), return_index=True)
    lowest = np.zeros(full.shape[1], dtype=np.intp)
    lowest[apps] = full.rows()[first]
    rescued_cols = full.cols()[rescued]
    assert (out.instance_counts()[rescued_cols] == 1).all()
    assert (full.rows()[rescued] == lowest[rescued_cols]).all()


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
            cfg.servers_per_pod * pod.n_apps > c.dense_limit
            for pod, c in zip(driver.pods, driver.controllers)
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
                # Hashed as int64, the dtype the pin was recorded with.
                digest.update(pod.placement.indices.astype(np.int64).tobytes())
                digest.update(pod.load.tobytes())
    assert digest.hexdigest() == BULK_QUICK_PIN


# Recorded with the start loop that ran all START_ROUNDS rounds and
# re-sorted every round.
BULK_PRESSURE_PIN = (
    "423571dd52e9df92773c6e74e41607a69bb3602dcb2885bfa830bb6d0ce75007"
)


def test_bulk_path_pressure_pin():
    """At 0.95 load with one pod lost, most start rounds find every open
    server's memory full.  Pin the placements, loads and change counts of
    three hourly quick-scale epochs."""
    cfg = MegaConfig.quick(seed=0, target_utilization=0.95, epoch_s=3600)
    digest = hashlib.sha256()
    changes = []
    with MegaScaleDriver(cfg) as driver:
        for epoch in range(3):
            if epoch == 1:
                driver.lose_pod("pod-007")
            report = driver.run_epoch()
            changes.append(report.changes)
            digest.update(np.int64(report.changes).tobytes())
            for pod in driver.pods:
                digest.update(pod.placement.indptr.tobytes())
                digest.update(pod.placement.indices.tobytes())
                digest.update(pod.load.tobytes())
    assert changes == [202_087, 177_115, 120_105]
    assert digest.hexdigest() == BULK_PRESSURE_PIN


def test_bulk_solve_that_stops_nothing_merges_without_copying_old_entries(
    monkeypatch,
):
    """The first pod of epoch 3 of a quick-scale pressure run that starts
    instances and stops none (~11k entries, 200 starts): one bulk solve
    of it peaks under 82 B of tracemalloc per current entry.  The tail
    merges the started entries into the old arrays as they are; copying
    every old entry beside the new ones and compressing them by an
    all-true mask peaks near 98 B."""
    cfg = MegaConfig.quick(seed=0, target_utilization=0.8, epoch_s=3600)
    solve = SparseGreedyController.solve
    peaks = []

    def measured(self, problem):
        sol = solve(self, problem)
        cur = problem.current
        started = (sol.changes + sol.placement.nnz - cur.nnz) // 2
        if not peaks and 0 < started == sol.changes:
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                solve(SparseGreedyController(), problem)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append((peak - before) / cur.nnz)
        return sol

    with MegaScaleDriver(cfg) as driver:
        driver.run(3)
        monkeypatch.setattr(SparseGreedyController, "solve", measured)
        driver.run_epoch()
    assert len(peaks) == 1
    assert peaks[0] < 82.0


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
