"""The bulk solve's instance-start loop against a plain reference.

:func:`_solve_bulk_reference` is the bulk solve with the start loop in
its plainest form: every one of the ``START_ROUNDS`` rounds re-sorts the
starved apps and the open servers and probes one sorted array of every
key placed so far, and a round that starts nothing still runs.
:meth:`SparseGreedyController._solve_bulk` must reproduce its bytes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import PlacementProblem, SparseGreedyController, SparsePlacement
from repro.placement.sparse import START_ROUNDS, sparse_waterfill
from tests.placement.sparse_ref import sparse_count_changes


def _segment_prefix(values: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums restarting at each segment start index."""
    csum = np.cumsum(values)
    offsets = np.where(seg_starts > 0, csum[seg_starts - 1], 0.0)
    lengths = np.diff(np.append(seg_starts, values.shape[0]))
    return csum - np.repeat(offsets, lengths)


def _solve_bulk_reference(problem: PlacementProblem, stop_idle: bool):
    """``(placement, load, changes)`` of the bulk solve, every start round
    run in full."""
    cur = problem.current
    s_count, a_count = cur.shape
    rows, cols = cur.rows(), cur.cols()
    load, residual = sparse_waterfill(
        problem.server_cpu, problem.app_cpu_demand, cur
    )
    free_cpu = np.maximum(
        problem.server_cpu - np.bincount(rows, weights=load, minlength=s_count),
        0.0,
    )
    free_mem = problem.server_mem - np.bincount(
        rows, weights=problem.app_mem[cols], minlength=s_count
    )
    n_inst = np.bincount(cols, minlength=a_count)
    key_sorted = rows * np.int64(a_count) + cols
    new_rows, new_cols, new_load = [], [], []
    for rnd in range(START_ROUNDS):
        needy = np.flatnonzero(residual > 1e-9)
        if problem.max_instances is not None:
            needy = needy[n_inst[needy] < problem.max_instances[needy]]
        if needy.size == 0:
            break
        needy = needy[np.argsort(-residual[needy], kind="stable")]
        open_srv = np.flatnonzero(free_cpu > 1e-9)
        if open_srv.size == 0:
            break
        open_srv = open_srv[np.argsort(-free_cpu[open_srv], kind="stable")]
        srv = open_srv[(np.arange(needy.size) + rnd) % open_srv.size]
        fresh = ~np.isin(srv * np.int64(a_count) + needy, key_sorted)
        srv, apps = srv[fresh], needy[fresh]
        if srv.size == 0:
            continue
        by_srv = np.argsort(srv, kind="stable")
        srv, apps = srv[by_srv], apps[by_srv]
        seg_starts = np.flatnonzero(np.diff(srv, prepend=srv[0] - 1))
        mem_need = _segment_prefix(problem.app_mem[apps], seg_starts)
        admit = mem_need <= free_mem[srv] + 1e-9
        srv, apps = srv[admit], apps[admit]
        if srv.size == 0:
            continue
        per_srv = np.bincount(srv, minlength=s_count)
        grant = np.maximum(
            np.minimum(residual[apps], free_cpu[srv] / per_srv[srv]), 0.0
        )
        free_cpu -= np.bincount(srv, weights=grant, minlength=s_count)
        np.maximum(free_cpu, 0.0, out=free_cpu)
        free_mem -= np.bincount(
            srv, weights=problem.app_mem[apps], minlength=s_count
        )
        residual[apps] -= grant
        np.maximum(residual, 0.0, out=residual)
        n_inst[apps] += 1
        new_rows.append(srv)
        new_cols.append(apps)
        new_load.append(grant)
        key_sorted = np.sort(
            np.concatenate([key_sorted, srv * np.int64(a_count) + apps])
        )

    all_rows = np.concatenate([rows] + new_rows)
    all_cols = np.concatenate([cols] + new_cols)
    all_load = np.concatenate([load] + new_load)
    keep = np.ones(all_load.size, dtype=bool)
    if stop_idle:
        keep = all_load > 1e-12
        placed = np.bincount(all_cols, minlength=a_count) > 0
        kept = np.bincount(all_cols[keep], minlength=a_count) > 0
        for app in np.flatnonzero(placed & ~kept):
            # Keep the app's entry on its lowest server.
            mine = np.flatnonzero(all_cols == app)
            keep[mine[np.argmin(all_rows[mine])]] = True
    out, order = SparsePlacement.from_entries(
        cur.shape, all_rows[keep], all_cols[keep]
    )
    return out, all_load[keep][order], sparse_count_changes(cur, out)


@st.composite
def pressed_problems(draw):
    """Small problems that run out of server memory mid-loop: every
    server's memory is its current use plus room for 0 to 2 VMs of the
    pod's sizes, which are uniform 4 GB or a non-dyadic mix whose running
    sums round.  The current placement may be empty (a restored pod), an
    app may be at its instance cap, and CPU is ample or tight."""
    s = draw(st.integers(1, 12))
    a = draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    current = rng.random((s, a)) < draw(st.sampled_from([0.0, 0.1, 0.3, 0.7]))
    if draw(st.booleans()):
        app_mem = np.full(a, 4.0)
    else:
        app_mem = rng.choice([0.1, 0.3, 0.7, 1.1, 1 / 3, 2.2, 4.0], a)
    room = rng.choice(app_mem, (s, 2)) * (np.arange(2) < rng.integers(0, 3, s)[:, None])
    # An empty server without room still needs positive memory.
    server_mem = np.maximum(current @ app_mem + room.sum(axis=1), 0.05)
    demand = rng.uniform(0.0, draw(st.sampled_from([2.0, 20.0, 200.0])), a)
    demand[rng.random(a) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    max_instances = None
    if draw(st.booleans()):
        max_instances = current.sum(axis=0) + rng.integers(0, 3, a)
    return PlacementProblem(
        server_cpu=rng.uniform(0.5, draw(st.sampled_from([2.0, 16.0, 400.0])), s),
        server_mem=server_mem,
        app_cpu_demand=demand,
        app_mem=app_mem,
        current=SparsePlacement.from_dense(current),
        max_instances=max_instances,
    )


@settings(max_examples=400, deadline=None)
@given(problem=pressed_problems())
def test_bulk_solve_bytes_match_every_round_reference(problem):
    placement, load, changes = _solve_bulk_reference(problem, stop_idle=True)
    sol = SparseGreedyController(dense_limit=1).solve(problem)
    assert sol.placement.shape == placement.shape
    assert sol.placement.indptr.tobytes() == placement.indptr.tobytes()
    assert sol.placement.indices.tobytes() == placement.indices.tobytes()
    assert sol.load.tobytes() == load.tobytes()
    assert sol.changes == changes


def _solve_both(problem):
    """Solve *problem* on the bulk path and check its bytes against the
    reference's."""
    sol = SparseGreedyController(dense_limit=1).solve(problem)
    placement, load, changes = _solve_bulk_reference(problem, stop_idle=True)
    assert sol.placement.indices.tobytes() == placement.indices.tobytes()
    assert sol.load.tobytes() == load.tobytes() and sol.changes == changes
    return sol


def _sorts(monkeypatch, call) -> tuple[int, int]:
    """``np.argsort`` calls on float and on integer keys while *call*
    runs.  The float ones sort the starved apps by residual and the open
    servers by free CPU; the integer ones sort a round's candidates by
    server (and, once, the started entries by key)."""
    seen = []
    argsort = np.argsort

    def counting(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype.kind)
        return argsort(a, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "argsort", counting)
        call()
    return seen.count("f"), seen.count("i")


def test_start_loop_ends_when_open_servers_are_memory_full(monkeypatch):
    """Every server has CPU to spare and its memory full of 4 GB VMs; the
    two unplaced apps fit nowhere.  The loop stops before it sorts, where
    an every-round loop sorts both lists in each of START_ROUNDS rounds."""
    rows = np.repeat(np.arange(4), 2)
    current = SparsePlacement.from_entries((4, 10), rows, np.arange(8))[0]
    problem = PlacementProblem(
        server_cpu=np.full(4, 100.0),
        server_mem=np.full(4, 8.0),
        app_cpu_demand=np.full(10, 5.0),
        app_mem=np.full(10, 4.0),
        current=current,
    )
    sol = _solve_both(problem)
    assert sol.placement is current and sol.changes == 0
    reference = _sorts(
        monkeypatch, lambda: _solve_bulk_reference(problem, stop_idle=True)
    )
    assert reference == (2 * START_ROUNDS, START_ROUNDS)
    solve = SparseGreedyController(dense_limit=1).solve
    assert _sorts(monkeypatch, lambda: solve(problem)) == (0, 0)


def test_no_op_round_between_starts_does_not_resort(monkeypatch):
    """Round 0 starts app 1 on server 1; round 1 offers app 0 to server 2
    and app 1 to server 0, where neither fits; round 2 starts app 1 on
    server 2, and then only memory-full server 0 is open.  The apps and
    servers are sorted for rounds 0 and 1 alone."""
    problem = PlacementProblem(
        server_cpu=np.array([10.0, 8.0, 6.0]),
        server_mem=np.array([0.5, 10.0, 3.0]),
        app_cpu_demand=np.array([100.0, 50.0]),
        app_mem=np.array([5.0, 1.0]),
        current=SparsePlacement.empty((3, 2)),
    )
    sol = _solve_both(problem)
    assert sol.placement.rows().tolist() == [1, 2]
    assert sol.placement.indices.tolist() == [1, 1]
    assert sol.load.tolist() == [8.0, 6.0]
    solve = SparseGreedyController(dense_limit=1).solve
    assert _sorts(monkeypatch, lambda: solve(problem))[0] == 2 * 2


def test_rounds_offering_only_full_servers_are_skipped(monkeypatch):
    """One starved app and four CPU-open servers, the three with the most
    free CPU out of memory: rounds 0-2 offer the app to those and are
    skipped, round 3 starts it on the fourth, and then no open server
    has room.  Only round 3 sorts candidates by server."""
    current = SparsePlacement.from_entries((4, 4), np.arange(3), np.arange(3))[0]
    problem = PlacementProblem(
        server_cpu=np.array([40.0, 30.0, 20.0, 5.0]),
        server_mem=np.full(4, 4.0),
        app_cpu_demand=np.array([1.0, 1.0, 1.0, 100.0]),
        app_mem=np.full(4, 4.0),
        current=current,
    )
    sol = _solve_both(problem)
    assert sol.placement.rows().tolist() == [0, 1, 2, 3]
    assert sol.placement.indices.tolist() == [0, 1, 2, 3]
    assert sol.load.tolist() == [1.0, 1.0, 1.0, 5.0]
    reference = _sorts(
        monkeypatch, lambda: _solve_bulk_reference(problem, stop_idle=True)
    )
    assert reference == (2 * START_ROUNDS, START_ROUNDS)
    solve = SparseGreedyController(dense_limit=1).solve
    # One re-sort; round 3's candidates, then the started entries' keys.
    assert _sorts(monkeypatch, lambda: solve(problem)) == (2, 1 + 1)


def test_memory_exit_allows_for_running_sum_rounding():
    """Server 0's candidate app takes 300,000.1 GB, so app 1's memory
    need on server 1 is a difference of running sums that rounds below
    its 0.3 GB, and server 1, with less than 0.3 GB free, admits it.  The
    exit test must not rule that round out."""
    app_mem = np.array([300_000.1, 0.3])
    need = _segment_prefix(app_mem, np.array([0, 1]))[1]
    assert need < app_mem[1]
    free = 0.3 - 1e-9 - 5e-12
    assert need <= free + 1e-9 < app_mem[1]
    problem = PlacementProblem(
        server_cpu=np.array([10.0, 5.0]),
        server_mem=np.array([0.2, free]),
        app_cpu_demand=np.array([100.0, 50.0]),
        app_mem=app_mem,
        current=SparsePlacement.empty((2, 2)),
    )
    sol = _solve_both(problem)
    assert sol.placement.rows().tolist() == [1]
    assert sol.placement.indices.tolist() == [1]
