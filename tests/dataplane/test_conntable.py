"""Columnar connection table: sequential-fill parity and lifecycle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.conntable import ColumnarConnTable, _group_positions


def test_group_positions():
    ids = np.array([3, 5, 3, 3, 5, 9, 3])
    assert _group_positions(ids).tolist() == [0, 0, 1, 2, 1, 0, 3]
    assert _group_positions(np.zeros(0, dtype=np.int64)).size == 0


def bound(n_switches, cap, n_vips=1, n_rips=0):
    """A table whose RIP rows ``0..n_rips-1`` are bound as steering binds
    them: RIP ``r`` serves VIP ``r % n_vips``, homed on switch
    ``vip % n_switches``."""
    t = ColumnarConnTable(n_switches, cap)
    rips = np.arange(n_rips)
    vips = rips % n_vips
    t.bind(rips, vips, vips % n_switches)
    return t


def scalar_fill(count, cap, switch):
    """Reference: sequential per-request capacity check."""
    count = count.copy()
    out = []
    for s in switch:
        ok = count[s] < cap
        if ok:
            count[s] += 1
        out.append(ok)
    return np.asarray(out, dtype=bool)


@settings(max_examples=40, deadline=None)
@given(
    switches=st.lists(st.integers(0, 3), min_size=0, max_size=60),
    cap=st.integers(1, 12),
    pre=st.lists(st.integers(0, 8), min_size=4, max_size=4),
)
def test_try_open_batch_matches_sequential_fill(switches, cap, pre):
    pre = np.minimum(np.asarray(pre, dtype=np.int64), cap)
    # RIP s serves VIP s on switch s.
    table = bound(4, cap, n_vips=4, n_rips=4)
    # preload each switch to its starting occupancy
    for s, k in enumerate(pre):
        if k:
            table.try_open_batch(
                np.full(k, s, dtype=np.int64),
                np.full(k, 10**6, dtype=np.int64),
            )
    sw = np.asarray(switches, dtype=np.int64)
    got = table.try_open_batch(sw, np.full(sw.size, 10**6, dtype=np.int64))
    want = scalar_fill(pre, cap, sw)
    assert np.array_equal(got, want)
    assert table.rejected == int((~want).sum())


def full_table():
    t = ColumnarConnTable(2, 100)
    # RIP 10..14 -> VIP 0, 1, 2, 1, 0 on switch 0, 0, 1, 0, 1.
    t.bind(np.arange(10, 15), [0, 1, 2, 1, 0], [0, 0, 1, 0, 1])
    rip = np.array([10, 11, 12, 14, 13], dtype=np.int64)
    close = np.array([1, 2, 1, 3, 2], dtype=np.int64)
    assert t.try_open_batch(rip, close).all()
    return t


def test_close_due_retires_and_counts():
    t = full_table()
    assert t.alive_count == 5
    assert t.close_due(0) == 0
    assert t.close_due(1) == 2
    assert t.alive_count == 3 and t.closed == 2
    assert t.count_for_vip(0) == 1 and t.count_for_vip(2) == 0
    assert t.is_paused(2) and not t.is_paused(0)
    assert t.close_due(5) == 3
    assert t.alive_count == 0


def test_drop_vip_and_drop_rips():
    t = full_table()
    assert t.drop_vip(0) == 2
    assert t.dropped == 2 and t.count_for_vip(0) == 0
    mask = np.zeros(20, dtype=bool)
    mask[13] = True
    assert t.drop_rips(mask) == 1
    assert t.dropped == 3
    assert t.live_pairs() == {(1, 11): 1, (2, 12): 1}


def test_live_pairs_counts_duplicates():
    t = ColumnarConnTable(1, 100)
    t.bind([7, 8], [0, 0], [0, 0])
    rip = np.array([7, 7, 8, 7], dtype=np.int64)
    t.try_open_batch(rip, np.full(4, 9, dtype=np.int64))
    assert t.live_pairs() == {(0, 7): 3, (0, 8): 1}


def test_growth_and_compaction_bound_memory():
    t = bound(1, 10**9, n_rips=1)
    n = 3000
    for epoch in range(5):
        opened = t.try_open_batch(
            np.zeros(n, dtype=np.int64),
            np.full(n, epoch, dtype=np.int64),  # all close next epoch
        )
        assert opened.all()
        assert int(t.recount().sum()) == n == t.alive_count
        t.close_due(epoch)
        # the close freed its bucket whole: storage stays O(live), not
        # O(ever opened)
        assert t._buckets == {}
        assert int(t.recount().sum()) == 0
    assert t.opened == 5 * n and t.closed == 5 * n
    assert t.alive_count == 0


def test_ensure_switches_grows_with_default_capacity():
    t = ColumnarConnTable(2, 5)
    t.ensure_switches(4)
    t.ensure_switches(3)  # never shrinks
    assert t.switch_count.tolist() == [0, 0, 0, 0]
    t.bind([0], [0], [3])
    acc = t.try_open_batch(
        np.zeros(8, dtype=np.int64),
        np.full(8, 9, dtype=np.int64),
    )
    assert acc.sum() == 5  # a new switch honours the table's capacity


def table_state(t):
    return (
        {e: b.tolist() for e, b in t._buckets.items()},
        t.switch_count.tolist(), t.live_pairs(),
        t.rip_vip.tolist(), t.rip_switch.tolist(), t.opened, t.rejected,
    )


def test_rebind_with_live_sessions_is_refused():
    t = full_table()
    before = table_state(t)
    # RIP 11 (VIP 1, switch 0) has a live session: neither its VIP nor
    # its switch may change, and nothing changes when refused.
    for vip, sw in ((2, 0), (1, 1)):
        with pytest.raises(ValueError, match="RIP row 11 has 1 live"):
            t.bind([10, 11], [0, vip], [0, sw])
        assert table_state(t) == before
    # The same binding, or a new one for a RIP with no live session, is
    # fine; once its sessions close, RIP 11 may be re-bound.
    t.bind([11, 20], [1, 2], [0, 1])
    assert t.rip_vip[20] == 2 and t.rip_switch[20] == 1
    t.close_due(2)
    t.bind([11], [2], [1])
    assert (t.rip_vip[11], t.rip_switch[11]) == (2, 1)


def test_open_on_unbound_rip_is_refused():
    t = full_table()
    before = table_state(t)
    for rip in (9, 30):  # an unbound row inside the binding, one past it
        with pytest.raises(ValueError, match=f"RIP row {rip} is not bound"):
            t.try_open_batch(np.array([10, rip]), np.array([4, 5]))
        assert table_state(t) == before


def test_table_bytes_follow_rips_not_sessions():
    # 2M live sessions over 2,560 bound RIPs, closing in 3 epochs: the
    # table holds a count per (close epoch, RIP), never a row per session.
    n_rips, batch, n = 2560, 65_536, 2_000_000
    t = bound(4, 10**9, n_vips=256, n_rips=n_rips)
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for lo in range(0, n, batch):
            k = min(batch, n - lo)
            t.try_open_batch(rng.integers(0, n_rips, k), rng.integers(1, 4, k))
        grown = tracemalloc.get_traced_memory()[0] - base
        assert t.alive_count == n and sorted(t._buckets) == [1, 2, 3]
        assert grown < 256 * 1024
        assert t.close_due(3) == n
        assert t._buckets == {}
        assert tracemalloc.get_traced_memory()[0] - base < grown
    finally:
        tracemalloc.stop()


def test_validation():
    with pytest.raises(ValueError):
        ColumnarConnTable(0, 5)
    with pytest.raises(ValueError):
        ColumnarConnTable(2, 0)


def open_epoch(t, rng, epoch, n, chunk=500, n_rips=300):
    """Open *n* sessions lasting 1-3 epochs on RIPs ``0..n_rips-1``,
    *chunk* at a time."""
    for lo in range(0, n, chunk):
        k = min(chunk, n - lo)
        t.try_open_batch(
            rng.integers(0, n_rips, k), epoch + rng.integers(1, 4, k)
        )


def test_capacity_follows_peak_live_sessions():
    # Steady state: every epoch closes what is due, then opens a fresh
    # batch of 1-3 epoch sessions.  The rows held are the live sessions,
    # in at most one bucket per epoch still to close, so storage tracks
    # the peak live count, never the sessions ever opened.
    t = bound(4, 10**9, n_vips=40, n_rips=300)
    rng = np.random.default_rng(7)
    peak = 0
    for epoch in range(30):
        t.close_due(epoch)
        assert all(e > epoch for e in t._buckets)
        open_epoch(t, rng, epoch, 6000)
        peak = max(peak, t.alive_count)
        held = int(t.recount().sum())
        assert held == t.alive_count <= peak
        assert len(t._buckets) <= 3
    assert t.opened == 30 * 6000
    assert t.closed + t.alive_count == t.opened


def test_rows_held_follow_live_sessions():
    # Every row the table holds is a live session, after every open,
    # close and drop: steady 1-3 epoch sessions, sessions closing 10**6
    # epochs ahead that are then dropped, and closes that skip epochs.
    t = bound(4, 10**9, n_vips=40, n_rips=330)
    rng = np.random.default_rng(7)

    def held_is_live():
        assert sum(t.live_pairs().values()) == t.alive_count

    for epoch in range(30):
        t.close_due(epoch)
        held_is_live()
        open_epoch(t, rng, epoch, 6000)
        held_is_live()
        if epoch % 5 == 4:
            far = np.full(100, epoch + 10**6, dtype=np.int64)
            t.try_open_batch(np.full(100, 300 + epoch), far)
            held_is_live()
            mask = np.zeros(330, dtype=bool)
            mask[300 + epoch] = True
            assert t.drop_rips(mask) == 100
            held_is_live()
            assert epoch + 10**6 not in t._buckets  # emptied bucket freed
        if epoch % 7 == 6:
            t.drop_vip(int(rng.integers(0, 40)))
            held_is_live()
    assert t.opened == 30 * 6000 + 6 * 100
    t.close_due(10**7)
    held_is_live()
    assert t.alive_count == 0 and t.live_pairs() == {}


def test_recount_matches_counters():
    t = bound(3, 10**9, n_vips=12, n_rips=300)
    open_epoch(t, np.random.default_rng(1), 0, 200, chunk=30)
    t.close_due(1)
    derived = t.recount()
    assert derived[0] == 0
    assert derived[1:].tolist() == t.switch_count.tolist()
    by_vip = [0] * 12
    for (vip, _), n in t.live_pairs().items():
        by_vip[vip] += n
    assert [t.count_for_vip(v) for v in range(12)] == by_vip


class ScanTable:
    """Reference session table: one row per session, admitted one request
    at a time, and closed, dropped and counted by scanning every row."""

    def __init__(self, cap):
        self.cap = cap
        self.rows = []  # [vip, rip, switch, close epoch, alive]
        self.opened = self.closed = self.dropped = self.rejected = 0

    def live(self, switch=None):
        return [r for r in self.rows if r[4] and (switch is None or r[2] == switch)]

    def try_open_batch(self, vip, rip, switch, close):
        accepted = []
        for row in zip(vip.tolist(), rip.tolist(), switch.tolist(), close.tolist()):
            ok = len(self.live(row[2])) < self.cap
            if ok:
                self.rows.append([*row, True])
                self.opened += 1
            else:
                self.rejected += 1
            accepted.append(ok)
        return np.asarray(accepted, dtype=bool)

    def _retire(self, hit):
        rows = [r for r in self.live() if hit(r)]
        for r in rows:
            r[4] = False
        return len(rows)

    def close_due(self, epoch):
        n = self._retire(lambda r: r[3] <= epoch)
        self.closed += n
        return n

    def drop_vip(self, vip):
        n = self._retire(lambda r: r[0] == vip)
        self.dropped += n
        return n

    def drop_rips(self, mask):
        n = self._retire(lambda r: mask[r[1]])
        self.dropped += n
        return n

    def pairs(self):
        out = {}
        for r in self.live():
            out[(r[0], r[1])] = out.get((r[0], r[1]), 0) + 1
        return out

    def counts(self, n_switches, n_vips):
        by_switch = np.zeros(n_switches, dtype=np.int64)
        by_vip = np.zeros(n_vips, dtype=np.int64)
        for r in self.live():
            by_switch[r[2]] += 1
            by_vip[r[0]] += 1
        return by_switch.tolist(), by_vip.tolist()


def assert_matches(t, ref, n_vips):
    """*t* holds what the scanning reference *ref* holds: per-switch
    counters equal to the counts derived through the bindings, per-VIP
    and per-(VIP, RIP) counts, and the lifetime totals."""
    n_sw = t.switch_count.shape[0]
    derived = t.recount()
    assert derived[0] == 0  # no live session on an unbound RIP
    assert t.switch_count.tolist() == derived[1:].tolist()
    by_vip = [t.count_for_vip(v) for v in range(n_vips)]
    assert (derived[1:].tolist(), by_vip) == ref.counts(n_sw, n_vips)
    pairs = t.live_pairs()
    assert pairs == ref.pairs()
    assert sum(pairs.values()) == t.alive_count  # rows held
    assert (t.opened, t.closed, t.dropped, t.rejected) == (
        ref.opened, ref.closed, ref.dropped, ref.rejected
    )


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 40))
def test_counters_and_totals_match_scanning_reference(seed, steps):
    # Opens whose close epochs spread over several epochs (a few far
    # ahead), against a capacity small enough to reject, interleaved with
    # drops, switch growth and closes that skip epochs.
    rng = np.random.default_rng(seed)
    cap = int(rng.integers(1, 30))
    t = ColumnarConnTable(2, cap)
    ref = ScanTable(cap)
    # A fixed RIP -> VIP -> switch binding; a RIP is bound in the table
    # once its switch exists, as steering binds the registry's RIPs.
    bind_vip = rng.permutation(np.arange(40) % 5)
    vip_sw = rng.integers(0, 6, 5)
    vip_sw[0] = 0
    bind_sw = vip_sw[bind_vip]
    epoch = 0
    for _ in range(steps):
        op = int(rng.integers(0, 7))
        n_sw = t.switch_count.shape[0]
        if op <= 2:
            ready = np.flatnonzero(bind_sw < n_sw)
            t.bind(ready, bind_vip[ready], bind_sw[ready])
            k = int(rng.integers(0, 25))
            rip = rng.choice(ready, k)
            vip, sw = bind_vip[rip], bind_sw[rip]
            close = epoch + rng.integers(0, 5, k)
            far = rng.random(k) < 0.05
            close[far] += rng.choice([90, 10**6], int(far.sum()))
            want = ref.try_open_batch(vip, rip, sw, close)
            assert np.array_equal(t.try_open_batch(rip, close), want)
        elif op == 3:
            epoch += int(rng.integers(0, 4))
            assert t.close_due(epoch) == ref.close_due(epoch)
        elif op == 4:
            vip = int(rng.integers(0, 5))
            assert t.drop_vip(vip) == ref.drop_vip(vip)
        elif op == 5:
            mask = rng.random(40) < 0.2
            assert t.drop_rips(mask) == ref.drop_rips(mask)
        else:
            t.ensure_switches(n_sw + int(rng.integers(1, 3)))
        assert_matches(t, ref, 5)
    epoch += 10**6 + 100
    assert t.close_due(epoch) == ref.close_due(epoch)
    assert t.alive_count == 0 and t.count_for_vip(0) == 0


def test_rebinding_a_dropped_vip_moves_its_counts_to_the_new_switch():
    # The K2 move: a VIP's sessions are dropped, its RIPs re-bound to
    # another switch, and new sessions open there.  Every count derived
    # through the bindings stays right, before and after the move.
    t = ColumnarConnTable(3, 10**6)
    ref = ScanTable(10**6)
    # RIPs 0-3 serve VIP 0 and RIPs 4-7 VIP 1, all on switch 0.
    vip = np.arange(8) // 4
    home = np.zeros(8, dtype=np.int64)
    t.bind(np.arange(8), vip, home)
    rng = np.random.default_rng(5)

    def open_some(n, epoch):
        rip = rng.integers(0, 8, n)
        close = epoch + rng.integers(1, 4, n)
        want = ref.try_open_batch(vip[rip], rip, home[rip], close)
        assert np.array_equal(t.try_open_batch(rip, close), want)
        assert_matches(t, ref, 2)

    open_some(300, 0)
    moved = vip == 1
    assert t.drop_rips(moved) == ref.drop_rips(moved) > 0
    assert_matches(t, ref, 2)
    assert t.is_paused(1) and not t.is_paused(0)
    home[moved] = 2
    t.bind(np.flatnonzero(moved), vip[moved], home[moved])
    assert_matches(t, ref, 2)
    open_some(300, 1)
    assert t.switch_count[2] == t.count_for_vip(1) > 0
    for epoch in range(1, 5):
        assert t.close_due(epoch) == ref.close_due(epoch)
        assert_matches(t, ref, 2)
    assert t._buckets == {}
    assert t.switch_count.tolist() == [0, 0, 0]
