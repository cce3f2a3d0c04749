"""Columnar connection table: sequential-fill parity and lifecycle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.conntable import ColumnarConnTable, _group_positions


def test_group_positions():
    ids = np.array([3, 5, 3, 3, 5, 9, 3])
    assert _group_positions(ids).tolist() == [0, 0, 1, 2, 1, 0, 3]
    assert _group_positions(np.zeros(0, dtype=np.int64)).size == 0


def scalar_fill(count, cap, switch):
    """Reference: sequential per-request capacity check."""
    count = count.copy()
    out = []
    for s in switch:
        ok = count[s] < cap[s]
        if ok:
            count[s] += 1
        out.append(ok)
    return np.asarray(out, dtype=bool)


@settings(max_examples=40, deadline=None)
@given(
    switches=st.lists(st.integers(0, 3), min_size=0, max_size=60),
    caps=st.lists(st.integers(1, 12), min_size=4, max_size=4),
    pre=st.lists(st.integers(0, 8), min_size=4, max_size=4),
)
def test_try_open_batch_matches_sequential_fill(switches, caps, pre):
    caps = np.asarray(caps, dtype=np.int64)
    pre = np.minimum(np.asarray(pre, dtype=np.int64), caps)
    table = ColumnarConnTable(4, caps)
    # preload each switch to its starting occupancy
    for s, k in enumerate(pre):
        if k:
            table.try_open_batch(
                np.zeros(k, dtype=np.int64),
                np.zeros(k, dtype=np.int64),
                np.full(k, s, dtype=np.int64),
                np.full(k, 10**6, dtype=np.int64),
            )
    sw = np.asarray(switches, dtype=np.int64)
    got = table.try_open_batch(
        np.arange(sw.size, dtype=np.int64),
        np.arange(sw.size, dtype=np.int64),
        sw,
        np.full(sw.size, 10**6, dtype=np.int64),
    )
    want = scalar_fill(pre, caps, sw)
    assert np.array_equal(got, want)
    assert table.rejected == int((~want).sum())


def full_table():
    t = ColumnarConnTable(2, 100, n_vips=3)
    vip = np.array([0, 1, 2, 0, 1], dtype=np.int64)
    rip = np.array([10, 11, 12, 10, 13], dtype=np.int64)
    sw = np.array([0, 0, 1, 1, 0], dtype=np.int64)
    close = np.array([1, 2, 1, 3, 2], dtype=np.int64)
    assert t.try_open_batch(vip, rip, sw, close).all()
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
    t = ColumnarConnTable(1, 100, n_vips=1)
    vip = np.zeros(4, dtype=np.int64)
    rip = np.array([7, 7, 8, 7], dtype=np.int64)
    t.try_open_batch(vip, rip, np.zeros(4, dtype=np.int64), np.full(4, 9, dtype=np.int64))
    assert t.live_pairs() == {(0, 7): 3, (0, 8): 1}


def test_growth_and_compaction_bound_memory():
    t = ColumnarConnTable(1, 10**9)
    n = 3000
    for epoch in range(5):
        opened = t.try_open_batch(
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.full(n, epoch, dtype=np.int64),  # all close next epoch
        )
        assert opened.all()
        t.close_due(epoch)
    # rows compacted: storage stays O(live), not O(ever opened)
    assert t.opened == 5 * n and t.closed == 5 * n
    assert t._size < 2 * n + 4096
    assert t.alive_count == 0


def test_ensure_switches_grows_with_default_capacity():
    t = ColumnarConnTable(2, 5)
    t.ensure_switches(4, 7)
    assert t.switch_cap.tolist() == [5, 5, 7, 7]
    assert t.switch_count.tolist() == [0, 0, 0, 0]
    acc = t.try_open_batch(
        np.zeros(8, dtype=np.int64),
        np.zeros(8, dtype=np.int64),
        np.full(8, 3, dtype=np.int64),
        np.full(8, 9, dtype=np.int64),
    )
    assert acc.sum() == 7  # new switch honours its capacity


def test_validation():
    with pytest.raises(ValueError):
        ColumnarConnTable(0, 5)
    with pytest.raises(ValueError):
        ColumnarConnTable(2, 0)


def open_epoch(t, rng, epoch, n, chunk=500, n_vips=40, n_rips=300):
    """Open *n* sessions lasting 1-3 epochs, *chunk* at a time."""
    for lo in range(0, n, chunk):
        k = min(chunk, n - lo)
        vip = rng.integers(0, n_vips, k)
        t.try_open_batch(
            vip, rng.integers(0, n_rips, k), vip % t.switch_cap.shape[0],
            epoch + rng.integers(1, 4, k),
        )


def test_capacity_follows_peak_live_sessions():
    # Steady state: every epoch closes what is due, then opens a fresh
    # batch of 1-3 epoch sessions.  The table only grows when its live
    # rows do not fit, and then by 1.5x, so capacity tracks the peak live
    # count, never the sessions ever opened.
    t = ColumnarConnTable(4, 10**9, n_vips=40)
    rng = np.random.default_rng(7)
    peak = 0
    for epoch in range(30):
        t.close_due(epoch)
        open_epoch(t, rng, epoch, 6000)
        peak = max(peak, t.alive_count)
    assert t.opened == 30 * 6000
    assert t.conn_vip.shape[0] <= 1.5 * peak + ColumnarConnTable._GROW
    for col in (t.conn_vip, t.conn_rip, t.conn_switch, t.close_epoch):
        assert col.dtype == np.int32


class _NeverCompacts(ColumnarConnTable):
    _GROW = 1 << 20


class _SmallBlocks(ColumnarConnTable):
    _GROW = 8
    _BLOCK = 16


def live_rows(t):
    alive = t.alive[: t._size]
    return [
        col[: t._size][alive].tolist()
        for col in (t.conn_vip, t.conn_rip, t.conn_switch, t.close_epoch)
    ]


@pytest.mark.parametrize("seed", range(4))
def test_compaction_keeps_order_and_counts(seed):
    # A table that compacts often (tiny start, many copy blocks) answers
    # every close, drop and read exactly as one that never compacts, and
    # holds its live rows in the same order.
    rng = np.random.default_rng(seed)
    small, ref = _SmallBlocks(3, 10**9, n_vips=12), _NeverCompacts(3, 10**9, n_vips=12)
    for epoch in range(12):
        assert small.close_due(epoch) == ref.close_due(epoch)
        batch = [
            rng.integers(0, 12, 70), rng.integers(0, 50, 70),
            rng.integers(0, 3, 70), epoch + rng.integers(1, 4, 70),
        ]
        for lo in range(0, 70, 23):
            part = [a[lo: lo + 23] for a in batch]
            assert np.array_equal(small.try_open_batch(*part), ref.try_open_batch(*part))
        mask = rng.random(50) < 0.1
        assert small.drop_rips(mask) == ref.drop_rips(mask)
        vip = int(rng.integers(0, 12))
        assert small.drop_vip(vip) == ref.drop_vip(vip)
        assert small.live_pairs() == ref.live_pairs()
        assert live_rows(small) == live_rows(ref)
        assert small.switch_count.tolist() == ref.switch_count.tolist()
        assert small.vip_count.tolist() == ref.vip_count.tolist()
    assert small.conn_vip.shape[0] < ref.conn_vip.shape[0]


def test_recount_matches_counters():
    t = _SmallBlocks(3, 10**9, n_vips=12)
    open_epoch(t, np.random.default_rng(1), 0, 200, chunk=30, n_vips=12)
    t.close_due(1)
    by_switch, by_vip = t.recount()
    assert by_switch.tolist() == t.switch_count.tolist()
    assert by_vip.tolist() == t.vip_count.tolist()


def test_vip_id_past_int32_is_refused():
    t = ColumnarConnTable(1, 10)
    with pytest.raises(ValueError, match="conn_vip"):
        t.ensure_vips(2**31 + 1)
    one = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError, match="conn_vip"):
        t.try_open_batch(np.array([2**31]), one, one, one + 1)
    assert t.opened == 0 and t.alive_count == 0


def test_rip_row_past_int32_is_refused():
    t = ColumnarConnTable(1, 10)
    t.check_rips(2**31)
    with pytest.raises(ValueError, match="conn_rip"):
        t.check_rips(2**31 + 1)


def test_switch_id_past_int32_is_refused():
    with pytest.raises(ValueError, match="conn_switch"):
        ColumnarConnTable(2**31 + 1, 10)
    t = ColumnarConnTable(1, 10)
    with pytest.raises(ValueError, match="conn_switch"):
        t.ensure_switches(2**31 + 1, 10)
    assert t.switch_cap.shape[0] == 1


def test_close_epoch_past_int32_is_refused():
    t = ColumnarConnTable(1, 10)
    t.check_close_epoch(2**31 - 1)
    with pytest.raises(ValueError, match="close_epoch"):
        t.check_close_epoch(2**31)


class ScanTable:
    """Reference session table: one row per session, admitted one request
    at a time, and closed, dropped and counted by scanning every row."""

    def __init__(self, caps):
        self.caps = list(caps)
        self.rows = []  # [vip, rip, switch, close epoch, alive]
        self.opened = self.closed = self.dropped = self.rejected = 0

    def live(self, switch=None):
        return [r for r in self.rows if r[4] and (switch is None or r[2] == switch)]

    def try_open_batch(self, vip, rip, switch, close):
        accepted = []
        for row in zip(vip.tolist(), rip.tolist(), switch.tolist(), close.tolist()):
            ok = len(self.live(row[2])) < self.caps[row[2]]
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

    def counts(self, n_switches, n_vips):
        by_switch = np.zeros(n_switches, dtype=np.int64)
        by_vip = np.zeros(n_vips, dtype=np.int64)
        for r in self.live():
            by_switch[r[2]] += 1
            by_vip[r[0]] += 1
        return by_switch.tolist(), by_vip.tolist()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 40))
def test_counters_and_totals_match_scanning_reference(seed, steps):
    # Opens whose close epochs spread over several epochs (a few far
    # ahead), against capacities small enough to reject, interleaved with
    # drops, dimension growth and closes that skip epochs.
    rng = np.random.default_rng(seed)
    caps = rng.integers(1, 30, 2)
    t = _SmallBlocks(2, caps, n_vips=3)
    ref = ScanTable(caps)
    epoch = 0
    for _ in range(steps):
        op = int(rng.integers(0, 7))
        n_sw, n_vips = t.switch_cap.shape[0], t.vip_count.shape[0]
        if op <= 2:
            k = int(rng.integers(0, 25))
            vip = rng.integers(0, n_vips + 2, k)
            rip = rng.integers(0, 40, k)
            sw = rng.integers(0, n_sw, k)
            close = epoch + rng.integers(0, 5, k)
            far = rng.random(k) < 0.05
            close[far] += rng.choice([90, 10**6], int(far.sum()))
            want = ref.try_open_batch(vip, rip, sw, close)
            assert np.array_equal(t.try_open_batch(vip, rip, sw, close), want)
        elif op == 3:
            epoch += int(rng.integers(0, 4))
            assert t.close_due(epoch) == ref.close_due(epoch)
        elif op == 4:
            vip = int(rng.integers(0, n_vips))
            assert t.drop_vip(vip) == ref.drop_vip(vip)
        elif op == 5:
            mask = rng.random(40) < 0.2
            assert t.drop_rips(mask) == ref.drop_rips(mask)
        elif rng.random() < 0.5:
            t.ensure_vips(n_vips + int(rng.integers(1, 3)))
        else:
            cap = int(rng.integers(1, 30))
            grow = int(rng.integers(1, 3))
            t.ensure_switches(n_sw + grow, cap)
            ref.caps += [cap] * grow
        n_sw, n_vips = t.switch_cap.shape[0], t.vip_count.shape[0]
        by_switch, by_vip = t.recount()
        assert t.switch_count.tolist() == by_switch.tolist()
        assert t.vip_count.tolist() == by_vip.tolist()
        assert (by_switch.tolist(), by_vip.tolist()) == ref.counts(n_sw, n_vips)
        assert (t.opened, t.closed, t.dropped, t.rejected) == (
            ref.opened, ref.closed, ref.dropped, ref.rejected
        )
    epoch += 10**6 + 100
    assert t.close_due(epoch) == ref.close_due(epoch)
    assert t.alive_count == 0 and not t.vip_count.any()
