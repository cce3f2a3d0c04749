"""Struct-of-arrays connection tracking for the vectorized data plane.

The object :class:`~repro.lbswitch.conntrack.ConnectionTable` keeps one
``Connection`` dataclass per session in a dict per switch.  At mega scale
an epoch opens hundreds of thousands of sessions; this table keeps them
as parallel columns (int32 vip id, rip row, switch id and close epoch,
plus an alive bit: 17 bytes a row) shared across *all* switches, with
per-switch and per-VIP counters that make capacity rejection and K2
pause windows O(1) reads.  An id that would not fit int32 is refused
with a ``ValueError`` naming its column, never wrapped.

Memory follows the live sessions, not the sessions ever opened.  Closes
and drops only clear alive bits; the one compaction path,
:meth:`_compact`, runs when a batch does not fit.  It first drops the
dead rows, keeping the live ones in their order, and grows the columns
(by 1.5x) only if the live rows still leave no room, so the capacity
stays within 1.5x of the peak live count.

Close-epoch counters: an open books each accepted session's switch and
VIP count under its close epoch (one ``bincount`` over a combined
``(close-epoch offset, id)`` key, whose column sums are also the
counters' increments), and a drop un-books its rows.  :meth:`close_due`
then pops the bookings of every epoch it reaches and subtracts them,
and clears the due rows' alive bits in one pass, with no index array
and no per-row count.

Sequential-fill contract: :meth:`try_open_batch` admits requests exactly
as a per-request loop over the object tables would — request *k* is
rejected iff its switch's live count, **including every accepted open
earlier in the batch**, has reached capacity.  That makes rejection
decisions request-for-request identical to the object path, which the
differential harness asserts.  A batch that fits every switch it touches
is accepted whole without a sort; only the requests to a switch that
fills up get their running per-switch positions.
"""

from __future__ import annotations

import numpy as np

#: The session columns.  "alive" comes last: an in-place compaction reads
#: each block's kept rows off it before overwriting it.
_COLUMNS = ("conn_vip", "conn_rip", "conn_switch", "close_epoch", "alive")
_INT32_MAX = int(np.iinfo(np.int32).max)
#: A batch whose close epochs span at most this many epochs is booked by
#: offset from its earliest one; a wider batch groups them with a sort.
_DENSE_SPAN = 64


def _check_int32(column: str, top: int) -> None:
    """Refuse a *column* value the int32 session columns would wrap."""
    if top > _INT32_MAX:
        raise ValueError(
            f"{column}: value {top} does not fit the int32 column "
            f"(max {_INT32_MAX})"
        )


def _group_positions(ids: np.ndarray) -> np.ndarray:
    """Position of each element within its id-group, in array order.

    ``[3, 5, 3, 3, 5] -> [0, 0, 1, 2, 1]`` — the running per-id count a
    sequential loop would see before handling each element.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    n = ids.shape[0]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )
    lengths = np.diff(np.concatenate((starts, [n])))
    pos_sorted = np.arange(n, dtype=np.int64) - np.repeat(starts, lengths)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = pos_sorted
    return pos


def _close_rows(close: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(epochs, row)`` with ``close[i] == epochs[row[i]]``: every epoch
    from the earliest close to the latest when they are few, else the
    distinct ones.  *close* must not be empty."""
    lo, hi = int(close.min()), int(close.max())
    if hi - lo < _DENSE_SPAN:
        return np.arange(lo, hi + 1), np.subtract(close, lo, dtype=np.int64)
    epochs, row = np.unique(close, return_inverse=True)
    return epochs, row.reshape(-1)


def _grown(counts: np.ndarray, n: int) -> np.ndarray:
    """*counts* zero-padded to length *n*."""
    grown = np.zeros(n, dtype=np.int64)
    grown[: counts.shape[0]] = counts
    return grown


def _by_close(key: np.ndarray, n_rows: int, n_ids: int) -> np.ndarray:
    """``(n_rows, n_ids)`` counts of combined ``row * n_ids + id`` keys
    (*row* from :func:`_close_rows`), in one ``bincount``."""
    return np.bincount(key, minlength=n_rows * n_ids).reshape(n_rows, n_ids)


class ColumnarConnTable:
    """Session affinity columns with per-switch capacity enforcement."""

    _GROW = 1024
    #: Rows :meth:`_compact` copies per step.
    _BLOCK = 1 << 16

    def __init__(self, n_switches: int, switch_capacity, n_vips: int = 0):
        if n_switches < 1:
            raise ValueError("need at least one switch")
        _check_int32("conn_switch", n_switches - 1)
        cap = np.broadcast_to(
            np.asarray(switch_capacity, dtype=np.int64), (n_switches,)
        ).copy()
        if (cap < 1).any():
            raise ValueError("switch capacities must be >= 1")
        self.switch_cap = cap
        self.switch_count = np.zeros(n_switches, dtype=np.int64)
        self.vip_count = np.zeros(0, dtype=np.int64)
        #: Live sessions by close epoch: ``epoch -> [per-switch counts,
        #: per-VIP counts]``, summing to the two counters above.
        self._booked: dict[int, list[np.ndarray]] = {}
        self.ensure_vips(n_vips)
        self.rejected_by_switch = np.zeros(n_switches, dtype=np.int64)
        # Rows [0, _size) are sessions, live or dead; rows past _size are
        # unused capacity and never read.
        n = self._GROW
        self.conn_vip = np.empty(n, dtype=np.int32)
        self.conn_rip = np.empty(n, dtype=np.int32)
        self.conn_switch = np.empty(n, dtype=np.int32)
        self.close_epoch = np.empty(n, dtype=np.int32)
        self.alive = np.empty(n, dtype=bool)
        self._size = 0
        self.opened = 0
        self.closed = 0
        self.dropped = 0

    # -- sizing -------------------------------------------------------
    def _compact(self, extra: int) -> None:
        """Make room for *extra* new rows: drop the dead rows first, and
        grow by 1.5x only if the live rows still leave too little room.

        Live rows keep their order either way.  A growth copies one
        column at a time, so it holds a single old column beside the new
        ones.
        """
        cap, size = self.conn_vip.shape[0], self._size
        if size + extra <= cap:
            return
        n_live = int(np.count_nonzero(self.alive[:size]))
        need = n_live + extra
        if need <= cap:
            cols = [getattr(self, attr) for attr in _COLUMNS]
            self._copy_live(cols, cols, size)
        else:
            new = max(cap + cap // 2, need)
            for attr in _COLUMNS:
                old = getattr(self, attr)
                col = np.empty(new, dtype=old.dtype)
                self._copy_live([old], [col], size)
                setattr(self, attr, col)
        self._size = n_live

    def _copy_live(self, src: list, dst: list, size: int) -> None:
        """Copy the live rows of rows ``[0, size)`` of each *src* column
        to the front of its *dst* column, in order, a block at a time so
        the index temporaries stay small.  In place (``dst is src``), a
        block's live rows land at or below its own start, never on a row
        still to be read."""
        w = 0
        for lo in range(0, size, self._BLOCK):
            keep = lo + np.flatnonzero(self.alive[lo : lo + self._BLOCK])
            for old, col in zip(src, dst):
                col[w : w + keep.size] = old[keep]
            w += keep.size

    def ensure_vips(self, n_vips: int) -> None:
        _check_int32("conn_vip", n_vips - 1)
        if n_vips > self.vip_count.shape[0]:
            self.vip_count = _grown(self.vip_count, n_vips)
            for book in self._booked.values():
                book[1] = _grown(book[1], n_vips)

    def ensure_switches(self, n_switches: int, capacity) -> None:
        """Grow the switch dimension (a VIP move can land on a switch the
        registry had not tracked yet); new switches get *capacity*."""
        old = self.switch_cap.shape[0]
        if n_switches <= old:
            return
        _check_int32("conn_switch", n_switches - 1)
        cap = np.full(n_switches, int(capacity), dtype=np.int64)
        cap[:old] = self.switch_cap
        self.switch_cap = cap
        for attr in ("switch_count", "rejected_by_switch"):
            setattr(self, attr, _grown(getattr(self, attr), n_switches))
        for book in self._booked.values():
            book[0] = _grown(book[0], n_switches)

    def check_rips(self, n_rips: int) -> None:
        """Refuse a RIP registry whose rows the int32 column would wrap."""
        _check_int32("conn_rip", n_rips - 1)

    def check_close_epoch(self, last: int) -> None:
        """Refuse close epochs up to *last* that int32 would wrap (once
        per epoch, with the latest close a session opened in it can get)."""
        _check_int32("close_epoch", last)

    @property
    def alive_count(self) -> int:
        return int(self.switch_count.sum())

    @property
    def rejected(self) -> int:
        return int(self.rejected_by_switch.sum())

    # -- the hot path -------------------------------------------------
    def try_open_batch(
        self,
        vip: np.ndarray,
        rip: np.ndarray,
        switch: np.ndarray,
        close_epoch: np.ndarray,
    ) -> np.ndarray:
        """Admit a batch of opens under sequential-fill capacity checks.

        Returns the accepted mask; rejected requests count per switch.
        """
        n_sw = self.switch_cap.shape[0]
        if switch.shape[0] == 0:
            return np.ones(0, dtype=bool)
        # Bookings by close epoch: their column sums are the counts.
        epochs, row = _close_rows(close_epoch)
        sw_key = row * n_sw + switch
        by_switch = _by_close(sw_key, epochs.size, n_sw)
        wanted = by_switch.sum(axis=0)
        over = self.switch_count + wanted > self.switch_cap
        if over.any():
            # Only requests to a switch that fills up need their running
            # position; the others are accepted outright.
            accepted = ~over[switch]
            crowd = np.flatnonzero(~accepted)
            sw = switch[crowd]
            accepted[crowd] = (
                self.switch_count[sw] + _group_positions(sw)
                < self.switch_cap[sw]
            )
            acc = np.flatnonzero(accepted)
            by_switch = _by_close(sw_key[acc], epochs.size, n_sw)
            opened = by_switch.sum(axis=0)
            self.rejected_by_switch += wanted - opened
        else:
            # Every switch has room for all of its requests, whatever
            # their order: the whole batch is accepted.
            accepted = np.ones(vip.shape[0], dtype=bool)
            acc = slice(None)
            opened = wanted
        n_acc = int(opened.sum())
        if n_acc:
            vip_acc = vip[acc]
            self.ensure_vips(int(vip_acc.max()) + 1)
            n_vips = self.vip_count.shape[0]
            by_vip = _by_close(row[acc] * n_vips + vip_acc, epochs.size, n_vips)
            self._compact(n_acc)
            lo, hi = self._size, self._size + n_acc
            self.conn_vip[lo:hi] = vip_acc
            self.conn_rip[lo:hi] = rip[acc]
            self.conn_switch[lo:hi] = switch[acc]
            self.close_epoch[lo:hi] = close_epoch[acc]
            self.alive[lo:hi] = True
            self._size = hi
            self.switch_count += opened
            self.vip_count += by_vip.sum(axis=0)
            self._book(epochs, by_switch, by_vip)
            self.opened += n_acc
        return accepted

    def _book(self, epochs, by_switch, by_vip) -> None:
        """Add per-epoch rows of switch and VIP counts to the bookings."""
        for e, sw, vp in zip(epochs.tolist(), by_switch, by_vip):
            if not sw.any():
                continue
            book = self._booked.get(e)
            if book is None:
                self._booked[e] = [sw.copy(), vp.copy()]
            else:
                book[0] += sw
                book[1] += vp

    def _retire(self, idx: np.ndarray) -> int:
        """Mark rows dead and roll their counters and bookings back."""
        if idx.size == 0:
            return 0
        self.alive[idx] = False
        epochs, row = _close_rows(self.close_epoch[idx])
        n_sw, n_vips = self.switch_cap.shape[0], self.vip_count.shape[0]
        by_switch = _by_close(row * n_sw + self.conn_switch[idx], epochs.size, n_sw)
        by_vip = _by_close(row * n_vips + self.conn_vip[idx], epochs.size, n_vips)
        self.switch_count -= by_switch.sum(axis=0)
        self.vip_count -= by_vip.sum(axis=0)
        self._book(epochs, -by_switch, -by_vip)
        return int(idx.size)

    def close_due(self, epoch: int) -> int:
        """Close every session whose lifetime ends at/before *epoch*.

        The counters drop by the bookings of those close epochs, so only
        the alive bits are touched row by row."""
        due = [e for e in self._booked if e <= epoch]
        if not due:
            return 0
        by_switch, by_vip = self._booked.pop(due[0])
        for e in due[1:]:
            sw, vp = self._booked.pop(e)
            by_switch += sw
            by_vip += vp
        n = int(by_switch.sum())
        if n:
            self.switch_count -= by_switch
            self.vip_count -= by_vip
            live = self.alive[: self._size]
            np.logical_and(
                live, self.close_epoch[: self._size] > epoch, out=live
            )
        self.closed += n
        return n

    def drop_vip(self, vip_id: int) -> int:
        """Forced drop of one VIP's sessions (K2 without a pause)."""
        idx = np.flatnonzero(
            self.alive[: self._size] & (self.conn_vip[: self._size] == vip_id)
        )
        n = self._retire(idx)
        self.dropped += n
        return n

    def drop_rips(self, rip_mask: np.ndarray) -> int:
        """Drop sessions pinned to RIP rows flagged in *rip_mask* (pod
        loss: every session homed in the dead pod dies with it)."""
        rips = self.conn_rip[: self._size]
        idx = np.flatnonzero(self.alive[: self._size] & rip_mask[rips])
        n = self._retire(idx)
        self.dropped += n
        return n

    # -- reads --------------------------------------------------------
    def count_for_vip(self, vip_id: int) -> int:
        if vip_id >= self.vip_count.shape[0]:
            return 0
        return int(self.vip_count[vip_id])

    def is_paused(self, vip_id: int) -> bool:
        """True when the VIP has no live sessions (K2 transfer window)."""
        return self.count_for_vip(vip_id) == 0

    def recount(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-switch and per-VIP live counts recounted from the rows (the
        auditor's check on the counters), a block of rows at a time."""
        by_switch = np.zeros(self.switch_cap.shape[0], dtype=np.int64)
        by_vip = np.zeros(self.vip_count.shape[0], dtype=np.int64)
        for lo in range(0, self._size, self._BLOCK):
            hi = min(lo + self._BLOCK, self._size)
            live = self.alive[lo:hi]
            by_switch += np.bincount(
                self.conn_switch[lo:hi][live], minlength=by_switch.shape[0]
            )
            by_vip += np.bincount(
                self.conn_vip[lo:hi][live], minlength=by_vip.shape[0]
            )
        return by_switch, by_vip

    def live_pairs(self) -> dict[tuple[int, int], int]:
        """``(vip id, rip row) -> live session count`` (oracle surface)."""
        live = np.flatnonzero(self.alive[: self._size])
        out: dict[tuple[int, int], int] = {}
        vips = self.conn_vip[live]
        rips = self.conn_rip[live]
        for v, r in zip(vips.tolist(), rips.tolist()):
            out[(v, r)] = out.get((v, r), 0) + 1
        return out
