"""Struct-of-arrays connection tracking for the vectorized data plane.

The object :class:`~repro.lbswitch.conntrack.ConnectionTable` keeps one
``Connection`` dataclass per session in a dict per switch.  At mega scale
an epoch opens hundreds of thousands of sessions; this table keeps them
as int32 rows of (vip id, rip row, switch id), 12 bytes a session, shared
across *all* switches, with per-switch and per-VIP counters that make
capacity rejection and K2 pause windows O(1) reads.  An id that would not
fit int32 is refused with a ``ValueError`` naming its column, never
wrapped.

Sessions are held by close epoch.  Each epoch in which some live session
closes has one bucket: the rows of those sessions (a block from each
open batch that opened some) and their per-switch and per-VIP counts,
which sum to the counters above.  The close epoch is the bucket's key,
never a column.  :meth:`close_due` pops every bucket it reaches and
subtracts its counts without reading a row.  A drop compresses the rows it removes out of each
block it touches and un-books them from their bucket.  Every row held is
a live session, so memory follows the live sessions exactly: there is no
alive bit, no spare capacity and no compaction.

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

_INT32_MAX = int(np.iinfo(np.int32).max)
#: A batch whose close epochs span at most this many epochs is booked by
#: offset from its earliest one; a wider batch groups them with a sort.
_DENSE_SPAN = 64
#: The rows of a session block.
_VIP, _RIP, _SWITCH = range(3)


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


class _Bucket:
    """The live sessions that close in one epoch: their per-switch and
    per-VIP counts, and their rows as ``(3, n)`` int32 blocks."""

    __slots__ = ("by_switch", "by_vip", "blocks")

    def __init__(self, n_switches: int, n_vips: int):
        self.by_switch = np.zeros(n_switches, dtype=np.int64)
        self.by_vip = np.zeros(n_vips, dtype=np.int64)
        self.blocks: list[np.ndarray] = []


class ColumnarConnTable:
    """Session affinity rows with per-switch capacity enforcement."""

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
        self._buckets: dict[int, _Bucket] = {}
        self.ensure_vips(n_vips)
        self.rejected_by_switch = np.zeros(n_switches, dtype=np.int64)
        self.opened = 0
        self.closed = 0
        self.dropped = 0

    # -- sizing -------------------------------------------------------
    def ensure_vips(self, n_vips: int) -> None:
        _check_int32("conn_vip", n_vips - 1)
        if n_vips > self.vip_count.shape[0]:
            self.vip_count = _grown(self.vip_count, n_vips)
            for bucket in self._buckets.values():
                bucket.by_vip = _grown(bucket.by_vip, n_vips)

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
        for bucket in self._buckets.values():
            bucket.by_switch = _grown(bucket.by_switch, n_switches)

    def check_rips(self, n_rips: int) -> None:
        """Refuse a RIP registry whose rows the int32 column would wrap."""
        _check_int32("conn_rip", n_rips - 1)

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
        The accepted rows go to their close epochs' buckets: the whole
        batch as one block when it has one close epoch, else a block per
        close epoch, gathered by index.
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
        whole = not over.any()
        if whole:
            # Every switch has room for all of its requests, whatever
            # their order: the whole batch is accepted.
            accepted = np.ones(vip.shape[0], dtype=bool)
            acc = slice(None)
            opened = wanted
        else:
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
        n_acc = int(opened.sum())
        if not n_acc:
            return accepted
        vip_acc = vip[acc]
        self.ensure_vips(int(vip_acc.max()) + 1)
        n_vips = self.vip_count.shape[0]
        by_vip = _by_close(row[acc] * n_vips + vip_acc, epochs.size, n_vips)
        per_epoch = by_switch.sum(axis=1)
        for k in np.flatnonzero(per_epoch).tolist():
            n = int(per_epoch[k])
            if n == n_acc:
                idx = acc
            else:
                hit = row == k
                idx = np.flatnonzero(hit if whole else hit & accepted)
            block = np.empty((3, n), dtype=np.int32)
            block[_VIP] = vip[idx]
            block[_RIP] = rip[idx]
            block[_SWITCH] = switch[idx]
            e = int(epochs[k])
            bucket = self._buckets.get(e)
            if bucket is None:
                bucket = self._buckets[e] = _Bucket(n_sw, n_vips)
            bucket.by_switch += by_switch[k]
            bucket.by_vip += by_vip[k]
            bucket.blocks.append(block)
        self.switch_count += opened
        self.vip_count += by_vip.sum(axis=0)
        self.opened += n_acc
        return accepted

    def close_due(self, epoch: int) -> int:
        """Close every session whose lifetime ends at/before *epoch*: pop
        those close epochs' buckets and subtract their counts, reading no
        row."""
        n = 0
        for e in [e for e in self._buckets if e <= epoch]:
            bucket = self._buckets.pop(e)
            self.switch_count -= bucket.by_switch
            self.vip_count -= bucket.by_vip
            n += int(bucket.by_switch.sum())
        self.closed += n
        return n

    def _drop(self, hit) -> int:
        """Drop the sessions whose rows ``hit(block)`` flags: compress them
        out of their blocks and un-book them from their buckets."""
        n_sw, n_vips = self.switch_cap.shape[0], self.vip_count.shape[0]
        n = 0
        for e, bucket in list(self._buckets.items()):
            kept = []
            for block in bucket.blocks:
                gone = hit(block)
                if gone.any():
                    by_switch = np.bincount(block[_SWITCH][gone], minlength=n_sw)
                    by_vip = np.bincount(block[_VIP][gone], minlength=n_vips)
                    bucket.by_switch -= by_switch
                    bucket.by_vip -= by_vip
                    self.switch_count -= by_switch
                    self.vip_count -= by_vip
                    n += int(by_switch.sum())
                    block = block[:, ~gone]
                if block.shape[1]:
                    kept.append(block)
            bucket.blocks = kept
            if not kept:
                del self._buckets[e]
        self.dropped += n
        return n

    def drop_vip(self, vip_id: int) -> int:
        """Forced drop of one VIP's sessions (K2 without a pause)."""
        return self._drop(lambda block: block[_VIP] == vip_id)

    def drop_rips(self, rip_mask: np.ndarray) -> int:
        """Drop sessions pinned to RIP rows flagged in *rip_mask* (pod
        loss: every session homed in the dead pod dies with it)."""
        return self._drop(lambda block: rip_mask[block[_RIP]])

    # -- reads --------------------------------------------------------
    def count_for_vip(self, vip_id: int) -> int:
        if vip_id >= self.vip_count.shape[0]:
            return 0
        return int(self.vip_count[vip_id])

    def is_paused(self, vip_id: int) -> bool:
        """True when the VIP has no live sessions (K2 transfer window)."""
        return self.count_for_vip(vip_id) == 0

    def bookings(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """``close epoch -> (per-switch, per-VIP counts)`` booked for the
        live sessions that close then: what each close will subtract."""
        return {e: (b.by_switch, b.by_vip) for e, b in self._buckets.items()}

    def recount(
        self, close_epoch: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-switch and per-VIP live counts recounted from the rows of
        the sessions that close in *close_epoch*, or of all sessions (the
        auditor's check on the bookings and counters)."""
        n_sw, n_vips = self.switch_cap.shape[0], self.vip_count.shape[0]
        by_switch = np.zeros(n_sw, dtype=np.int64)
        by_vip = np.zeros(n_vips, dtype=np.int64)
        buckets = (
            self._buckets.values() if close_epoch is None
            else [self._buckets[close_epoch]]
        )
        for bucket in buckets:
            for block in bucket.blocks:
                by_switch += np.bincount(block[_SWITCH], minlength=n_sw)
                by_vip += np.bincount(block[_VIP], minlength=n_vips)
        return by_switch, by_vip

    def live_pairs(self) -> dict[tuple[int, int], int]:
        """``(vip id, rip row) -> live session count`` (oracle surface)."""
        out: dict[tuple[int, int], int] = {}
        for bucket in self._buckets.values():
            for block in bucket.blocks:
                for v, r in zip(block[_VIP].tolist(), block[_RIP].tolist()):
                    out[(v, r)] = out.get((v, r), 0) + 1
        return out
