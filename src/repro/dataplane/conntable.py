"""Live-session counts per (close epoch, RIP) for the vectorized data plane.

The object :class:`~repro.lbswitch.conntrack.ConnectionTable` keeps one
``Connection`` per session; every reader here needs only counts (a CSM
switch's limit, a K2 pause, a close, pod loss or forced K2), so this
table keeps counts per (close epoch, RIP row) plus one live count per
switch, which makes capacity rejection O(1) per switch.

Each RIP row is bound (:meth:`ColumnarConnTable.bind`) to the (VIP, home
switch) it serves, once per registry change; a session's VIP and switch
are its RIP's.  A binding may change only while the RIP has no live
session (K2 re-homes only a paused VIP, or drops its sessions first, and
pod loss drops a RIP's sessions before it is wired again): re-binding a
RIP with live sessions, or opening on an unbound one, raises a
``ValueError`` naming the RIP and changes nothing.  So every other count
is derived through the bindings: each epoch in which some live session
closes has one bucket holding only a count per RIP row;
:meth:`close_due` pops the buckets it reaches and subtracts the
per-switch counts derived from them, a drop is one masked subtraction
over the per-RIP counts, and a K2 pause (:meth:`is_paused`) sums the
live per-RIP counts of the VIP's RIPs.  Memory follows the RIP rows and
the live close epochs (8 B per RIP per bucket), never the sessions.

Sequential-fill contract: :meth:`try_open_batch` admits requests exactly
as a per-request loop over the object tables would — request *k* is
rejected iff its switch's live count, **including every accepted open
earlier in the batch**, has reached capacity.  That makes rejection
decisions request-for-request identical to the object path, which the
differential harness asserts.  A batch that fits every switch it touches
is accepted whole without a sort; only the requests to a switch that
fills up look up their switch and get their running positions.
"""

from __future__ import annotations

import numpy as np

#: A batch whose close epochs span at most this many epochs is booked by
#: offset from its earliest one; a wider batch groups them with a sort.
_DENSE_SPAN = 64


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


def _grown(counts: np.ndarray, n: int, fill: int = 0) -> np.ndarray:
    """*counts* padded with *fill* to length *n*."""
    grown = np.full(n, fill, dtype=np.int64)
    grown[: counts.shape[0]] = counts
    return grown


def _through(by_rip: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """Per-id totals of the ``(k, n_rips)`` per-RIP counts *by_rip* through
    the RIP → id binding *ids*, ``(k, n + 1)``: column 0 holds the counts
    on unbound (``-1``) RIPs."""
    k = by_rip.shape[0]
    key = (np.arange(k)[:, None] * (n + 1) + (ids + 1)).ravel()
    out = np.bincount(key, weights=by_rip.ravel(), minlength=k * (n + 1))
    return out.astype(np.int64).reshape(k, n + 1)


class ColumnarConnTable:
    """Live-session counts per (close epoch, RIP) with a per-switch
    session capacity."""

    def __init__(self, n_switches: int, switch_capacity: int, rip_name=None):
        if n_switches < 1:
            raise ValueError("need at least one switch")
        if switch_capacity < 1:
            raise ValueError("switch capacity must be >= 1")
        self.switch_cap = int(switch_capacity)
        self.switch_count = np.zeros(n_switches, dtype=np.int64)
        #: Each RIP row's bound VIP and home switch (-1: unbound).
        self.rip_vip = np.zeros(0, dtype=np.int64)
        self.rip_switch = np.zeros(0, dtype=np.int64)
        self._rip_name = rip_name or "RIP row {}".format
        #: close epoch -> live sessions per RIP row closing then.
        self._buckets: dict[int, np.ndarray] = {}
        self.opened = 0
        self.closed = 0
        self.dropped = 0
        self.rejected = 0

    # -- sizing -------------------------------------------------------
    def ensure_switches(self, n_switches: int) -> None:
        """Grow the switch dimension (a VIP move can land on a switch the
        registry had not tracked yet)."""
        if n_switches > self.switch_count.shape[0]:
            self.switch_count = _grown(self.switch_count, n_switches)

    def bind(self, rips, vips, switches) -> None:
        """Bind RIP rows *rips* to the VIPs and home switches their sessions
        count under; a RIP with live sessions may not change its binding."""
        rips, vips, switches = (np.asarray(a, np.int64) for a in (rips, vips, switches))
        if not rips.size:
            return
        if int(switches.max()) >= self.switch_count.shape[0]:
            raise ValueError(f"switch {int(switches.max())} is past the table")
        known = rips < self.rip_vip.shape[0]
        r, v, s = rips[known], vips[known], switches[known]
        live = self._live_by_rip()[r]
        moved = ((self.rip_vip[r] != v) | (self.rip_switch[r] != s)) & (live > 0)
        if moved.any():
            i = int(np.flatnonzero(moved)[0])
            row = int(r[i])
            raise ValueError(
                f"{self._rip_name(row)} has {int(live[i])} live sessions: cannot "
                f"re-bind it to (vip {int(v[i])}, switch {int(s[i])})"
            )
        n_rips = int(rips.max()) + 1
        if n_rips > self.rip_vip.shape[0]:
            self.rip_vip = _grown(self.rip_vip, n_rips, -1)
            self.rip_switch = _grown(self.rip_switch, n_rips, -1)
            for e, by_rip in self._buckets.items():
                self._buckets[e] = _grown(by_rip, n_rips)
        self.rip_vip[rips] = vips
        self.rip_switch[rips] = switches

    @property
    def alive_count(self) -> int:
        return int(self.switch_count.sum())

    # -- the hot path -------------------------------------------------
    def _by_switch(self, by_rip: np.ndarray) -> np.ndarray:
        """Per-switch counts of *by_rip*; refuses counts on an unbound
        RIP, naming it."""
        out = _through(by_rip, self.rip_switch, self.switch_count.shape[0])
        if out[:, 0].any():
            r = int(np.flatnonzero(by_rip.any(axis=0) & (self.rip_switch < 0))[0])
            raise ValueError(f"{self._rip_name(r)} is not bound to a VIP")
        return out[:, 1:]

    def try_open_batch(self, rip: np.ndarray, close_epoch: np.ndarray) -> np.ndarray:
        """Admit a batch of opens on bound RIP rows *rip* under
        sequential-fill capacity checks; returns the accepted mask."""
        if rip.shape[0] == 0:
            return np.ones(0, dtype=bool)
        epochs, row = _close_rows(close_epoch)
        # One count per (RIP, close epoch); RIP-major, so a RIP past the
        # binding lands past the counts.
        key = np.multiply(rip, epochs.size, dtype=np.int64)
        key += row
        n = self.rip_switch.shape[0] * epochs.size
        counts = np.bincount(key, minlength=n)
        if counts.shape[0] > n:
            r = (counts.shape[0] - 1) // epochs.size
            raise ValueError(f"{self._rip_name(r)} is not bound to a VIP")
        by_rip = counts.reshape(-1, epochs.size).T
        by_switch = self._by_switch(by_rip)
        over = self.switch_count + by_switch.sum(axis=0) > self.switch_cap
        if not over.any():
            # Every switch has room for all of its requests, whatever
            # their order: the whole batch is accepted.
            accepted = np.ones(rip.shape[0], dtype=bool)
        else:
            # Only requests to a switch that fills up need their switch
            # and running position; the others are accepted outright.
            accepted = ~over[self.rip_switch][rip]
            crowd = np.flatnonzero(~accepted)
            sw = self.rip_switch[rip[crowd]]
            accepted[crowd] = (
                self.switch_count[sw] + _group_positions(sw) < self.switch_cap
            )
            by_rip = np.bincount(key[accepted], minlength=n).reshape(-1, epochs.size).T
            by_switch = self._by_switch(by_rip)
        n_acc = int(by_switch.sum())
        self.rejected += rip.shape[0] - n_acc
        if n_acc:
            self._book(epochs, by_rip, by_switch)
            self.opened += n_acc
        return accepted

    def _book(self, epochs, by_rip: np.ndarray, by_switch: np.ndarray) -> None:
        """Add per-RIP counts *by_rip* (negative to remove) to the buckets
        of *epochs*, and their per-switch counts *by_switch* to the
        counters; free a bucket left empty."""
        for k in np.flatnonzero(by_rip.any(axis=1)).tolist():
            e = int(epochs[k])
            bucket = self._buckets.get(e)
            if bucket is None:
                bucket = self._buckets[e] = np.zeros_like(self.rip_switch)
            bucket += by_rip[k]
            if not bucket.any():
                del self._buckets[e]
        self.switch_count += by_switch.sum(axis=0)

    def close_due(self, epoch: int) -> int:
        """Close every session whose lifetime ends at/before *epoch*: pop
        those close epochs' buckets and subtract their per-switch counts,
        derived through the bindings."""
        due = [e for e in self._buckets if e <= epoch]
        if not due:
            return 0
        gone = np.stack([self._buckets.pop(e) for e in due])
        by_switch = self._by_switch(gone).sum(axis=0)
        self.switch_count -= by_switch
        n = int(by_switch.sum())
        self.closed += n
        return n

    def drop_rips(self, rip_mask: np.ndarray) -> int:
        """Drop sessions pinned to RIP rows flagged in *rip_mask* (pod
        loss: every session homed in the dead pod dies with it)."""
        if not self._buckets:
            return 0
        n_rips = self.rip_vip.shape[0]
        mask = np.zeros(n_rips, dtype=bool)
        mask[: rip_mask.shape[0]] = rip_mask[:n_rips]
        epochs = list(self._buckets)
        gone = np.stack([self._buckets[e] for e in epochs]) * mask
        by_switch = self._by_switch(gone)
        n = int(by_switch.sum())
        if n:
            self._book(epochs, -gone, -by_switch)
            self.dropped += n
        return n

    def drop_vip(self, vip_id: int) -> int:
        """Forced drop of one VIP's sessions (K2 without a pause)."""
        return self.drop_rips(self.rip_vip == vip_id)

    # -- reads --------------------------------------------------------
    def count_for_vip(self, vip_id: int) -> int:
        """Live sessions on the RIPs bound to *vip_id*: a pass over every
        RIP row of every live bucket."""
        return int(self._live_by_rip()[self.rip_vip == vip_id].sum())

    def is_paused(self, vip_id: int) -> bool:
        """True when the VIP has no live sessions (K2 transfer window)."""
        return self.count_for_vip(vip_id) == 0

    def _live_by_rip(self) -> np.ndarray:
        """Live sessions per RIP row."""
        return sum(self._buckets.values(), np.zeros_like(self.rip_vip))

    def recount(self) -> np.ndarray:
        """Live sessions per switch derived through the bindings, column 0
        holding those on unbound RIP rows (the auditor's check on the
        counters)."""
        return _through(
            self._live_by_rip()[None, :], self.rip_switch,
            self.switch_count.shape[0],
        )[0]

    def live_pairs(self) -> dict[tuple[int, int], int]:
        """``(vip id, rip row) -> live session count`` (oracle surface)."""
        by_rip = self._live_by_rip()
        return {
            (int(self.rip_vip[r]), r): int(by_rip[r])
            for r in np.flatnonzero(by_rip).tolist()
        }
