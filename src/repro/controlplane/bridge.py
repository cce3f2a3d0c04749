"""Epoch-fenced sync bridge: shard journals -> columnar RIP mirror.

The sharded control plane (:class:`~repro.controlplane.sharding.ShardedControlPlane`)
stays the **authority** over VIP/RIP state; the mega-scale epoch loop
reads a :class:`~repro.core.columnar.ColumnarRipRegistry` mirror instead
of walking Python registries.  :class:`RipJournalBridge` keeps the mirror
fresh with batched incremental deltas in the common case, CRC
fingerprints to witness agreement, and a full rebuild when the cheap path
can't be trusted.

Protocol (per journal source, i.e. per shard):

1. **Tail consumption.**  ``sync()`` reads ``journal.tail(cursor)`` and
   applies every *settled* record (``APPLIED``; ``ABORTED`` is skipped).
   Records still in flight are parked in a pending set — the bridge holds
   the :class:`~repro.controlplane.journal.JournalRecord` objects, so a
   later checkpoint truncation cannot lose them — and are applied on a
   later ``sync()`` once they settle.
2. **Epoch fence.**  The cursor only covers epochs the bridge has seen;
   journal epochs are monotonic per shard, so a record is consumed exactly
   once.
3. **Truncation gap.**  If ``checkpoints.epoch`` has advanced past the
   cursor, records in the gap may have been truncated away before the
   bridge saw them — the bridge reloads the one mirror in place from the
   authority's switch tables (``rip_homing()``), so the data plane that
   steers on it sees the rebuild, and re-fences every cursor.
4. **Verification.**  ``verify()`` builds a shadow registry from the
   authority and compares CRC fingerprints (name-canonical, so differing
   id-assignment orders agree).  Anti-entropy *repairs* mutate switch
   tables without journaling — after a convergence storm, call
   ``verify(repair=True)`` at quiescence to rebuild the mirror in place
   when fingerprints diverge.

Convergence argument for out-of-order shard interleavings: every journal
record names a switch owned by the shard that journaled it, so per-switch
operation order equals per-shard journal order; the mirror's mutations
are switch-guarded (an unwire/rehome only applies when the mirror
still homes the RIP on the record's switch), which makes replaying the
per-shard streams in any interleaving converge to the authority state.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.controlplane.journal import JournalRecord, OpPhase
from repro.core.columnar import ColumnarRipRegistry


class _Source:
    """One journal feed: a control-plane shard."""

    __slots__ = ("journal", "checkpoints", "cursor", "pending")

    def __init__(self, journal, checkpoints):
        self.journal = journal
        self.checkpoints = checkpoints
        self.cursor = 0
        self.pending: list[JournalRecord] = []


class RipJournalBridge:
    """Keeps a :class:`ColumnarRipRegistry` in sync with shard journals."""

    def __init__(
        self,
        plane,
        pod_of: Callable[[str], Optional[str]],
        trace=None,
    ):
        #: The ``ShardedControlPlane`` whose shard journals feed the mirror;
        #: trace events are stamped with its clock.
        self.plane = plane
        #: Maps a RIP name to its hosting pod.
        self.pod_of = pod_of
        self.trace = trace
        self.registry = ColumnarRipRegistry()
        self._sources = [
            _Source(s.journal, s.checkpoints) for s in plane.shards
        ]
        #: Settled records applied across all syncs.
        self.records_applied = 0
        #: Full rebuilds (truncation gaps + verify repairs).
        self.rebuilds = 0
        #: sync() calls.
        self.syncs = 0

    # -- authority reads ----------------------------------------------------
    def rebuild(self) -> None:
        """Reload the mirror in place from the authority's switch tables
        and re-fence every cursor."""
        self.registry.load(self.plane.rip_homing(), self.pod_of)
        self.rebuilds += 1
        for src in self._sources:
            src.cursor = src.journal.last_epoch
            # Effects of settled records are in the snapshot; in-flight
            # records must still be applied once they settle.
            src.pending = list(src.journal.unsettled)

    # -- incremental sync ---------------------------------------------------
    def sync(self) -> dict:
        """Consume new journal records into the mirror; returns stats."""
        self.syncs += 1
        applied = 0
        rebuilt = False
        for src in self._sources:
            if src.checkpoints.epoch > src.cursor:
                # Records in (cursor, checkpoint] may be truncated away.
                self.rebuild()
                rebuilt = True
                break
        if not rebuilt:
            for src in self._sources:
                still_pending: list[JournalRecord] = []
                for rec in src.pending:
                    if rec.settled:
                        applied += self._apply(rec)
                    else:
                        still_pending.append(rec)
                src.pending = still_pending
                for rec in src.journal.tail(src.cursor):
                    if rec.settled:
                        applied += self._apply(rec)
                    else:
                        src.pending.append(rec)
                    src.cursor = rec.epoch
        self.records_applied += applied
        stats = {
            "applied": applied,
            "rebuilt": rebuilt,
            "pending": sum(len(s.pending) for s in self._sources),
        }
        if self.trace is not None and self.trace.enabled:
            self.trace.emit(
                "ripmap.sync",
                t=self.plane.env.now,
                **stats,
                fingerprint=self.registry.fingerprint(),
            )
        return stats

    def _apply(self, rec: JournalRecord) -> int:
        """Apply one settled record to the mirror; returns 1 if consumed."""
        if rec.phase is OpPhase.ABORTED:
            return 1
        p = rec.payload
        kind = rec.kind
        if kind == "new_vip":
            pass  # a VIP with no RIPs has no mirror rows yet
        elif kind == "new_rip":
            self.registry.wire(
                p["rip"], rec.app, p["vip"], p["switch"], self.pod_of(p["rip"]),
                p.get("weight", 1.0),
            )
        elif kind == "del_rip":
            self.registry.unwire(p["rip"], p.get("switch"))
        elif kind == "del_vip":
            for rip in p["rips"]:
                self.registry.unwire(rip, p.get("switch"))
        elif kind == "move_vip":
            dst = p.get("dst")
            if dst is not None:
                self.registry.rehome_vip(p["vip"], p.get("src"), dst)
        return 1

    # -- verification -------------------------------------------------------
    def verify(self, repair: bool = False) -> bool:
        """Compare the mirror's fingerprint against a fresh authority
        rebuild.  Call at quiescence (no in-flight requests).  With
        *repair*, a divergent mirror is rebuilt in place — the recovery
        path for un-journaled anti-entropy repairs."""
        shadow = ColumnarRipRegistry.from_authority(
            self.plane.rip_homing(), self.pod_of
        )
        ok = shadow.fingerprint() == self.registry.fingerprint()
        if not ok and repair:
            self.rebuild()
        if self.trace is not None and self.trace.enabled:
            self.trace.emit(
                "ripmap.verify",
                t=self.plane.env.now,
                ok=ok, repaired=bool(not ok and repair),
            )
        return ok
