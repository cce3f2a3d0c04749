"""Structured trace bus: typed, timestamped events with a deterministic
content digest.

Every traced subsystem emits :class:`TraceEvent`\\ s (epoch boundaries,
knob invocations, journal commits, fault injections, pool dispatch/merge)
onto one :class:`TraceBus`.  Events are serialized as *canonical JSON*
(sorted keys, fixed separators) and folded into a streaming SHA-256, so a
seeded run has a single content digest: two runs of the same scenario —
serial or parallel engine, any machine — must produce byte-identical
traces, and the digest is the cheap way to assert it.

Determinism contract for emitters: event payloads may carry **simulated**
time, counters and names only — never wall-clock times, worker identities
or pool widths, which differ across engine parallelism levels.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

#: Keys of the event envelope; payload fields must not shadow them.
RESERVED_KEYS = frozenset({"seq", "t", "kind"})


def _jsonable(value: Any) -> Any:
    """Coerce a payload value to plain JSON types, deterministically."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    return str(value)


def canonical_line(payload: dict) -> str:
    """The canonical JSON encoding the digest is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TraceEvent:
    """One typed, timestamped trace record.

    ``t`` is *simulated* time.  ``seq`` is the bus-wide emission index —
    total order even when many events share one simulation instant.
    """

    seq: int
    t: float
    kind: str
    data: dict

    def payload(self) -> dict:
        return {"seq": self.seq, "t": self.t, "kind": self.kind, **self.data}

    def line(self) -> str:
        try:
            return canonical_line(self.payload())
        except (TypeError, ValueError):
            # Non-JSON payload values (numpy scalars, sets, objects) get
            # the same deterministic coercion the bus digest applies.
            sanitized = {
                "seq": self.seq,
                "t": self.t,
                "kind": self.kind,
                **_jsonable(self.data),
            }
            return canonical_line(sanitized)


class TraceBus:
    """Collects trace events, maintains the streaming digest, and fans
    events out to subscribers (e.g. the invariant auditor).

    Parameters
    ----------
    path:
        Optional JSONL sink; each event is appended as one canonical line.
    enabled:
        ``False`` makes :meth:`emit` a cheap no-op returning ``None`` —
        emitters should additionally guard hot paths with
        ``if bus.enabled:`` so payload dicts are never even built.
    keep_events:
        Retain events in :attr:`events` (on by default; turn off for very
        long runs that only need the digest and the JSONL file).

    Canonical encoding and digest folding are *buffered*: :meth:`emit`
    appends a record and returns; serialization happens in batches of
    ``_DRAIN_EVERY`` or whenever :attr:`digest`, :meth:`flush` or
    :meth:`close` is called.  Payload values therefore must not be
    mutated after ``emit`` (every in-tree emitter passes scalars or
    freshly built containers).
    """

    _DRAIN_EVERY = 8192

    def __init__(
        self,
        path: Optional[str] = None,
        enabled: bool = True,
        keep_events: bool = True,
    ):
        self.enabled = enabled
        self.keep_events = keep_events
        self.events: list[TraceEvent] = []
        self._seq = 0
        self._sha = hashlib.sha256()
        self._pending: list[tuple[int, float, str, dict]] = []
        self._subscribers: list[Callable[[TraceEvent], None]] = []
        self.path = str(path) if path is not None else None
        self._fh = open(self.path, "w") if (self.path and enabled) else None

    # -- pub/sub ------------------------------------------------------------
    def subscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        if fn in self._subscribers:
            self._subscribers.remove(fn)

    def emit(self, kind: str, t: float, **data: Any) -> Optional[TraceEvent]:
        if not self.enabled:
            return None
        if RESERVED_KEYS & data.keys():
            raise ValueError(
                f"trace payload may not use reserved keys {sorted(RESERVED_KEYS)}"
            )
        seq = self._seq
        self._seq += 1
        self._pending.append((seq, float(t), str(kind), data))
        if len(self._pending) >= self._DRAIN_EVERY:
            self._drain()
        # The event object is only materialized for consumers; a bus that
        # just digests (keep_events=False, no auditor) skips it entirely.
        ev = None
        if self.keep_events or self._subscribers:
            ev = TraceEvent(seq=seq, t=float(t), kind=str(kind), data=data)
            if self.keep_events:
                self.events.append(ev)
            for fn in self._subscribers:
                fn(ev)
        return ev

    def _drain(self) -> None:
        """Serialize buffered records into the digest (and file sink).

        Fast path first: most payloads are plain JSON types and
        json.dumps (C-speed) is far cheaper than the _jsonable
        recursion — sanitize only when dumps rejects a value (numpy
        scalars, sets, arbitrary objects).
        """
        if not self._pending:
            return
        dumps = json.dumps
        parts = []
        for seq, t, kind, data in self._pending:
            payload = {"seq": seq, "t": t, "kind": kind}
            payload.update(data)
            try:
                line = dumps(payload, sort_keys=True, separators=(",", ":"))
            except (TypeError, ValueError):
                payload = {"seq": seq, "t": t, "kind": kind}
                payload.update(_jsonable(data))
                line = dumps(payload, sort_keys=True, separators=(",", ":"))
            parts.append(line)
        self._pending.clear()
        blob = "\n".join(parts) + "\n"
        self._sha.update(blob.encode())
        if self._fh is not None:
            self._fh.write(blob)

    # -- results ------------------------------------------------------------
    @property
    def digest(self) -> str:
        """SHA-256 over the canonical JSONL emitted so far."""
        self._drain()
        return self._sha.hexdigest()

    @property
    def count(self) -> int:
        return self._seq

    def close(self) -> None:
        self._drain()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------- file tools


def read_trace(path: str) -> list[TraceEvent]:
    """Parse a JSONL trace file back into events."""
    events: list[TraceEvent] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            data = {
                k: v for k, v in raw.items() if k not in RESERVED_KEYS
            }
            events.append(
                TraceEvent(
                    seq=int(raw["seq"]), t=float(raw["t"]),
                    kind=str(raw["kind"]), data=data,
                )
            )
    return events


def digest_of(events) -> str:
    """Digest of an event sequence (re-canonicalized, so it tolerates
    whitespace-normalized files and equals the emitting bus's digest)."""
    sha = hashlib.sha256()
    for ev in events:
        sha.update(ev.line().encode())
        sha.update(b"\n")
    return sha.hexdigest()


def summarize_trace(path: str) -> dict:
    """Per-kind counts, time span and digest of one trace file."""
    events = read_trace(path)
    return {
        "path": path,
        "events": len(events),
        "digest": digest_of(events),
        "t_first": events[0].t if events else None,
        "t_last": events[-1].t if events else None,
        "kinds": dict(Counter(ev.kind for ev in events)),
    }


def diff_traces(path_a: str, path_b: str) -> dict:
    """Structural diff of two trace files.

    Reports whether the digests match, the first diverging event (by
    position), and the per-kind count delta (b minus a).
    """
    a, b = read_trace(path_a), read_trace(path_b)
    first = None
    for i in range(max(len(a), len(b))):
        line_a = a[i].line() if i < len(a) else None
        line_b = b[i].line() if i < len(b) else None
        if line_a != line_b:
            first = {"index": i, "a": line_a, "b": line_b}
            break
    counts_a = Counter(ev.kind for ev in a)
    counts_b = Counter(ev.kind for ev in b)
    delta = {
        k: counts_b.get(k, 0) - counts_a.get(k, 0)
        for k in sorted(set(counts_a) | set(counts_b))
        if counts_b.get(k, 0) != counts_a.get(k, 0)
    }
    return {
        "identical": first is None,
        "a": {"path": path_a, "events": len(a), "digest": digest_of(a)},
        "b": {"path": path_b, "events": len(b), "digest": digest_of(b)},
        "first_divergence": first,
        "kind_delta": delta,
    }
