"""Observability: the structured trace bus and the cross-subsystem
invariant auditor.

Typical use::

    from repro.obs import TraceBus

    trace = TraceBus(path="run.jsonl")
    dc = MegaDataCenter(apps, trace=trace, audit=True)
    dc.run(3600.0)
    dc.close()
    trace.close()
    print(trace.digest)              # deterministic per seeded run
    assert dc.auditor.ok

Without a bus, ``MegaDataCenter`` emits onto ``TraceBus(enabled=False)``,
whose ``emit`` is a no-op, so instrumented code needs no branches at call
sites.
"""

from __future__ import annotations

from repro.obs.audit import InvariantAuditor, InvariantViolation, Violation
from repro.obs.trace import (
    RESERVED_KEYS,
    TraceBus,
    TraceEvent,
    diff_traces,
    digest_of,
    read_trace,
    summarize_trace,
)

__all__ = [
    "TraceBus",
    "TraceEvent",
    "RESERVED_KEYS",
    "read_trace",
    "digest_of",
    "summarize_trace",
    "diff_traces",
    "InvariantAuditor",
    "InvariantViolation",
    "Violation",
]
