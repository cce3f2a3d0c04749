"""Observability spine: metrics registry, structured trace bus, and the
cross-subsystem invariant auditor.

Typical use::

    from repro.obs import Observability

    obs = Observability(trace_path="run.jsonl")
    dc = MegaDataCenter(apps, obs=obs, audit=True)
    dc.run(3600.0)
    print(obs.trace.digest)          # deterministic per seeded run
    print(obs.metrics.snapshot())
    assert dc.auditor.ok

``Observability.disabled()`` gives a facade whose bus and registry are
no-ops, so instrumented code needs no branches at call sites.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.audit import InvariantAuditor, InvariantViolation, Violation
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
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
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
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


class Observability:
    """Bundles one :class:`MetricsRegistry` and one :class:`TraceBus`
    for a run; the unit the datacenter facade is wired with."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceBus] = None,
        trace_path: Optional[str] = None,
    ):
        if trace is not None and trace_path is not None:
            raise ValueError("pass either trace or trace_path, not both")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = (
            trace if trace is not None else TraceBus(path=trace_path)
        )

    @classmethod
    def disabled(cls) -> "Observability":
        """A facade whose every instrument and emit is a no-op."""
        return cls(
            metrics=MetricsRegistry(enabled=False),
            trace=TraceBus(enabled=False),
        )

    def close(self) -> None:
        self.trace.close()
