"""Vectorized traffic data plane for the mega-scale loop.

The object model serves DNS answers and pins TCP sessions one Python call
at a time (:class:`~repro.dns.resolver.Resolver`,
:class:`~repro.lbswitch.conntrack.ConnectionTable`).  This package is the
columnar counterpart the 300k-server loop steers traffic with: batched
numpy request resolution app → VIP → RIP over the
:class:`~repro.core.columnar.ColumnarRipRegistry` mirror, TTL caches as
array masks, and live-session counts per (close epoch, RIP) — proven
request-for-request equivalent to the object path by
:func:`repro.testing.differential.run_dataplane_differential`.
"""

from repro.dataplane.conntable import ColumnarConnTable
from repro.dataplane.dnstable import VectorizedDnsTable
from repro.dataplane.objectpath import ObjectDataPlane
from repro.dataplane.steering import ColumnarDataPlane, SteerReport

__all__ = [
    "ColumnarConnTable",
    "ColumnarDataPlane",
    "ObjectDataPlane",
    "SteerReport",
    "VectorizedDnsTable",
]
