"""Streaming workload: chunked generation must equal the whole vector, bitwise.

The mega driver's memory bound rests on consuming demand in chunks; these
properties pin the contract that chunking is *exactly* free — every chunk
is bit-identical to the corresponding slice of the full vector, for any
chunk size, time, and seed — and that the stream is deterministic across
independently constructed workloads (epoch-boundary determinism: a driver
rebuilt mid-run regenerates the same demand).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import StreamingWorkload


def build(n_apps=200, seed=0, **over):
    return StreamingWorkload(n_apps=n_apps, total_gbps=100.0, seed=seed, **over)


# ----------------------------------------------------- chunking contract


@settings(max_examples=40, deadline=None)
@given(
    n_apps=st.integers(1, 300),
    chunk_apps=st.integers(1, 350),
    seed=st.integers(0, 50),
    epoch=st.integers(0, 48),
)
def test_chunked_equals_materialized_bitwise(n_apps, chunk_apps, seed, epoch):
    w = build(n_apps=n_apps, seed=seed)
    t = epoch * 1800.0
    whole = w.cpu_demand(t)
    rebuilt = np.concatenate(
        [vals for _lo, _hi, vals in w.chunks(t, chunk_apps)]
    )
    # Bitwise, not approximate: the formula is elementwise in app index.
    assert whole.tobytes() == rebuilt.tobytes()
    assert w.fingerprint(t, chunk_apps) == w.fingerprint(t)


@settings(max_examples=30, deadline=None)
@given(
    chunk_a=st.integers(1, 64),
    chunk_b=st.integers(1, 64),
    t=st.floats(0.0, 7 * 86400.0, allow_nan=False),
)
def test_fingerprint_invariant_to_chunk_size(chunk_a, chunk_b, t):
    w = build(n_apps=97, seed=3)
    assert w.fingerprint(t, chunk_a) == w.fingerprint(t, chunk_b)


def test_chunks_cover_exactly_once_in_order():
    w = build(n_apps=100)
    spans = [(lo, hi) for lo, hi, _ in w.chunks(0.0, 33)]
    assert spans == [(0, 33), (33, 66), (66, 99), (99, 100)]


# ------------------------------------------- epoch-boundary determinism


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100), epoch=st.integers(0, 10))
def test_independent_constructions_agree(seed, epoch):
    """Two workloads built from the same parameters are interchangeable
    at any epoch boundary — state is derived, never accumulated."""
    t = epoch * 60.0
    a, b = build(seed=seed), build(seed=seed)
    assert a.fingerprint(t, 7) == b.fingerprint(t, 7)


def test_different_seeds_differ():
    assert build(seed=0).fingerprint(0.0) != build(seed=1).fingerprint(0.0)


def test_different_times_differ():
    w = build(diurnal_fraction=1.0)
    assert w.fingerprint(0.0) != w.fingerprint(21600.0)


# ------------------------------------------------------------ invariants


def test_demand_positive_and_total_conserved_at_mean():
    w = build(n_apps=1000, seed=7)
    d = w.cpu_demand(12345.0)
    assert (d > 0).all()  # amplitude <= 0.6 < 1
    assert w.mean_gbps.sum() == pytest.approx(100.0)


def test_slice_matches_full_vector():
    w = build(n_apps=50, seed=9)
    full = w.cpu_demand(777.0)
    assert w.cpu_demand(777.0, 10, 30).tobytes() == full[10:30].tobytes()


def test_validation():
    with pytest.raises(ValueError):
        StreamingWorkload(n_apps=0, total_gbps=1.0)
    with pytest.raises(ValueError):
        StreamingWorkload(n_apps=5, total_gbps=-1.0)
    with pytest.raises(ValueError):
        StreamingWorkload(n_apps=5, total_gbps=1.0, diurnal_fraction=1.5)
    w = build()
    with pytest.raises(ValueError):
        w.cpu_demand(0.0, 10, 5)
    with pytest.raises(ValueError):
        list(w.chunks(0.0, 0))
