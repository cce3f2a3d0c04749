"""Determinism and chunking contracts of the request stream."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.policy import weighted_cdf
from repro.workload.requests import RequestStream

FIELDS = ("resolver", "app", "u_dns", "u_rip", "duration")


def make_stream(**over):
    over.setdefault("n_resolvers", 40)
    over.setdefault("app_weights", np.arange(1.0, 9.0))
    over.setdefault("requests_per_epoch", 1000)
    over.setdefault("seed", 3)
    return RequestStream(**over)


def chunk_digest(chunks):
    """SHA-256 over the concatenated bytes of each field, field by field."""
    chunks = list(chunks)
    h = hashlib.sha256()
    for attr in FIELDS:
        for chunk in chunks:
            h.update(np.ascontiguousarray(getattr(chunk, attr)).tobytes())
    return h.hexdigest()


def fingerprint(stream, epoch):
    """SHA-256 over one epoch's exact request bytes."""
    return chunk_digest([stream.epoch_requests(epoch)])


def test_same_seed_same_epoch_is_identical():
    a, b = make_stream(), make_stream()
    fa, fb = a.epoch_requests(2), b.epoch_requests(2)
    for attr in FIELDS:
        assert np.array_equal(getattr(fa, attr), getattr(fb, attr))
    assert fingerprint(a, 2) == fingerprint(b, 2)


def test_epochs_and_seeds_differ():
    s = make_stream()
    assert fingerprint(s, 0) != fingerprint(s, 1)
    assert fingerprint(make_stream(seed=4), 0) != fingerprint(s, 0)


def test_chunks_equal_slices_of_the_whole_epoch():
    s = make_stream()
    full = s.epoch_requests(1)
    lo = 0
    for chunk in s.chunks(1, 128):
        assert chunk.lo == lo and len(chunk) <= 128
        for attr in FIELDS:
            got, want = getattr(chunk, attr), getattr(full, attr)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want[chunk.lo:chunk.hi])
        lo = chunk.hi
    assert lo == len(full)


def test_one_chunk_is_resident_at_a_time():
    # The stream holds the epoch's int32 resolver column (4 MB at 1M
    # requests) and the chunk being drawn (2.6 MB at 65,536 requests);
    # the epoch's five fields would be 40 MB.
    s = make_stream(requests_per_epoch=1_000_000, n_resolvers=10_000)
    for _ in s.chunks(0, 65_536):
        break  # first use loads what the draw imports lazily
    tracemalloc.start()
    try:
        seen = 0
        for chunk in s.chunks(1, 65_536):
            seen += len(chunk)
            del chunk
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == 1_000_000
    assert peak < 8_000_000


def test_chunk_size_none_yields_one_chunk():
    s = make_stream()
    chunks = list(s.chunks(0, None))
    assert len(chunks) == 1 and len(chunks[0]) == s.requests_per_epoch


@pytest.mark.parametrize("size", [0, -1])
def test_chunk_size_must_be_positive(size):
    # Only None means "whole epoch": zero is rejected like a negative size,
    # matching StreamingWorkload.chunks.
    with pytest.raises(ValueError, match="chunk_requests must be positive"):
        list(make_stream().chunks(0, size))


def test_draw_ranges():
    s = make_stream(max_duration_epochs=5)
    full = s.epoch_requests(0)
    assert full.resolver.min() >= 0 and full.resolver.max() < 40
    assert full.app.min() >= 0 and full.app.max() < 8
    assert full.duration.min() >= 1 and full.duration.max() <= 5
    assert ((0 <= full.u_dns) & (full.u_dns < 1)).all()
    assert ((0 <= full.u_rip) & (full.u_rip < 1)).all()


def test_app_popularity_follows_weights():
    s = make_stream(requests_per_epoch=50_000)
    full = s.epoch_requests(0)
    counts = np.bincount(full.app, minlength=8)
    # weight 8 app should get ~8x the weight-1 app's requests
    assert counts[7] > 5 * counts[0]


def test_violators_stable_and_fraction():
    s = make_stream(n_resolvers=10_000, violator_fraction=0.25)
    v1, v2 = s.violators(), s.violators()
    assert np.array_equal(v1, v2)
    assert 0.2 < v1.mean() < 0.3
    assert not make_stream(violator_fraction=0.0).violators().any()


@pytest.mark.parametrize(
    "kw",
    [
        {"n_resolvers": 0},
        {"n_resolvers": 2**31},  # resolver ids are drawn as int32
        {"requests_per_epoch": 0},
        {"max_duration_epochs": 0},
        {"violator_fraction": 1.5},
    ],
)
def test_validation(kw):
    with pytest.raises(ValueError):
        make_stream(**kw)


def reference_epoch(stream, weights, epoch):
    """Epoch *e*'s five fields drawn whole, field after field, from
    ``default_rng([seed, e])``: the stream's original draw, kept here as
    the oracle that chunked draws must reproduce byte for byte."""
    n = stream.requests_per_epoch
    rng = np.random.default_rng([stream.seed, int(epoch)])
    resolver = rng.integers(0, stream.n_resolvers, n, dtype=np.int64)
    app = np.searchsorted(weighted_cdf(weights), rng.random(n), side="right")
    u_dns = rng.random(n)
    u_rip = rng.random(n)
    duration = rng.integers(1, stream.max_duration_epochs + 1, n, dtype=np.int64)
    return dict(zip(FIELDS, (resolver, app, u_dns, u_rip, duration)))


#: SHA-256 of epochs 0 and 5 of ``make_stream()``: int64 resolver, app and
#: duration, float64 uniforms.
EPOCH_PINS = {
    0: "9d858bc6af1e7acd8db48eb08ba98ce308559c2fd4fb5540cdebad1892e7b618",
    5: "07d0d2c67cba2db5b238da51ca3d88e129eb16ec58d9f159125b2c96af306f8c",
}


@pytest.mark.parametrize("epoch", sorted(EPOCH_PINS))
def test_epoch_bytes_are_pinned_for_every_chunk_size(epoch):
    s = make_stream()
    assert chunk_digest([s.epoch_requests(epoch)]) == EPOCH_PINS[epoch]
    for size in (1, 7, 128, None):
        assert chunk_digest(s.chunks(epoch, size)) == EPOCH_PINS[epoch], size


@settings(max_examples=60, deadline=None)
@given(
    n_resolvers=st.integers(1, 2**31 - 1),
    max_duration=st.integers(1, 7),
    n=st.integers(1, 300),
    epoch=st.integers(0, 2**20),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_chunks_match_the_whole_epoch_draw(
    n_resolvers, max_duration, n, epoch, seed, data
):
    weights = np.arange(1.0, 9.0)
    s = RequestStream(
        n_resolvers, weights, n, seed=seed, max_duration_epochs=max_duration
    )
    step = data.draw(st.integers(1, n + 1), label="chunk_requests")
    ref = reference_epoch(s, weights, epoch)
    lo = 0
    for chunk in s.chunks(epoch, step):
        assert chunk.lo == lo and chunk.hi == min(lo + step, n)
        for attr in FIELDS:
            got, want = getattr(chunk, attr), ref[attr][chunk.lo:chunk.hi]
            assert got.dtype == want.dtype, attr
            assert np.array_equal(got, want), attr
        lo = chunk.hi
    assert lo == n
