"""Determinism and chunking contracts of the request stream."""

import hashlib
import weakref

import numpy as np
import pytest

from repro.workload.requests import RequestStream


def make_stream(**over):
    over.setdefault("n_resolvers", 40)
    over.setdefault("app_weights", np.arange(1.0, 9.0))
    over.setdefault("requests_per_epoch", 1000)
    over.setdefault("seed", 3)
    return RequestStream(**over)


def fingerprint(stream, epoch):
    """SHA-256 over one epoch's exact request bytes."""
    full = stream.epoch_requests(epoch)
    h = hashlib.sha256()
    for arr in (full.resolver, full.app, full.u_dns, full.u_rip, full.duration):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_same_seed_same_epoch_is_identical():
    a, b = make_stream(), make_stream()
    fa, fb = a.epoch_requests(2), b.epoch_requests(2)
    for attr in ("resolver", "app", "u_dns", "u_rip", "duration"):
        assert np.array_equal(getattr(fa, attr), getattr(fb, attr))
    assert fingerprint(a, 2) == fingerprint(b, 2)


def test_epochs_and_seeds_differ():
    s = make_stream()
    assert fingerprint(s, 0) != fingerprint(s, 1)
    assert fingerprint(make_stream(seed=4), 0) != fingerprint(s, 0)


def test_chunks_are_views_of_the_full_epoch():
    s = make_stream()
    full = s.epoch_requests(1)
    lo = 0
    for chunk in s.chunks(1, 128):
        assert chunk.lo == lo and len(chunk) <= 128
        for attr in ("resolver", "app", "u_dns", "u_rip", "duration"):
            got = getattr(chunk, attr)
            assert np.shares_memory(got, getattr(full, attr))
            assert np.array_equal(got, getattr(full, attr)[chunk.lo:chunk.hi])
        lo = chunk.hi
    assert lo == len(full)


def test_one_epoch_is_resident_at_a_time(monkeypatch):
    # Epoch e's arrays are gone before epoch e+1's draw starts, so the
    # stream never holds two epochs; a repeat call does not redraw.
    s = make_stream()
    fields = ("resolver", "app", "u_dns", "u_rip", "duration")
    full = s.epoch_requests(0)
    refs = [weakref.ref(getattr(full, attr)) for attr in fields]
    del full
    alive_at_draw = []
    real = np.random.default_rng

    def spy(*args, **kwargs):
        alive_at_draw.append([r() is not None for r in refs])
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spy)
    first = s.epoch_requests(1)
    assert alive_at_draw == [[False] * len(fields)]
    assert s.epoch_requests(1) is first and len(alive_at_draw) == 1


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
        {"requests_per_epoch": 0},
        {"max_duration_epochs": 0},
        {"violator_fraction": 1.5},
    ],
)
def test_validation(kw):
    with pytest.raises(ValueError):
        make_stream(**kw)
