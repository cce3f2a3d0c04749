"""Steering kernels against the per-group forms they replace.

The bin-table pick must equal per-segment ``searchsorted`` and the
padded CDF matrix it replaced, and its table the count of entries at
each bin edge; the DNS
table's flat-cell resolve must equal the per-app loop it replaced, cache
state and counters included; the session admit's whole-batch fast path
must equal the running-position path at the capacity edge.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dataplane.conntable import ColumnarConnTable, _group_positions
from repro.dataplane import dnstable
from repro.dataplane.dnstable import VectorizedDnsTable
from repro.dns.policy import pick_bins, pick_table, table_pick, weighted_cdf
from repro.workload.requests import RequestStream

# -- bin-table pick ------------------------------------------------------

weight = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
segment = st.lists(weight, min_size=1, max_size=20)
#: Wider than 16, so a pick table over it needs more than 256 bins.
wide_segment = st.lists(weight, min_size=17, max_size=40)
segments = st.lists(st.one_of(segment, wide_segment), min_size=1, max_size=8).map(
    # trailing zero weights, one all-zero segment and one width-1 segment
    # in every draw
    lambda segs: segs + [segs[0] + [0.0, 0.0], [0.0] * len(segs[-1]), [2.5]]
)


def concat_cdfs(segments):
    """Flat CDF + CSR bounds, one :func:`weighted_cdf` per segment (an
    all-zero segment gives a NaN CDF, as the RIP view can hold)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        cdfs = [weighted_cdf(np.asarray(w, dtype=float)) for w in segments]
    indptr = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([len(w) for w in segments], out=indptr[1:])
    return cdfs, np.concatenate(cdfs), indptr


def below(x: float) -> float:
    """The float just below *x* (for ``x > 0``)."""
    return float(np.nextafter(x, 0.0))


def uniforms(flat):
    """Uniforms in ``[0, 1)``: anywhere, on a CDF value or one float
    below it, and on the edge of a power-of-two bin (16 to 4096 bins) or
    one float below it."""
    on = [float(c) for c in flat if 0.0 < c < 1.0]
    edge = st.tuples(st.integers(4, 12), st.integers(0, 4095)).map(
        lambda kb: (kb[1] % (1 << kb[0])) / (1 << kb[0])
    )
    pool = [
        st.floats(0.0, 1.0, exclude_max=True),
        edge,
        edge.filter(lambda x: x > 0.0).map(below),
    ]
    if on:
        pool += [st.sampled_from(on), st.sampled_from(on).map(below)]
    return st.one_of(pool)


def draw_requests(data, segments, flat):
    n = data.draw(st.integers(1, 60))
    seg = np.asarray(
        data.draw(st.lists(st.integers(0, len(segments) - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    u = np.asarray(data.draw(st.lists(uniforms(flat), min_size=n, max_size=n)))
    return seg, u


def searchsorted_counts(cdfs, seg, u):
    return np.asarray(
        [np.searchsorted(cdfs[s], x, side="right") for s, x in zip(seg, u)],
        dtype=np.int64,
    )


def padded_counts(flat, indptr, seg, u):
    """The padded pick the flat-CDF kernel replaced: segment CDFs as the
    columns of a ``+inf``-padded ``widest × n_segments`` matrix, each
    request counting the entries ``<= u`` in its column."""
    widths = np.diff(indptr)
    pad = np.full((widths.max(), widths.size), np.inf)
    owner = np.repeat(np.arange(widths.size), widths)
    pad[np.arange(flat.size) - indptr[owner], owner] = flat
    return (pad[:, seg] <= u).sum(axis=0)


def edge_counts(cdfs, bins):
    """The definition of a pick table: each segment's count of entries
    ``<= b / bins`` at every edge ``b = 0..bins``."""
    edges = np.arange(bins + 1) / bins
    return np.asarray([np.searchsorted(c, edges, side="right") for c in cdfs])


@settings(max_examples=200, deadline=None)
@given(segments=segments, data=st.data())
def test_padded_pick_matches_per_segment_searchsorted(segments, data):
    # Ragged segments, picked from the flat CDF with no padding, give the
    # counts the padded matrix gave, and both equal searchsorted.
    cdfs, flat, indptr = concat_cdfs(segments)
    seg, u = draw_requests(data, segments, flat)
    want = searchsorted_counts(cdfs, seg, u)
    assert np.array_equal(padded_counts(flat, indptr, seg, u), want)
    table = pick_table(flat, indptr, pick_bins(max(len(w) for w in segments)))
    assert np.array_equal(table_pick(table, flat, indptr, seg, u), want)


@settings(max_examples=300, deadline=None)
@given(segments=segments, data=st.data())
def test_table_pick_matches_per_segment_searchsorted(segments, data):
    cdfs, flat, indptr = concat_cdfs(segments)
    bins = pick_bins(max(len(w) for w in segments))
    table = pick_table(flat, indptr, bins)
    assert table.shape == (len(segments), bins + 1)
    assert table.dtype == np.uint8
    assert np.array_equal(table, edge_counts(cdfs, bins))
    seg, u = draw_requests(data, segments, flat)
    got = table_pick(table, flat, indptr, seg, u)
    assert np.array_equal(got, searchsorted_counts(cdfs, seg, u))


@settings(max_examples=200, deadline=None)
@given(
    weights=st.one_of(
        st.lists(weight, min_size=1, max_size=200),
        st.just([0.0, 0.0, 0.0]),  # all-zero: a NaN CDF
    ),
    data=st.data(),
)
def test_table_pick_with_one_int_segment_matches_searchsorted(weights, data):
    # The app draw's form: one segment, named by one int for every request.
    cdfs, flat, indptr = concat_cdfs([weights])
    table = pick_table(flat, indptr, pick_bins(len(weights)))
    u = np.asarray(data.draw(st.lists(uniforms(flat), min_size=1, max_size=80)))
    want = np.searchsorted(cdfs[0], u, side="right")
    assert np.array_equal(table_pick(table, flat, indptr, 0, u), want)


def test_pick_bins_bounds():
    assert [pick_bins(w) for w in (1, 2, 10, 16, 17, 256, 10**4)] == [
        16, 32, 256, 256, 512, 4096, 4096
    ]


@pytest.mark.parametrize("width", [127, 128, 255, 256, 300])
def test_table_pick_counts_fit_the_table_dtype(width):
    # Counts reach the width: a uint8 table holds them up to 255 entries,
    # wider segments get uint16.
    cdfs, flat, indptr = concat_cdfs([[1.0] * width, [0.0] * (width - 1) + [1.0]])
    table = pick_table(flat, indptr, pick_bins(width))
    assert table.dtype == (np.uint8 if width < 256 else np.uint16)
    rng = np.random.default_rng(width)
    u = np.concatenate([rng.random(2000), np.nextafter(1.0, 0.0) - rng.random(50) * 1e-3])
    seg = rng.integers(0, 2, u.size)
    assert np.array_equal(table_pick(table, flat, indptr, seg, u), searchsorted_counts(cdfs, seg, u))


def test_table_pick_all_zero_segment_counts_zero():
    _, flat, indptr = concat_cdfs([[0.0, 0.0, 0.0], [1.0]])
    table = pick_table(flat, indptr, pick_bins(3))
    assert not table[0].any()
    got = table_pick(table, flat, indptr, np.array([0, 0, 1]), np.array([0.0, 0.7, 0.5]))
    assert got.tolist() == [0, 0, 0]


def test_table_pick_zipf_segment_at_the_bin_cap():
    # 30,000 entries of a Zipf(1.5) segment in 4,096 bins: the head's
    # bins hold one step or none, the tail's hold many, so a pick
    # bisects gaps of thousands.
    width = 30_000
    bins = pick_bins(width)
    assert bins == 4096
    cdf = weighted_cdf(np.arange(1, width + 1) ** -1.5)
    indptr = np.array([0, width])
    table = pick_table(cdf, indptr, bins)
    assert table.dtype == np.uint16
    assert np.array_equal(table, edge_counts([cdf], bins))
    assert np.diff(table[0]).max() > 1000
    rng = np.random.default_rng(5)
    u = np.concatenate(
        [
            rng.random(100_000),
            np.arange(bins) / bins,  # every bin edge
            np.nextafter(np.arange(1, bins + 1) / bins, 0.0),  # and below it
            cdf[:-1],
            np.nextafter(cdf[:-1], 0.0),
        ]
    )
    want = np.searchsorted(cdf, u, side="right")
    assert np.array_equal(table_pick(table, cdf, indptr, 0, u), want)
    one = weighted_cdf([3.0])
    got = table_pick(pick_table(one, [0, 1], 16), one, [0, 1], 0, np.array([0.0, 0.5]))
    assert got.tolist() == [0, 0]


# -- DNS resolve ---------------------------------------------------------


class DenseCache:
    """A resolver population's TTL cache as two dense ``(n_resolvers,
    n_apps)`` arrays: each cell's expiry time and its cached VIP slot."""

    def __init__(self, n_resolvers, n_apps):
        self.expires = np.full((n_resolvers, n_apps), -np.inf)
        self.cached = np.full((n_resolvers, n_apps), -1, dtype=np.int64)
        self.cache_hits = 0
        self.cache_misses = 0


def cell_answers(table):
    """Each cell's cached VIP slot, ``(n_resolvers, n_apps)``."""
    return table._cells["vip"].reshape(table.n_resolvers, table.n_apps)


def cell_expiry(table):
    """Each cell's expiry time, ``(n_resolvers, n_apps)``: the time of
    its write generation plus its resolver's TTL."""
    gen = table._cells["gen"].reshape(table.n_resolvers, table.n_apps)
    return table._gen_t[gen] + table.ttl_eff[:, None]


def reference_resolve(table, cache, resolver, app, u_dns, now):
    """The per-app sort-and-loop resolve the flat-cell resolve replaced:
    answers from *table*'s weights, cache state in the :class:`DenseCache`
    *cache*."""
    cdf = np.concatenate(
        [
            weighted_cdf(table.weights[table.vip_indptr[a]:table.vip_indptr[a + 1]])
            for a in range(table.n_apps)
        ]
    )
    out = np.empty(resolver.shape[0], dtype=np.int64)
    fresh = now < cache.expires[resolver, app]
    hits = np.flatnonzero(fresh)
    out[hits] = cache.cached[resolver[hits], app[hits]]
    miss = np.flatnonzero(~fresh)
    if miss.size == 0:
        cache.cache_hits += hits.size
        return out
    if table.ttl_s > 0:
        key = resolver[miss] * np.int64(table.n_apps) + app[miss]
        _, first = np.unique(key, return_index=True)
        draw = miss[np.sort(first)]
    else:
        draw = miss
    apps_d = app[draw]
    order = np.argsort(apps_d, kind="stable")
    sorted_apps = apps_d[order]
    chosen = np.empty(draw.size, dtype=np.int64)
    bounds = np.flatnonzero(np.diff(sorted_apps)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [sorted_apps.size]))
    for s, e in zip(starts, ends):
        a = int(sorted_apps[s])
        lo, hi = table.vip_indptr[a], table.vip_indptr[a + 1]
        sel = order[s:e]
        chosen[sel] = lo + np.searchsorted(
            cdf[lo:hi], u_dns[draw[sel]], side="right"
        )
    out[draw] = chosen
    cache.cached[resolver[draw], app[draw]] = chosen
    cache.expires[resolver[draw], app[draw]] = now + table.ttl_eff[resolver[draw]]
    if table.ttl_s > 0 and draw.size < miss.size:
        out[miss] = cache.cached[resolver[miss], app[miss]]
    cache.cache_misses += draw.size
    cache.cache_hits += hits.size + (miss.size - draw.size)
    return out


def make_zones(vips_per_app, weights):
    apps = [f"app-{i}" for i in range(len(vips_per_app))]
    zones, k = {}, 0
    for a, nv in zip(apps, vips_per_app):
        zones[a] = {f"{a}-vip-{j}": weights[k + j] for j in range(nv)}
        k += nv
    return apps, zones


@settings(max_examples=60, deadline=None)
@given(
    vips_per_app=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    n_resolvers=st.integers(1, 5),
    ttl_s=st.sampled_from([0.0, 0.5, 2.0]),
    seed=st.integers(0, 2**16),
    n_batches=st.integers(1, 5),
)
def test_resolve_batch_matches_per_app_loop(
    vips_per_app, n_resolvers, ttl_s, seed, n_batches
):
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 4, sum(vips_per_app)).astype(float)
    # zero weights are allowed, an all-zero app is not
    for a, nv in enumerate(vips_per_app):
        lo = sum(vips_per_app[:a])
        if weights[lo:lo + nv].sum() == 0:
            weights[lo] = 1.0
    apps, zones = make_zones(vips_per_app, weights)
    violators = rng.random(n_resolvers) < 0.4
    kw = dict(ttl_s=ttl_s, violators=violators, violation_factor=3.0)
    got_t = VectorizedDnsTable(apps, zones, n_resolvers, **kw)
    ref_t = VectorizedDnsTable(apps, zones, n_resolvers, **kw)
    ref_c = DenseCache(n_resolvers, len(apps))
    now = 0.0
    for _ in range(n_batches):
        n = int(rng.integers(1, 40))
        # few cells, so (resolver, app) pairs repeat inside a batch
        resolver = rng.integers(0, n_resolvers, n)
        app = rng.integers(0, len(apps), n)
        u = rng.random(n)
        got = got_t.resolve_batch(resolver, app, u, now)
        want = reference_resolve(ref_t, ref_c, resolver, app, u, now)
        assert np.array_equal(got, want)
        assert np.array_equal(cell_answers(got_t), ref_c.cached)
        assert np.array_equal(cell_expiry(got_t), ref_c.expires)
        assert (got_t.cache_hits, got_t.cache_misses) == (
            ref_c.cache_hits, ref_c.cache_misses
        )
        if rng.random() < 0.5:
            a = apps[int(rng.integers(0, len(apps)))]
            new = {v: float(rng.integers(1, 5)) for v in zones[a]}
            got_t.set_weights(a, new)
            ref_t.set_weights(a, new)
        now += float(rng.choice([0.0, 0.25, 1.0, 3.0]))


@settings(max_examples=60, deadline=None)
@given(
    vips_per_app=st.lists(st.integers(1, 24), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_resolve_after_set_weights_matches_searchsorted(vips_per_app, seed):
    """With a zero TTL every request draws, so each answer is the
    ``searchsorted`` count over the app's current weights, K1 updates
    included."""
    rng = np.random.default_rng(seed)

    def app_weights(nv):
        w = rng.integers(0, 4, nv).astype(float)
        w[int(rng.integers(0, nv))] += 1.0  # never all zero
        return w

    weights = np.concatenate([app_weights(nv) for nv in vips_per_app])
    apps, zones = make_zones(vips_per_app, weights)
    table = VectorizedDnsTable(apps, zones, 3, ttl_s=0.0)
    for _ in range(4):
        a = int(rng.integers(0, len(apps)))
        vips = sorted(table.zone(apps[a]))
        table.set_weights(apps[a], dict(zip(vips, app_weights(len(vips)))))
        n = 200
        app = rng.integers(0, len(apps), n)
        u = rng.random(n)
        u[:50] = rng.integers(0, 4096, 50) / 4096.0  # bin edges
        u[50:100] = np.nextafter(u[:50], 0.0)
        cdfs, _, _ = concat_cdfs(
            [
                table.weights[table.vip_indptr[i]:table.vip_indptr[i + 1]]
                for i in range(len(apps))
            ]
        )
        want = table.vip_indptr[app] + searchsorted_counts(cdfs, app, u)
        got = table.resolve_batch(rng.integers(0, 3, n), app, u, now=0.0)
        assert np.array_equal(got, want)


def test_cell_is_fresh_strictly_before_its_expiry():
    """A cell written at ``T`` hits until just below ``T + ttl_eff`` and
    misses at exactly that sum, for a TTL violator as for a plain
    resolver."""
    apps, zones = make_zones([2], [1.0, 3.0])
    table = VectorizedDnsTable(
        apps, zones, 2, ttl_s=0.2, violators=np.array([False, True]),
        violation_factor=3.0,
    )
    write_t = 0.1
    for r in (0, 1):
        expiry = write_t + table.ttl_eff[r]
        resolver = np.array([r])
        app = np.zeros(1, dtype=np.int64)
        first = table.resolve_batch(resolver, app, np.array([0.9]), write_t)
        assert cell_expiry(table)[r, 0] == expiry
        misses = table.cache_misses
        hit = table.resolve_batch(
            resolver, app, np.array([0.1]), np.nextafter(expiry, -np.inf)
        )
        assert table.cache_misses == misses and hit[0] == first[0]
        table.resolve_batch(resolver, app, np.array([0.1]), expiry)
        assert table.cache_misses == misses + 1
        assert cell_answers(table)[r, 0] == table.vip_indptr[0]


def test_many_write_times_and_a_clock_that_moves_back():
    """More distinct write times than the generation array first holds,
    with ``now`` stepping backwards too, still match the dense reference."""
    rng = np.random.default_rng(3)
    apps, zones = make_zones([1, 2, 3], [1.0, 1.0, 2.0, 1.0, 1.0, 1.0])
    kw = dict(
        ttl_s=2.0, violators=np.array([False, True, False]), violation_factor=3.0
    )
    table = VectorizedDnsTable(apps, zones, 3, **kw)
    ref_t = VectorizedDnsTable(apps, zones, 3, **kw)
    ref_c = DenseCache(3, len(apps))
    steps = rng.choice(
        [-3.0, 1.0, 2.5, 7.0], p=[0.1, 0.3, 0.3, 0.3],
        size=3 * dnstable._GEN_CAPACITY,
    )
    for now in np.cumsum(steps):
        resolver = rng.integers(0, 3, 12)
        app = rng.integers(0, len(apps), 12)
        u = rng.random(12)
        got = table.resolve_batch(resolver, app, u, now)
        want = reference_resolve(ref_t, ref_c, resolver, app, u, now)
        assert np.array_equal(got, want)
        assert np.array_equal(cell_answers(table), ref_c.cached)
        assert np.array_equal(cell_expiry(table), ref_c.expires)
    assert table._n_gens > dnstable._GEN_CAPACITY
    assert (table.cache_hits, table.cache_misses) == (
        ref_c.cache_hits, ref_c.cache_misses
    )


def test_write_generations_past_int32_raise(monkeypatch):
    monkeypatch.setattr(dnstable, "_MAX_GEN", 2)
    apps, zones = make_zones([1], [1.0])
    table = VectorizedDnsTable(apps, zones, 1, ttl_s=0.0)
    one = np.zeros(1, dtype=np.int64)
    for now in (1.0, 2.0):
        table.resolve_batch(one, one, np.array([0.5]), now)
    with pytest.raises(OverflowError):
        table.resolve_batch(one, one, np.array([0.5]), 3.0)


def test_cache_cell_is_eight_bytes():
    apps, zones = make_zones([2, 1, 3], [1.0] * 6)
    table = VectorizedDnsTable(apps, zones, 7, ttl_s=30.0)
    assert table._cells.nbytes == 8 * 7 * 3
    assert (cell_answers(table) == -1).all()
    assert (cell_expiry(table) == -np.inf).all()


def resolve_bytes_per_request(table, chunk, now):
    """Peak bytes that one resolve allocates, per request (tracemalloc)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = table.resolve_batch(chunk.resolver, chunk.app, chunk.u_dns, now)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return (peak - base) / len(chunk)


def test_resolve_temporaries_per_request():
    """A 65,536-request chunk on a ``steer_heavy``-sized cache (10,000
    resolvers, 128 apps): the first, nearly all-miss resolve and a warm one
    (~73% hits).  The (expires f8, vip i8) cells this layout replaced
    allocated 81.3 and 35.7 B a request here; these cells take 69.2 and
    26.8 B (numpy 2.4)."""
    n_resolvers, n_apps = 10_000, 128
    apps, zones = make_zones([2] * n_apps, [1.0, 2.0] * n_apps)
    stream = RequestStream(
        n_resolvers, 1.0 / np.arange(1, n_apps + 1), 1_000_000, seed=0
    )
    table = VectorizedDnsTable(
        apps, zones, n_resolvers, ttl_s=120.0, violators=stream.violators()
    )
    chunks = stream.chunks(0, 65_536)
    assert resolve_bytes_per_request(table, next(chunks), 0.0) <= 81.0
    for chunk in chunks:
        table.resolve_batch(chunk.resolver, chunk.app, chunk.u_dns, 0.0)
    warm = next(stream.chunks(1, 65_536))
    assert resolve_bytes_per_request(table, warm, 60.0) <= 35.0


# -- session admit -------------------------------------------------------


def reference_open(table, rip, close_epoch):
    """The admit that ranks every request by its per-switch position; the
    accepted requests then open as one batch that fits."""
    switch = table.rip_switch[rip]
    pos = _group_positions(switch)
    accepted = table.switch_count[switch] + pos < table.switch_cap
    table.rejected += int((~accepted).sum())
    acc = np.flatnonzero(accepted)
    assert table.try_open_batch(rip[acc], close_epoch[acc]).all()
    return accepted


def table_state(t):
    return (
        t.switch_count.tolist(), [t.count_for_vip(v) for v in range(6)],
        t.rejected, t.opened, t.recount().tolist(), t.live_pairs(),
    )


@settings(max_examples=80, deadline=None)
@given(
    switches=st.lists(st.integers(0, 2), min_size=1, max_size=40),
    live=st.integers(0, 6),
    edge=st.sampled_from([-1, 0, 1]),
    seed=st.integers(0, 2**16),
)
def test_try_open_batch_fast_path_matches_positions(switches, live, edge, seed):
    """Switch 0's live sessions plus its batch requests land at cap-1,
    cap or cap+1: just inside the whole-batch fast path, on its edge, or
    one over it."""
    sw = np.asarray(switches, dtype=np.int64)
    sw[0] = 0
    cap = live + int((sw == 0).sum()) - edge
    assume(cap >= 1)
    tables = [ColumnarConnTable(3, cap) for _ in range(2)]
    rng = np.random.default_rng(seed)
    # A fixed binding, as steering's: RIP r serves VIP r % 6, homed on
    # switch vip % 3 (so on switch r % 3).
    rips = np.arange(51)
    for t in tables:
        t.bind(rips, rips % 6, rips % 6 % 3)
        if live:
            t.try_open_batch(
                np.zeros(live, dtype=np.int64), np.full(live, 9, dtype=np.int64),
            )
    rip = sw + 3 * rng.integers(0, 17, sw.size)
    close = rng.integers(1, 5, sw.size)
    got = tables[0].try_open_batch(rip, close)
    want = reference_open(tables[1], rip, close)
    assert np.array_equal(got, want)
    assert table_state(tables[0]) == table_state(tables[1])
    assert got[sw == 0].all() == (edge <= 0)
    # Each session sits under its own close epoch.
    for epoch in range(1, 10):
        assert tables[0].close_due(epoch) == tables[1].close_due(epoch)
        assert table_state(tables[0]) == table_state(tables[1])
