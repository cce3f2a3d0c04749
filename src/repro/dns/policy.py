"""Exposure policies: how the global manager sets DNS VIP weights.

Each policy maps an application's VIPs — each pinned (via its advertisement)
to an access link — to exposure weights, given the current link state.
These are the "appropriate VIPs" policies of Section IV-A.
"""

from __future__ import annotations

import abc
from typing import Mapping, Union

import numpy as np

from repro.network.links import AccessLink


def weighted_cdf(weights: np.ndarray) -> np.ndarray:
    """Normalized inverse-transform CDF over a weight vector.

    This is byte-for-byte the arithmetic ``numpy.random.Generator.choice``
    performs internally for a given ``p``: normalize to probabilities,
    cumulative-sum, then renormalize the running sum so the last entry is
    exactly 1.0.  Both the object-model authority and the columnar DNS
    and RIP tables build their answer CDFs through this one function,
    which is what makes a scalar ``rng.choice`` draw and a vectorized
    :func:`padded_pick` over the same uniforms *bit-identical* — the
    equivalence the differential data-plane harness asserts.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d vector")
    probs = w / w.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def weighted_pick(
    weights: np.ndarray, u: Union[float, np.ndarray]
) -> Union[int, np.ndarray]:
    """Index drawn proportionally to *weights* from uniform draw(s) *u*.

    Scalar ``u`` returns an int; an array of uniforms returns the
    corresponding index array in one ``searchsorted`` — the vectorized
    path and the scalar path share the identical CDF, so feeding the same
    uniforms through either yields the same answer sequence.
    """
    cdf = weighted_cdf(weights)
    idx = np.searchsorted(cdf, u, side="right")
    if np.ndim(u) == 0:
        return int(idx)
    return idx


#: Bins of :func:`bucketed_pick`'s lookup table.  A power of two, so
#: ``u * _BINS`` and ``b / _BINS`` are exact and bin edges never round.
_BINS = 4096


def bucketed_pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, side="right")``, bit for bit, mostly by table.

    Bin ``b`` covers ``[b/K, (b+1)/K)``.  Every ``u`` in it has at least
    ``lo[b] = count(cdf <= b/K)`` and fewer than ``hi[b] = count(cdf <
    (b+1)/K)`` entries at or below it, so where ``lo[b] == hi[b]`` the
    table is the answer; only the keys of bins holding a CDF step (about
    3% for a 128-entry CDF) fall back to ``searchsorted``.  *u* must be a
    float64 array in ``[0, 1)``, the generator's uniforms; it is consumed:
    it is scaled in place and its buffer holds the int64 result, so the
    draw allocates no array as large as *u* besides 32-bit bin ids.
    """
    cdf = np.asarray(cdf, dtype=float)
    u = np.ascontiguousarray(u, dtype=np.float64)
    edges = np.arange(_BINS + 1) / _BINS
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    ambiguous = lo != np.searchsorted(cdf, edges[1:], side="left")
    np.multiply(u, _BINS, out=u)
    b = u.astype(np.int32)
    slow = np.flatnonzero(ambiguous[b])
    u_slow = u[slow] / _BINS
    out = u.view(np.int64)
    # "clip" writes straight into *out* (the default mode buffers it);
    # every b is already in range, or ambiguous[b] would have raised.
    np.take(lo, b, out=out, mode="clip")
    del b
    out[slow] = np.searchsorted(cdf, u_slow, side="right")
    return out


def padded_cdf(cdf: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Segment CDFs as the columns of a ``+inf``-padded matrix.

    *cdf* is the concatenation of per-segment CDFs (each built by
    :func:`weighted_cdf`), segment ``s`` spanning
    ``cdf[indptr[s]:indptr[s + 1]]``.  Column ``s`` of the
    ``(widest, n_segments)`` result holds that CDF, then ``+inf`` down to
    the widest segment's length.  Each row is contiguous, which keeps
    every pass of :func:`padded_pick` a flat gather.
    """
    counts = np.diff(indptr)
    pad = np.full((int(counts.max(initial=0)), counts.size), np.inf)
    seg = np.repeat(np.arange(counts.size), counts)
    pad[np.arange(cdf.size) - indptr[seg], seg] = cdf
    return pad


def padded_pick(pad: np.ndarray, seg: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Offset of each uniform ``u[i]`` inside segment ``seg[i]``'s CDF.

    Counts the CDF entries ``<= u`` in the segment's column of a
    :func:`padded_cdf` matrix — exactly what
    ``searchsorted(cdf, u, side="right")`` returns for a non-decreasing
    CDF.  Padding never counts because ``u < 1``; a NaN column (all-zero
    weights) counts 0, as ``searchsorted`` does.  One pass per CDF row,
    so the work is ``widest × len(u)`` whatever the number of segments.
    """
    count = np.zeros(seg.shape[0], dtype=np.int64)
    for row in pad:
        count += row[seg] <= u
    return count


def pick_bins(widest: int) -> int:
    """Bins per segment of a :func:`pick_table` over segments at most
    *widest* entries long: a power of two, at least 16 per entry (so few
    bins hold a CDF step), at most ``_BINS``."""
    return min(_BINS, 1 << max(4, (16 * widest - 1).bit_length()))


def pick_table(pad: np.ndarray, bins: int) -> np.ndarray:
    """Per-segment bin table of :func:`padded_pick` counts over *pad*.

    Row ``s``, bin ``b`` covers the uniforms ``[b/K, (b+1)/K)`` of column
    ``s`` (``K = bins``, a power of two).  Each of them counts at least
    ``lo = count(cdf <= b/K)`` and at most ``hi = count(cdf < (b+1)/K)``
    entries, so the bin stores ``lo`` where the two agree and -1 where a
    CDF step falls inside it.  Scaling by a power of two is exact, so
    ``cdf <= b/K`` is ``ceil(cdf * K) <= b`` and ``cdf < (b+1)/K`` is
    ``floor(cdf * K) <= b``: both counts are running sums of one
    histogram of entries by bin, and padding or a NaN column counts in
    neither, as in :func:`padded_pick`.  The table has the smallest
    signed dtype that holds -1 and every count up to the column height.
    """
    n = pad.shape[1]
    scaled = pad * bins
    ok = np.isfinite(scaled)
    seg = np.broadcast_to(np.arange(n) * bins, pad.shape)[ok]
    scaled = scaled[ok]

    def running(first_bin: np.ndarray) -> np.ndarray:
        # An entry whose first bin is past the last counts in no bin.
        first_bin = first_bin.astype(np.int64)
        keep = first_bin < bins
        hist = np.bincount((seg + first_bin)[keep], minlength=n * bins)
        hist = hist.reshape(n, bins)
        return np.cumsum(hist, axis=1, out=hist)

    lo = running(np.ceil(scaled))
    lo[lo != running(np.floor(scaled))] = -1
    return lo.astype(np.min_scalar_type(-1 - pad.shape[0]))


def table_pick(
    table: np.ndarray, pad: np.ndarray, seg: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """:func:`padded_pick`, bit for bit, read from a :func:`pick_table`
    (in the table's dtype).

    Each request costs one bin lookup, whatever the segment widths; only
    the requests whose bin holds a CDF step (-1) are counted over *pad*.
    """
    bins = table.shape[1]
    key = seg * bins
    key += (u * bins).astype(np.int64)
    count = table.reshape(-1)[key]
    slow = np.flatnonzero(count < 0)
    if slow.size:
        count[slow] = padded_pick(pad, seg[slow], u[slow])
    return count


class ExposurePolicy(abc.ABC):
    """Strategy interface for computing VIP exposure weights."""

    @abc.abstractmethod
    def weights(
        self, vip_links: Mapping[str, AccessLink]
    ) -> dict[str, float]:
        """Return exposure weight per VIP given each VIP's access link."""


class InverseUtilizationPolicy(ExposurePolicy):
    """Weight VIPs by the *absolute* spare capacity of their access link
    (spare fraction times capacity, in Gbps).

    Weighting by absolute headroom rather than spare fraction matters for
    stability: a small link that happens to be idle must not attract more
    traffic than it can absorb.  An overloaded link's VIPs fade toward zero
    exposure; a link at or above ``cutoff`` utilization is not exposed at
    all (unless every link is, in which case weights fall back to uniform
    to keep the app resolvable).
    """

    def __init__(self, cutoff: float = 0.95):
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.cutoff = cutoff

    def weights(self, vip_links: Mapping[str, AccessLink]) -> dict[str, float]:
        w = {}
        for vip, link in vip_links.items():
            spare = max(0.0, self.cutoff - link.utilization)
            w[vip] = spare * link.capacity_gbps
        if all(v == 0 for v in w.values()):
            return {vip: 1.0 for vip in vip_links}
        return w


class CheapestLinkPolicy(ExposurePolicy):
    """Prefer cheap links (the paper's 'different link usage costs'
    business requirement), falling back to spare capacity as tiebreak.

    Weight = spare_fraction / cost; links above the utilization cutoff get
    zero.
    """

    def __init__(self, cutoff: float = 0.95):
        self.cutoff = cutoff

    def weights(self, vip_links: Mapping[str, AccessLink]) -> dict[str, float]:
        w = {}
        for vip, link in vip_links.items():
            spare = max(0.0, self.cutoff - link.utilization)
            w[vip] = spare * link.capacity_gbps / max(link.cost_per_gbps, 1e-9)
        if all(v == 0 for v in w.values()):
            return {vip: 1.0 for vip in vip_links}
        return w
