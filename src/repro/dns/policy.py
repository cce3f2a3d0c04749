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
    :func:`table_pick` over the same uniforms *bit-identical* — the
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


#: Most bins a :func:`pick_table` segment gets.  A power of two, as every
#: bin count is, so ``u * bins`` and ``b / bins`` are exact and bin edges
#: never round.
_MAX_BINS = 4096


def pick_bins(widest: int) -> int:
    """Bins per segment of a :func:`pick_table` over segments at most
    *widest* entries long: a power of two, at least 16 per entry (so few
    bins hold a CDF step), at most ``_MAX_BINS``."""
    return min(_MAX_BINS, 1 << max(4, (16 * widest - 1).bit_length()))


def pick_table(cdf: np.ndarray, indptr: np.ndarray, bins: int) -> np.ndarray:
    """Per-segment counts of CDF entries at every bin edge.

    *cdf* is the concatenation of per-segment CDFs (each built by
    :func:`weighted_cdf`), segment ``s`` spanning
    ``cdf[indptr[s]:indptr[s + 1]]``.  Row ``s``, column ``b`` of the
    ``(n_segments, bins + 1)`` result is ``count(cdf_s <= b / bins)``.
    *bins* is a power of two, so that scaling is exact and
    ``cdf <= b / bins`` is ``ceil(cdf * bins) <= b``: the table is one
    histogram of entries by that bin, summed along each row.  A NaN
    segment (all-zero weights) counts 0 everywhere, as ``searchsorted``
    does.  The dtype is the smallest unsigned one that holds the widest
    segment's count.
    """
    counts = np.diff(indptr)
    n = counts.size
    seg = np.repeat(np.arange(n, dtype=np.int64) * (bins + 1), counts)
    ok = ~np.isnan(cdf)
    key = seg[ok] + np.ceil(cdf[ok] * bins).astype(np.int64)
    hist = np.bincount(key, minlength=n * (bins + 1)).reshape(n, bins + 1)
    np.cumsum(hist, axis=1, out=hist)
    return hist.astype(np.min_scalar_type(int(counts.max(initial=0))))


def table_pick(
    table: np.ndarray,
    cdf: np.ndarray,
    indptr: np.ndarray,
    seg: Union[int, np.ndarray],
    u: np.ndarray,
) -> np.ndarray:
    """Offset of each uniform ``u[i]`` inside segment ``seg[i]``'s CDF:
    ``searchsorted(cdf_s, u, side="right")`` bit for bit, in the dtype of
    *table*, a :func:`pick_table` over the same *cdf* and *indptr*.

    A ``u`` in bin ``b`` counts at least the table's entry at edge ``b``
    and at most the one at edge ``b + 1``.  Where the two agree that is
    the answer; the rest bisect only the entries between them, one pass
    per bit of the widest gap.  *seg* may be one int for every request.
    """
    bins = table.shape[1] - 1
    flat = table.reshape(-1)
    key = np.empty(u.shape, dtype=np.int64)
    np.multiply(u, bins, out=key, casting="unsafe")  # floor: u >= 0
    key += seg * (bins + 1)
    count = flat[key]
    hi = flat[1:][key]
    del key  # 8 bytes a request, of no use to the bisect
    slow = np.flatnonzero(count != hi)
    if slow.size:
        base = indptr[seg if np.ndim(seg) == 0 else seg[slow]]
        lo = np.add(count[slow], base, dtype=np.int64)
        hi = np.add(hi[slow], base, dtype=np.int64)
        u_slow = u[slow]
        mid = np.empty_like(lo)
        # Positions are absolute in *cdf*.  A segment ends at 1.0 > u, so
        # a converged request's ``mid`` is its answer's own entry, above
        # ``u``: it reads inside the segment and stays put.
        for _ in range(int((hi - lo).max()).bit_length()):
            np.add(lo, hi, out=mid)
            mid >>= 1
            right = cdf[mid] <= u_slow
            mid += right  # lo = mid + 1 where right, else hi = mid
            np.copyto(lo, mid, where=right)
            np.copyto(hi, mid, where=~right)
        count[slow] = lo - base
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
