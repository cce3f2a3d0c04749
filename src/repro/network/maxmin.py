"""Max–min fair bandwidth allocation (progressive filling / water-filling).

Vectorized with NumPy + a sparse flow-link incidence matrix, per the
HPC-guide rule of vectorizing the hot loop: each iteration of progressive
filling saturates at least one link, so the loop runs at most ``L`` times
with O(nnz) vector work per iteration, instead of the naive O(F·L) per step.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import sparse


def _incidence(routes: Sequence[Sequence[int]], n_links: int) -> sparse.csr_matrix:
    """Build the L x F 0/1 incidence matrix from per-flow link index lists."""
    rows: list[int] = []
    cols: list[int] = []
    for f, links in enumerate(routes):
        for l in links:
            if not 0 <= l < n_links:
                raise IndexError(f"flow {f} uses unknown link {l}")
            rows.append(l)
            cols.append(f)
    data = np.ones(len(rows), dtype=float)
    return sparse.csr_matrix(
        (data, (rows, cols)), shape=(n_links, len(routes))
    )


def maxmin_fair(
    routes: Sequence[Sequence[int]],
    capacities: Sequence[float],
    demands: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Max–min fair rates for flows over capacitated links.

    Parameters
    ----------
    routes:
        Per-flow list of link indices the flow traverses.  A flow with an
        empty route is only limited by its demand.
    capacities:
        Per-link capacity (> 0).
    demands:
        Optional per-flow demand ceiling (``inf`` = elastic).

    Returns
    -------
    Per-flow allocated rates.  Invariants (property-tested):

    * no link carries more than its capacity;
    * no flow exceeds its demand;
    * every flow is *bottlenecked*: it is either at its demand, or it
      crosses a saturated link on which no other flow gets a higher rate.
    """
    return weighted_maxmin_fair(routes, capacities, demands=demands, weights=None)


def weighted_maxmin_fair(
    routes: Sequence[Sequence[int]],
    capacities: Sequence[float],
    demands: Optional[Sequence[float]] = None,
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Weighted max–min fairness: link shares are proportional to weights.

    With all weights equal this reduces to plain max–min fairness.  Used by
    the LB switches: RIP weight adjustment (knob K6) reshapes these weights.

    Everything per-flow is derived from the incidence matrix — the
    ``routes`` lists are only consulted to *build* it — so the whole loop
    is sparse matvecs with no per-link/per-flow Python iteration.
    :func:`progressive_filling_dense` is the readable per-link loop
    reference this is verified bit-identical against.
    """
    n_flows = len(routes)
    caps = np.asarray(capacities, dtype=float)
    n_links = caps.shape[0]
    if (caps <= 0).any():
        raise ValueError("link capacities must be positive")

    if demands is None:
        dem = np.full(n_flows, np.inf)
    else:
        dem = np.asarray(demands, dtype=float)
        if dem.shape != (n_flows,):
            raise ValueError("demands must match number of flows")
        if (dem < 0).any():
            raise ValueError("demands must be non-negative")

    if weights is None:
        w = np.ones(n_flows)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n_flows,):
            raise ValueError("weights must match number of flows")
        if (w <= 0).any():
            raise ValueError("weights must be positive")

    if n_flows == 0:
        return np.zeros(0)

    A = _incidence(routes, n_links)  # L x F
    AT = A.T.tocsr()  # F x L: freezes flows on saturated links

    rates = np.zeros(n_flows)
    active = np.ones(n_flows, dtype=bool)  # not yet frozen
    remaining = caps.copy()

    # Flows with no links (empty incidence column) are limited only by
    # their demand.
    routeless = A.getnnz(axis=0) == 0
    if routeless.any():
        rates[routeless] = dem[routeless]
        if not np.isfinite(dem[routeless]).all():
            raise ValueError("routeless flow with infinite demand")
        active[routeless] = False

    for _ in range(n_links + n_flows + 1):
        if not active.any():
            break
        act = active.astype(float)
        # Total active weight per link.
        link_weight = A @ (w * act)
        used = link_weight > 1e-15
        if not used.any():
            # Remaining active flows cross no capacity-bearing link:
            # they get their demand.
            rates[active] = dem[active]
            break
        # Fair *per-weight* increment each used link can still give.
        increment = np.full(n_links, np.inf)
        increment[used] = remaining[used] / link_weight[used]
        # Per-flow cap from demand: the per-weight increment that would
        # bring the flow exactly to its demand.
        flow_room = np.full(n_flows, np.inf)
        finite = active & np.isfinite(dem)
        flow_room[finite] = (dem[finite] - rates[finite]) / w[finite]

        link_min = increment.min()
        flow_min = flow_room[active].min() if active.any() else np.inf
        step = min(link_min, flow_min)
        if not np.isfinite(step):
            raise ValueError("unbounded allocation: elastic flow with no links")
        step = max(step, 0.0)

        # Advance every active flow by step * weight.
        delta = step * w * act
        rates += delta
        remaining -= A @ delta
        remaining = np.maximum(remaining, 0.0)

        # Freeze flows that reached their demand.
        done = active & (rates >= dem - 1e-12)
        active &= ~done
        # Freeze flows crossing a saturated link: one transpose matvec
        # (counts of saturated links per flow) instead of slicing rows
        # out of the CSR matrix each iteration.
        saturated = used & (remaining <= 1e-12)
        if saturated.any():
            on_saturated = (AT @ saturated.astype(float)) > 0
            active &= ~on_saturated
    else:  # pragma: no cover - loop bound is a theoretical guarantee
        raise RuntimeError("progressive filling failed to converge")

    return rates


def progressive_filling_dense(
    routes: Sequence[Sequence[int]],
    capacities: Sequence[float],
    demands: Optional[Sequence[float]] = None,
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Reference progressive filling with explicit per-link Python loops.

    This is the readable textbook formulation the sparse implementation is
    tested against: every matvec of :func:`weighted_maxmin_fair` becomes a
    loop over per-link (flow, multiplicity) lists, accumulating in the same
    ascending-index order a canonical CSR matvec uses — so the two produce
    **bit-identical** rates (``np.array_equal``, not ``allclose``), which
    is what lets golden traces stay byte-stable whichever path computed
    them.  Quadratic bookkeeping; tests only.
    """
    n_flows = len(routes)
    caps = np.asarray(capacities, dtype=float)
    n_links = caps.shape[0]
    if (caps <= 0).any():
        raise ValueError("link capacities must be positive")
    if demands is None:
        dem = np.full(n_flows, np.inf)
    else:
        dem = np.asarray(demands, dtype=float)
    if weights is None:
        w = np.ones(n_flows)
    else:
        w = np.asarray(weights, dtype=float)
    if n_flows == 0:
        return np.zeros(0)

    # Per-link and per-flow (index, multiplicity) lists in ascending index
    # order with duplicates merged — exactly CSR canonical form for A and
    # its transpose.
    by_link: list[dict] = [dict() for _ in range(n_links)]
    by_flow: list[dict] = [dict() for _ in range(n_flows)]
    for f, links in enumerate(routes):
        for l in links:
            if not 0 <= l < n_links:
                raise IndexError(f"flow {f} uses unknown link {l}")
            by_link[l][f] = by_link[l].get(f, 0.0) + 1.0
            by_flow[f][l] = by_flow[f].get(l, 0.0) + 1.0
    link_entries = [sorted(d.items()) for d in by_link]
    flow_entries = [sorted(d.items()) for d in by_flow]

    def links_dot(x: np.ndarray) -> np.ndarray:  # A @ x
        out = np.zeros(n_links)
        for l, entries in enumerate(link_entries):
            acc = 0.0
            for f, mult in entries:
                acc += mult * x[f]
            out[l] = acc
        return out

    rates = np.zeros(n_flows)
    active = np.ones(n_flows, dtype=bool)
    remaining = caps.copy()

    routeless = np.asarray(
        [len(entries) == 0 for entries in flow_entries], dtype=bool
    )
    if routeless.any():
        rates[routeless] = dem[routeless]
        if not np.isfinite(dem[routeless]).all():
            raise ValueError("routeless flow with infinite demand")
        active[routeless] = False

    for _ in range(n_links + n_flows + 1):
        if not active.any():
            break
        act = active.astype(float)
        link_weight = links_dot(w * act)
        used = link_weight > 1e-15
        if not used.any():
            rates[active] = dem[active]
            break
        increment = np.full(n_links, np.inf)
        increment[used] = remaining[used] / link_weight[used]
        flow_room = np.full(n_flows, np.inf)
        finite = active & np.isfinite(dem)
        flow_room[finite] = (dem[finite] - rates[finite]) / w[finite]

        link_min = increment.min()
        flow_min = flow_room[active].min() if active.any() else np.inf
        step = min(link_min, flow_min)
        if not np.isfinite(step):
            raise ValueError("unbounded allocation: elastic flow with no links")
        step = max(step, 0.0)

        delta = step * w * act
        rates += delta
        remaining -= links_dot(delta)
        remaining = np.maximum(remaining, 0.0)

        done = active & (rates >= dem - 1e-12)
        active &= ~done
        saturated = used & (remaining <= 1e-12)
        if saturated.any():
            for f in range(n_flows):
                if active[f] and any(
                    saturated[l] for l, _ in flow_entries[f]
                ):
                    active[f] = False
    else:  # pragma: no cover - loop bound is a theoretical guarantee
        raise RuntimeError("progressive filling failed to converge")

    return rates


def link_loads(
    routes: Sequence[Sequence[int]],
    rates: Sequence[float],
    n_links: int,
) -> np.ndarray:
    """Per-link load implied by per-flow rates."""
    A = _incidence(routes, n_links)
    return np.asarray(A @ np.asarray(rates, dtype=float)).ravel()
