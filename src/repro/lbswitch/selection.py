"""RIP selection algorithms for session-level load balancing.

Smooth weighted round-robin (the nginx algorithm) gives a deterministic
interleaving proportional to weights; :func:`weighted_rip_pick` is its
stateless single-draw counterpart, used by the object data plane and
replayed exactly by the vectorized one.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.dns.policy import weighted_pick


def weighted_rip_pick(weights: Mapping[str, float], u: float) -> str:
    """Canonical single-draw weighted RIP selection.

    RIPs are ordered by name (the same canonical order the columnar
    registry's per-VIP views use) and one is drawn by inverse-CDF from the
    uniform *u* — the stateless counterpart of :class:`SmoothWeightedRR`
    that the vectorized data plane can replay exactly: both sides share
    :func:`repro.dns.policy.weighted_pick`, so identical uniforms yield
    identical RIPs.
    """
    if not weights:
        raise ValueError("need at least one RIP")
    names = sorted(weights)
    w = np.asarray([weights[r] for r in names], dtype=float)
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    if w.sum() <= 0:
        raise ValueError("at least one weight must be positive")
    return names[weighted_pick(w, u)]


class SmoothWeightedRR:
    """Smooth weighted round-robin over a mutable weight table."""

    def __init__(self, weights: Mapping[str, float]):
        if not weights:
            raise ValueError("need at least one RIP")
        if any(w < 0 for w in weights.values()):
            raise ValueError("weights must be non-negative")
        if all(w == 0 for w in weights.values()):
            raise ValueError("at least one weight must be positive")
        self._weights = dict(weights)
        self._current = {rip: 0.0 for rip in weights}

    def update_weights(self, weights: Mapping[str, float]) -> None:
        self._weights = dict(weights)
        for rip in weights:
            self._current.setdefault(rip, 0.0)
        for rip in list(self._current):
            if rip not in weights:
                del self._current[rip]

    def pick(self) -> str:
        """Next RIP; over any window the pick frequency is proportional to
        weight (property-tested)."""
        total = sum(self._weights.values())
        if total <= 0:
            raise RuntimeError("all RIP weights are zero")
        best: Optional[str] = None
        for rip in sorted(self._weights):
            self._current[rip] += self._weights[rip]
            if best is None or self._current[rip] > self._current[best]:
                best = rip
        assert best is not None
        self._current[best] -= total
        return best

