"""Streaming demand generation for mega-scale epochs.

The object-based :class:`~repro.workload.generator.WorkloadBuilder` builds
one ``AppSpec`` (plus a demand-process object) per application — fine at
thousands of apps, hopeless at the paper's 300k.  This module keeps the
same demand model (Zipf popularity, a diurnal fraction with per-app
amplitude/phase, constant the rest) as flat NumPy parameter arrays and
evaluates demand *by index range*, so an epoch driver can consume demand
in bounded-size chunks without ever materializing the full app x epoch
matrix.

Demand is in Gbps, and one Gbps needs one CPU unit, so the same vector is
an app's CPU demand.

Chunking contract: every demand formula here is purely elementwise in the
app index, so ``cpu_demand(t, lo, hi)`` is bit-identical to
``cpu_demand(t)[lo:hi]`` for any split — :meth:`fingerprint` hashes the
chunk stream so tests (and the mega driver) can assert chunked ≡
materialized cheaply.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.workload.popularity import zipf_weights

#: Period of the diurnal demand curve (s): one day.
PERIOD_S = 86400.0


@dataclass
class StreamingWorkload:
    """Vectorised demand model over ``n_apps`` applications.

    Per-app demand at time ``t`` (seconds):

    * diurnal apps: ``mean * (1 + amplitude * cos(2*pi*(t - peak)/PERIOD_S))``
      — the same curve as :class:`~repro.workload.demand.DiurnalDemand`;
    * the rest: constant ``mean``.

    ``mean`` is Zipf-popularity-weighted so a few apps are hot and the tail
    is long, matching the paper's "roughly correspond to websites".
    """

    n_apps: int
    total_gbps: float
    zipf_s: float = 0.8
    diurnal_fraction: float = 0.5
    seed: int = 0
    mean_gbps: np.ndarray = field(init=False, repr=False)
    amplitude: np.ndarray = field(init=False, repr=False)
    peak_time_s: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_apps < 1:
            raise ValueError("need at least one application")
        if self.total_gbps <= 0:
            raise ValueError("total demand must be positive")
        if not 0.0 <= self.diurnal_fraction <= 1.0:
            raise ValueError("diurnal_fraction must be in [0, 1]")
        rng = np.random.default_rng(self.seed)
        self.mean_gbps = zipf_weights(self.n_apps, self.zipf_s) * self.total_gbps
        diurnal = rng.random(self.n_apps) < self.diurnal_fraction
        # amplitude 0 for constant apps makes the formula uniform (and
        # branch-free) across the whole index range.
        self.amplitude = np.where(
            diurnal, rng.uniform(0.2, 0.6, self.n_apps), 0.0
        )
        self.peak_time_s = rng.uniform(0.0, PERIOD_S, self.n_apps)

    # -- demand evaluation --------------------------------------------
    def cpu_demand(
        self, t: float, lo: int = 0, hi: Optional[int] = None
    ) -> np.ndarray:
        """Demand of apps ``[lo, hi)`` at time *t* (full range by default)."""
        hi = self.n_apps if hi is None else hi
        if not 0 <= lo <= hi <= self.n_apps:
            raise ValueError(f"bad app range [{lo}, {hi})")
        phase = (
            2.0
            * np.pi
            * (t - self.peak_time_s[lo:hi])
            / PERIOD_S
        )
        return self.mean_gbps[lo:hi] * (
            1.0 + self.amplitude[lo:hi] * np.cos(phase)
        )

    def chunks(
        self, t: float, chunk_apps: int
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(lo, hi, cpu_demand[lo:hi])`` covering all apps in order."""
        if chunk_apps < 1:
            raise ValueError("chunk_apps must be positive")
        for lo in range(0, self.n_apps, chunk_apps):
            hi = min(lo + chunk_apps, self.n_apps)
            yield lo, hi, self.cpu_demand(t, lo, hi)

    def fingerprint(self, t: float, chunk_apps: Optional[int] = None) -> str:
        """SHA-256 over the exact bytes of the demand stream at *t*.

        With ``chunk_apps`` the stream is hashed chunk by chunk; without,
        the full vector is hashed whole.  Chunked generation is
        elementwise in the app index, so the two agree for every chunk
        size — the mega driver asserts this once per run.
        """
        h = hashlib.sha256()
        h.update(np.float64(t).tobytes())
        if chunk_apps is None:
            h.update(self.cpu_demand(t).tobytes())
        else:
            for _lo, _hi, vals in self.chunks(t, chunk_apps):
                h.update(np.ascontiguousarray(vals).tobytes())
        return h.hexdigest()
