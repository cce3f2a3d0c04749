"""Session arrival processes for session-level simulation.

Fluid experiments use :mod:`repro.workload.demand`; the session-level
examples and the connection-draining experiment (E5) additionally need
discrete client sessions: a bursty 2-state MMPP and heavy-ish-tailed
session durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass
class MMPPArrivals:
    """2-state Markov-modulated Poisson process (bursty arrivals).

    Alternates between a *calm* state (rate ``rate_calm``) and a *burst*
    state (rate ``rate_burst``); state holding times are exponential.
    """

    rate_calm: float
    rate_burst: float
    mean_calm_s: float
    mean_burst_s: float
    rng: np.random.Generator

    def __post_init__(self):
        if min(self.rate_calm, self.rate_burst) <= 0:
            raise ValueError("rates must be positive")
        if min(self.mean_calm_s, self.mean_burst_s) <= 0:
            raise ValueError("state holding times must be positive")

    def interarrivals(self) -> Iterator[float]:
        burst = False
        state_left = float(self.rng.exponential(self.mean_calm_s))
        while True:
            rate = self.rate_burst if burst else self.rate_calm
            gap = float(self.rng.exponential(1.0 / rate))
            # consume state time; switch states as needed
            while gap > state_left:
                gap -= state_left
                burst = not burst
                mean = self.mean_burst_s if burst else self.mean_calm_s
                state_left = float(self.rng.exponential(mean))
                rate = self.rate_burst if burst else self.rate_calm
                # re-draw the residual gap at the new rate
                gap = float(self.rng.exponential(1.0 / rate))
            state_left -= gap
            yield gap


def lognormal_durations(
    rng: np.random.Generator, mean_s: float = 60.0, sigma: float = 1.0, size: int = 1
) -> np.ndarray:
    """Session durations, lognormal with the given *mean* (not median)."""
    if mean_s <= 0:
        raise ValueError("mean duration must be positive")
    mu = np.log(mean_s) - sigma**2 / 2
    return rng.lognormal(mu, sigma, size=size)
