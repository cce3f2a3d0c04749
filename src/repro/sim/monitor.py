"""Measurement primitives: tallies, step time series, utilization monitors.

These are the only sanctioned way experiments read results out of a
simulation; benchmarks never poke at component internals.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Tally:
    """Online statistics over discrete observations.

    Count, mean, min and max are exact regardless of how many
    values are observed.  Raw values — which percentiles are computed
    from — are retained in a *bounded reservoir* (uniform reservoir
    sampling, deterministic per tally name): exact up to
    ``reservoir_size`` observations, an unbiased sample beyond that.
    Pass ``keep_values=True`` to opt into unbounded retention and exact
    percentiles at any count.
    """

    def __init__(
        self,
        name: str = "",
        keep_values: bool = False,
        reservoir_size: int = 4096,
    ):
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.name = name
        self._n = 0
        self._mean = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._keep_values = keep_values
        self._reservoir_size = int(reservoir_size)
        self._values: list[float] = []
        self._rng: Optional[np.random.Generator] = None

    def observe(self, value: float) -> None:
        v = float(value)
        self._n += 1
        delta = v - self._mean
        self._mean += delta / self._n
        self._min = min(self._min, v)
        self._max = max(self._max, v)
        if self._keep_values or self._n <= self._reservoir_size:
            self._values.append(v)
        else:
            # Algorithm R: each of the n values seen so far has equal
            # probability reservoir_size/n of being retained.
            if self._rng is None:
                from repro.sim.rng import stable_hash

                self._rng = np.random.default_rng(
                    stable_hash("tally-reservoir", self.name, self._reservoir_size)
                )
            j = int(self._rng.integers(0, self._n))
            if j < self._reservoir_size:
                self._values[j] = v

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        return self._mean if self._n else math.nan

    @property
    def minimum(self) -> float:
        return self._min if self._n else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._n else math.nan

    def percentile(self, q: float) -> Optional[float]:
        """q in [0, 100].  Exact while the reservoir has not overflowed
        (or with ``keep_values=True``); a sample estimate beyond that.
        Returns ``None`` when no values have been observed — callers
        report "no data" rather than propagating NaN into summaries."""
        if not self._values:
            return None
        return float(np.percentile(np.asarray(self._values), q))

    def values(self) -> np.ndarray:
        """The retained raw values (a reservoir sample once ``count``
        exceeds the reservoir size)."""
        return np.asarray(self._values, dtype=float)


class TimeSeries:
    """A right-continuous step function sampled by :meth:`observe`.

    ``observe(v)`` records that the monitored quantity equals *v* from the
    current simulation time until the next observation.
    """

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        t = self.env.now
        if self._times and self._times[-1] == t:
            # Same-instant update: keep the latest value only.
            self._values[-1] = float(value)
        else:
            self._times.append(t)
            self._values.append(float(value))

    @property
    def current(self) -> float:
        return self._values[-1] if self._values else math.nan

    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)

    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def value_at(self, t: float) -> float:
        """Value of the step function at time *t*."""
        if not self._times or t < self._times[0]:
            return math.nan
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        return self._values[idx]

    def time_average(self, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        """Time-weighted mean over [t0, t1] (defaults: first obs .. now)."""
        if not self._times:
            return math.nan
        t0 = self._times[0] if t0 is None else t0
        t1 = self.env.now if t1 is None else t1
        if t1 <= t0:
            return self.value_at(t0)
        times = np.asarray(self._times + [t1], dtype=float)
        vals = np.asarray(self._values, dtype=float)
        # Clip the step boundaries to the window.
        starts = np.clip(times[:-1], t0, t1)
        ends = np.clip(times[1:], t0, t1)
        widths = ends - starts
        total = float(np.dot(widths, vals))
        return total / (t1 - t0)


class UtilizationMonitor:
    """Tracks a load level against a capacity as a step function.

    Convenience wrapper used by servers, links and switches.
    """

    def __init__(self, env: "Environment", capacity: float, name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = float(capacity)
        self.series = TimeSeries(env, name)
        self.series.observe(0.0)

    @property
    def load(self) -> float:
        return self.series.current

    @property
    def utilization(self) -> float:
        return self.series.current / self.capacity

    def set_load(self, load: float) -> None:
        self.series.observe(float(load))
