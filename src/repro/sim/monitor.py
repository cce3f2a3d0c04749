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
    """Online count, mean and maximum over discrete observations."""

    def __init__(self):
        self._n = 0
        self._mean = 0.0
        self._max = -math.inf

    def observe(self, value: float) -> None:
        v = float(value)
        self._n += 1
        self._mean += (v - self._mean) / self._n
        self._max = max(self._max, v)

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        return self._mean if self._n else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._n else math.nan


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
