"""Time-varying demand processes.

A :class:`DemandProcess` maps simulation time (seconds) to offered load.
Units are caller-defined — the system uses Gbps for traffic demand and
normalized CPU units for compute demand (one CPU unit serves one Gbps,
see :meth:`repro.workload.apps.AppSpec.cpu_demand`).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass


class DemandProcess(abc.ABC):
    """Offered load as a function of time."""

    @abc.abstractmethod
    def rate(self, t: float) -> float:
        """Demand at time *t* (>= 0)."""


@dataclass
class ConstantDemand(DemandProcess):
    level: float

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("demand must be non-negative")

    def rate(self, t: float) -> float:
        return self.level


@dataclass
class StepDemand(DemandProcess):
    """Jump from *before* to *after* at time *at*."""

    before: float
    after: float
    at: float

    def rate(self, t: float) -> float:
        return self.before if t < self.at else self.after


@dataclass
class DiurnalDemand(DemandProcess):
    """Sinusoidal day/night cycle.

    ``mean * (1 + amplitude * cos(2*pi*(t - peak_time)/period))``.
    """

    mean: float
    amplitude: float = 0.5
    period_s: float = 86400.0
    peak_time_s: float = 0.0

    def __post_init__(self):
        if not 0 <= self.amplitude <= 1:
            raise ValueError("amplitude must be in [0, 1]")
        if self.mean < 0:
            raise ValueError("mean must be non-negative")

    def rate(self, t: float) -> float:
        phase = 2 * math.pi * (t - self.peak_time_s) / self.period_s
        return self.mean * (1 + self.amplitude * math.cos(phase))


@dataclass
class FlashCrowdDemand(DemandProcess):
    """A baseline with a sudden multiplicative spike.

    Demand ramps from ``base`` to ``base * spike_factor`` linearly over
    ``ramp_s`` starting at ``start_s``, holds for ``hold_s``, then decays
    exponentially back with time constant ``decay_s``.
    """

    base: float
    spike_factor: float = 8.0
    start_s: float = 600.0
    ramp_s: float = 120.0
    hold_s: float = 600.0
    decay_s: float = 600.0

    def __post_init__(self):
        if self.spike_factor < 1:
            raise ValueError("spike_factor must be >= 1")

    def rate(self, t: float) -> float:
        peak = self.base * self.spike_factor
        if t < self.start_s:
            return self.base
        if t < self.start_s + self.ramp_s:
            frac = (t - self.start_s) / self.ramp_s
            return self.base + (peak - self.base) * frac
        if t < self.start_s + self.ramp_s + self.hold_s:
            return peak
        dt = t - (self.start_s + self.ramp_s + self.hold_s)
        return self.base + (peak - self.base) * math.exp(-dt / self.decay_s)

