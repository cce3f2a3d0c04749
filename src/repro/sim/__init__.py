"""Deterministic discrete-event simulation kernel.

The object model (pods, the VIP/RIP manager, the sharded control plane)
runs on it.  The API follows the conventions popularised by SimPy
(environments, generator-based processes, events) but is implemented from
scratch so the reproduction has no external runtime dependencies and fully
deterministic event ordering: simultaneous events are ordered by (time,
priority, insertion sequence).

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2))
>>> _ = env.process(worker(env, "b", 1))
>>> env.run()
>>> log
[(1, 'b'), (2, 'a')]
"""

from repro.sim.core import Environment, StopSimulation
from repro.sim.events import (
    PENDING,
    URGENT,
    NORMAL,
    LOW,
    Event,
    Interrupt,
    Timeout,
)
from repro.sim.process import Process
from repro.sim.monitor import Tally, TimeSeries, UtilizationMonitor
from repro.sim.rng import RngHub, stable_hash

__all__ = [
    "Environment",
    "StopSimulation",
    "Event",
    "Timeout",
    "Interrupt",
    "Process",
    "Tally",
    "TimeSeries",
    "UtilizationMonitor",
    "RngHub",
    "stable_hash",
    "PENDING",
    "URGENT",
    "NORMAL",
    "LOW",
]
