"""Process-wide metrics registry: counters, gauges, bounded histograms
and timer contexts, with a cheap no-op mode and JSON export.

Instruments are created lazily and cached by name, so call sites can do
``registry.counter("epochs").inc()`` without registration ceremony.  In
no-op mode every accessor returns a shared null instrument whose methods
do nothing, keeping disabled-instrumentation cost at a few attribute
lookups.
"""

from __future__ import annotations

import math
import time
from typing import Iterator, Optional

from repro.sim.monitor import Tally


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (e.g. current pool size, VMs in flight)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value = (self.value or 0.0) + delta

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Bounded-memory distribution built on the simulator's Tally
    (Welford moments + Algorithm R reservoir)."""

    __slots__ = ("name", "_tally")

    def __init__(self, name: str, reservoir: int = 512):
        self.name = name
        self._tally = Tally(name, reservoir_size=reservoir)

    def observe(self, value: float) -> None:
        self._tally.observe(value)

    def snapshot(self) -> dict:
        t = self._tally
        out = {
            "type": "histogram",
            "count": t.count,
            "mean": t.mean if t.count else None,
            "min": t.minimum if t.count else None,
            "max": t.maximum if t.count else None,
        }
        for q in (50, 90, 99):
            p = t.percentile(q)
            out[f"p{q}"] = None if p is None or (
                isinstance(p, float) and math.isnan(p)
            ) else p
        return out


class Timer:
    """Wall-clock timer; ``with registry.timer("x").time(): ...`` records
    one histogram observation per context exit."""

    __slots__ = ("name", "histogram")

    def __init__(self, name: str):
        self.name = name
        self.histogram = Histogram(name)

    def time(self) -> "_TimerContext":
        return _TimerContext(self.histogram)

    def snapshot(self) -> dict:
        out = self.histogram.snapshot()
        out["type"] = "timer"
        return out


class _TimerContext:
    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: Histogram):
        self._hist = hist
        self._t0 = 0.0

    def __enter__(self) -> "_TimerContext":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._hist.observe(time.perf_counter() - self._t0)


class _NullInstrument:
    """Answers every instrument method with a no-op; one shared instance
    backs all names when the registry is disabled."""

    name = "<noop>"

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> "_NullInstrument":
        return self

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL = _NullInstrument()


class MetricsRegistry:
    """Name-keyed instrument store.

    ``MetricsRegistry(enabled=False)`` hands out the shared null
    instrument for every request — callers keep identical code paths in
    both modes.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, cls):
        if not self.enabled:
            return _NULL
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    def __iter__(self) -> Iterator[tuple[str, object]]:
        return iter(sorted(self._instruments.items()))

    def snapshot(self) -> dict:
        return {name: inst.snapshot() for name, inst in self}
