"""Span recording at the mega loop's layer boundaries, from outside.

:class:`Tracer` installs timing wrappers as *instance attributes* that
shadow the bound methods of the driver's layer objects, so no program
file changes; :meth:`Tracer.uninstall` deletes them and the class
methods show through again.  Spans are kept in memory as
``{id, parent, name, start_ns, end_ns, epoch}`` and written out as JSON
lines when the run ends.  The closures cannot be pickled, so tracing
needs the serial engine (``parallelism=1``).
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable, Optional


def _targets(driver) -> list[tuple[object, str, str, Optional[Callable]]]:
    """``(object, method, span name, result counter)`` for every wrapped
    layer boundary of *driver*; layers the driver does not wire get no
    wrapper.  A result counter maps the method's return value to the
    count it adds under the span name."""
    out = [
        (driver, "run_epoch", "mega.run_epoch", None),
        (driver.workload, "chunks", "workload.chunks", None),
        (driver.engine, "solve_batch", "engine.solve_batch", None),
    ]
    out += [(c, "solve", "sparse.solve", None) for c in driver.controllers]
    for pod in driver.pods:
        out.append((pod, "build_problem", "columnar.build_problem", None))
        out.append((pod, "apply", "columnar.apply", None))
    if driver.bridge is not None:
        out += [
            (driver.bridge, "sync", "bridge.sync", lambda r: int(r["applied"] > 0)),
            (driver.control_plane, "submit", "controlplane.submit", None),
        ]
    if driver.fault_injector is not None:
        out.append((driver.fault_injector, "advance", "faults.advance", int))
    dp = driver.dataplane
    if dp is not None:
        out += [
            (driver, "k1_resteer", "knobs.k1", None),
            (driver, "k2_rehome", "knobs.k2", None),
            (driver.request_stream, "epoch_requests", "requests.draw", None),
            (dp, "steer_epoch", "dataplane.steer", None),
            (dp, "refresh", "dataplane.refresh", int),
            (dp, "on_pod_loss", "dataplane.on_pod_loss", None),
            (dp.dns, "resolve_batch", "dns.resolve", None),
            (dp.conn, "try_open_batch", "conn.open", None),
            (dp.conn, "close_due", "conn.close_due", None),
            (dp.conn, "drop_rips", "conn.drop", None),
        ]
    return out


#: Wrapped methods that return generators: one span per item produced.
_GENERATORS = frozenset({"workload.chunks"})


class Tracer:
    """In-memory span recorder for one driver."""

    def __init__(self):
        self.spans: list[dict] = []
        #: Sum of result counters per span name.
        self.counts: Counter = Counter()
        #: Epoch stamped on spans opened from now on.
        self.epoch = -1
        self._stack: list[dict] = []
        self._installed: list[tuple[object, str]] = []

    # -- span bookkeeping ----------------------------------------------
    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "epoch": self.epoch,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def _wrap(self, fn, name: str, counter: Optional[Callable]):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                self.counts[name] += counter(result)
            return result

        return traced

    def _wrap_gen(self, fn, name: str):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item

        return traced

    # -- installation --------------------------------------------------
    def install(self, driver) -> None:
        """Shadow every layer boundary of *driver* with a timing wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for obj, attr, name, counter in _targets(driver):
            if attr in vars(obj):
                raise RuntimeError(f"{name}: {attr} is already shadowed")
            fn = getattr(obj, attr)
            wrapped = (
                self._wrap_gen(fn, name)
                if name in _GENERATORS
                else self._wrap(fn, name, counter)
            )
            setattr(obj, attr, wrapped)
            self._installed.append((obj, attr))

    def uninstall(self) -> None:
        for obj, attr in self._installed:
            delattr(obj, attr)
        self._installed.clear()

    @staticmethod
    def leftovers(driver) -> list[str]:
        """Span names whose wrapper is still installed on *driver*."""
        return sorted(
            {name for obj, attr, name, _ in _targets(driver) if attr in vars(obj)}
        )

    # -- analysis -------------------------------------------------------
    def self_ns(self) -> list[int]:
        """Per-span self time: duration minus the time its direct
        children cover (children of one span never overlap: the loop is
        single-threaded)."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end_ns"] - s["start_ns"]
        return [s["end_ns"] - s["start_ns"] - c for s, c in zip(self.spans, child)]

    def totals_s(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per span name: total inclusive seconds, total self seconds and
        number of calls; a name with no spans reads 0."""
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for s, self_ns in zip(self.spans, self.self_ns()):
            incl[s["name"]] += (s["end_ns"] - s["start_ns"]) / 1e9
            own[s["name"]] += self_ns / 1e9
            calls[s["name"]] += 1
        return incl, own, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
