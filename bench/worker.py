"""One workload in one process: set up, warm up, time, check, report.

``bench/run.py`` starts this as ``python -m bench.worker`` in a fresh
single-threaded subprocess; the last line of its standard output is one
JSON result with every metric value, the correctness checks and the
outcome digest.  Units live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from bench.tracing import Tracer
from bench.workloads import WORKLOADS
from repro.core.mega import MegaScaleDriver
from repro.faults.mega import MegaFaultInjector
from repro.obs.audit import InvariantAuditor
from repro.perf.rss import peak_rss_mb

#: Relative slack for float comparisons against capacities and demand
#: (sums over ~6M entries differ from their bound in the last digits).
_REL = 1e-9

#: Samples that must lie beyond a reported percentile.
_BEYOND = 10


class _Checks:
    """Named correctness checks; a name fails if any of its runs fails."""

    def __init__(self):
        self.ok: dict[str, bool] = {}
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str) -> bool:
        ok = bool(ok)
        self.ok[name] = self.ok.get(name, True) and ok
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


def _setup(wl, seed: int, smoke: bool, horizon_epochs: int):
    """Construct the driver ``setup_repeats`` times, timing each full
    construction (bootstrap, control-plane wiring, data-plane build and
    fault-injector install, as the workload wires them); the last driver
    is kept."""
    cfg, cp, sc = wl.configs(seed, smoke)
    horizon_s = horizon_epochs * cfg.epoch_s
    samples: list[float] = []
    driver = None
    for _ in range(wl.setup_repeats):
        if driver is not None:
            driver.close()
            driver = None
        gc.collect()
        t0 = time.perf_counter()
        driver = MegaScaleDriver(cfg, control_plane=cp, steering=sc)
        if wl.faults is not None:
            MegaFaultInjector(driver, wl.faults(driver, seed, horizon_s))
        samples.append(time.perf_counter() - t0)
    return driver, samples


def _outcome(rep) -> bytes:
    """The epoch's observable outcome, as hashed into ``outcome_digest``."""
    return repr(
        (
            rep.vms, rep.changes, round(rep.satisfied_cpu, 9),
            rep.rip_fingerprint, rep.conns_opened, rep.conns_rejected,
            rep.unserved, rep.conns_closed, rep.conns_dropped,
        )
    ).encode()


def _check_epoch(checks: _Checks, rep) -> bool:
    ok = checks.check(
        "satisfied_le_demand",
        rep.satisfied_cpu <= rep.demand_cpu * (1 + _REL),
        f"epoch {rep.epoch}: satisfied {rep.satisfied_cpu!r} "
        f"> demand {rep.demand_cpu!r}",
    )
    balance = rep.conns_opened + rep.conns_rejected + rep.unserved
    return checks.check(
        "steer_balance",
        balance == rep.requests,
        f"epoch {rep.epoch}: opened+rejected+unserved {balance} "
        f"!= requests {rep.requests}",
    ) and ok


def _check_state(checks: _Checks, driver, auditor, t: float, when: str) -> None:
    found = auditor.audit_now(t)
    checks.check(
        "auditor", not found, f"{when}: {sorted({v.invariant for v in found})}"
    )
    over = 0
    for pod in driver.pods:
        load = np.bincount(
            pod.placement.rows(), weights=pod.load, minlength=pod.n_servers
        )
        over += int((load > pod.servers.cpu * (1 + _REL)).sum())
    checks.check("cpu_capacity", over == 0, f"{when}: {over} servers over CPU")


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was counted (an unwired layer)."""
    return num / den if den else 0.0


def _tail(walls: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile of *walls* that
    has at least ``_BEYOND`` samples beyond it, or ``(0.0, 0.0)`` when
    that percentile would be below the median."""
    n = len(walls)
    pct = 100.0 * (n - _BEYOND) / n
    if pct < 50.0:
        return 0.0, 0.0
    return sorted(walls)[n - _BEYOND - 1], pct


def _is_traced(i: int) -> bool:
    """Timed epochs alternate in pairs, untraced then traced, so both
    halves see odd and even epochs (knobs fire on even ones)."""
    return (i // 2) % 2 == 1


def run(
    name: str, seed: int, seconds: float, traced: bool = False,
    smoke: bool = False, spans_path=None,
) -> dict:
    wl = WORKLOADS[name]
    warm = 1 if smoke else wl.warm
    timed = 3 if smoke else wl.timed_epochs(seconds)
    driver, setup = _setup(wl, seed, smoke, warm + timed)
    checks = _Checks()
    auditor = InvariantAuditor(columnar=driver)
    digest = hashlib.sha256()
    tracer = Tracer() if traced else None
    reports, walls, flags = [], [], []
    failed = rebuilds = 0
    bridge = driver.bridge
    with driver:
        for _ in range(warm):
            rep = driver.run_epoch()
            _check_epoch(checks, rep)
            digest.update(_outcome(rep))
        _check_state(checks, driver, auditor, rep.t, "after warm-up")
        for i in range(timed):
            on = traced and _is_traced(i)
            if on:
                tracer.epoch = driver.epochs_run
                rebuilds0 = bridge.rebuilds if bridge is not None else 0
                tracer.install(driver)
            t0 = time.perf_counter()
            rep = driver.run_epoch()
            wall = time.perf_counter() - t0
            if on:
                tracer.uninstall()
                if bridge is not None:
                    rebuilds += bridge.rebuilds - rebuilds0
            reports.append(rep)
            walls.append(wall)
            flags.append(on)
            failed += not _check_epoch(checks, rep)
            digest.update(_outcome(rep))
        peak = peak_rss_mb()
        _check_state(checks, driver, auditor, rep.t, "after the last epoch")
        if bridge is not None:
            checks.check(
                "bridge_verify", bridge.verify(),
                "RIP mirror diverged from the authority",
            )
        dp = driver.dataplane
        alive_end = dp.conn.alive_count if dp is not None else 0
        wired = {
            "control_plane": bridge is not None,
            "dataplane": dp is not None,
            "faults": driver.fault_injector is not None,
        }
        if traced:
            left = Tracer.leftovers(driver)
            checks.check("wrappers_removed", not left, f"still wrapped: {left}")

    plain = [w for w, on in zip(walls, flags) if not on]
    plain_reps = [r for r, on in zip(reports, flags) if not on]
    requests = sum(r.requests for r in reports)
    demand = sum(r.demand_cpu + r.dropped_cpu for r in reports)
    metrics = {
        "setup_s": statistics.median(setup),
        "epoch_p50_s": statistics.median(plain),
        "peak_rss_mb": peak,
        "req_per_s": sum(r.requests for r in plain_reps) / sum(plain),
        "unsatisfied_frac": 1.0 - sum(r.satisfied_cpu for r in reports) / demand,
        "vm_changes_per_epoch": statistics.mean(r.changes for r in reports),
        "reject_frac": _ratio(
            sum(r.conns_rejected + r.unserved for r in reports), requests
        ),
        "conn_drop_frac": _ratio(
            sum(r.conns_dropped for r in reports),
            sum(r.conns_opened for r in reports),
        ),
    }
    if traced:
        metrics.update(
            _layer_metrics(
                tracer,
                [r for r, on in zip(reports, flags) if on],
                [w for w, on in zip(walls, flags) if on],
                plain, rebuilds, alive_end,
            )
        )
        if spans_path is not None:
            tracer.write(spans_path)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "traced": traced,
        "epochs_warm": warm,
        "epochs_timed": timed,
        "epochs_traced": sum(flags),
        "wired": wired,
        "setup_samples_s": setup,
        "epoch_walls_s": walls,
        "metrics": metrics,
        "checks": checks.ok,
        "failures": checks.failures,
        "attempted": timed,
        "failed": failed,
        "outcome_digest": digest.hexdigest(),
        "env": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def _layer_metrics(tracer, reps, walls, plain, rebuilds, alive_end) -> dict:
    """Per-layer means per traced epoch, from spans and epoch reports.
    A layer the workload does not wire has no spans and reads 0."""
    incl, own, calls = tracer.totals_s()
    counts = tracer.counts
    n = len(reps)
    requests = sum(r.requests for r in reps)
    tail, tail_pct = _tail(plain)
    return {
        "mega.self_s": own["mega.run_epoch"] / n,
        "mega.epoch_tail_s": tail,
        "mega.epoch_tail_pct": tail_pct,
        "mega.epoch_tail_n": len(plain),
        "sparse.solve_s": incl["sparse.solve"] / n,
        "engine.overhead_s": (incl["engine.solve_batch"] - incl["sparse.solve"])
        / n,
        "engine.delta_tasks": statistics.mean(r.delta_tasks for r in reps),
        "engine.full_tasks": statistics.mean(r.full_tasks for r in reps),
        "engine.bytes_shipped": statistics.mean(r.bytes_shipped for r in reps),
        "columnar.build_problem_s": incl["columnar.build_problem"] / n,
        "columnar.apply_s": incl["columnar.apply"] / n,
        "workload.chunks_s": incl["workload.chunks"] / n,
        "requests.draw_s": incl["requests.draw"] / n,
        "bridge.sync_s": incl["bridge.sync"] / n,
        "bridge.syncs": calls["bridge.sync"] / n,
        "bridge.records": statistics.mean(r.rip_records for r in reps),
        "bridge.rebuilds": rebuilds / n,
        "bridge.useful_sync_ratio": _ratio(
            counts["bridge.sync"], calls["bridge.sync"]
        ),
        "controlplane.submits": calls["controlplane.submit"] / n,
        "faults.advance_s": incl["faults.advance"] / n,
        "faults.events": counts["faults.advance"] / n,
        "dataplane.steer_s": incl["dataplane.steer"] / n,
        "dataplane.refresh_s": incl["dataplane.refresh"] / n,
        "dataplane.refreshes_rebuilt": counts["dataplane.refresh"] / n,
        "knobs.s": (incl["knobs.k1"] + incl["knobs.k2"]) / n,
        "knobs.fired": (calls["knobs.k1"] + calls["knobs.k2"]) / n,
        "dns.resolve_s": incl["dns.resolve"] / n,
        "dns.hit_ratio": _ratio(sum(r.dns_hits for r in reps), requests),
        "conn.open_s": incl["conn.open"] / n,
        "conn.close_due_s": incl["conn.close_due"] / n,
        "conn.drop_s": incl["conn.drop"] / n,
        "conn.accept_ratio": _ratio(sum(r.conns_opened for r in reps), requests),
        "conn.alive_end": alive_end,
        "trace.overhead_frac": statistics.median(walls) / statistics.median(plain)
        - 1.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans here")
    args = ap.parse_args(argv)
    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        args.spans,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
