"""Micro-benchmarks of the numerical hot paths.

The HPC guides' rule: vectorize the bottleneck, measure it.  These are the
kernels every epoch of every experiment leans on — the waterfill load
distributor and the event kernel — timed at realistic sizes with full
statistical rounds.
"""

import numpy as np
import pytest

from repro.placement.greedy import waterfill_load
from repro.placement.problem import PlacementProblem


def _waterfill_instance(n_servers=500, n_apps=1500, seed=0):
    rng = np.random.default_rng(seed)
    demands = rng.uniform(0.05, 0.5, n_apps)
    app_mem = rng.uniform(1.0, 4.0, n_apps)
    current = np.zeros((n_servers, n_apps), dtype=bool)
    for a in range(n_apps):
        current[rng.integers(n_servers), a] = True
    problem = PlacementProblem(
        server_cpu=np.ones(n_servers),
        server_mem=np.full(n_servers, 32.0),
        app_cpu_demand=demands,
        app_mem=app_mem,
        current=current,
    )
    return problem, current


def test_waterfill_500x1500(benchmark):
    problem, placement = _waterfill_instance()
    load = benchmark(waterfill_load, problem, placement)
    assert (load.sum(axis=1) <= problem.server_cpu + 1e-9).all()
    assert (load.sum(axis=0) <= problem.app_cpu_demand + 1e-9).all()


def test_event_kernel_throughput(benchmark):
    """Events processed per run of a 10k-timeout chain."""
    from repro.sim import Environment

    def run():
        env = Environment()

        def chain():
            for _ in range(10_000):
                yield env.timeout(1.0)

        env.process(chain())
        env.run()
        return env.now

    assert benchmark(run) == 10_000.0
