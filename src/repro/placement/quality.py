"""Solution quality metrics shared by all placement experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.placement.problem import PlacementProblem, PlacementSolution


@dataclass(frozen=True)
class SolutionQuality:
    """Quality summary of one placement solution."""

    satisfied_fraction: float
    changes: int
    max_server_utilization: float
    mean_server_utilization: float
    instances: int
    wall_time_s: float


def evaluate_solution(
    problem: PlacementProblem, solution: PlacementSolution
) -> SolutionQuality:
    """Validate a solution and compute its quality metrics."""
    solution.validate(problem)
    total_demand = problem.total_demand
    satisfied = solution.satisfied().sum()
    util = solution.server_load() / problem.server_cpu
    return SolutionQuality(
        satisfied_fraction=float(satisfied / total_demand) if total_demand > 0 else 1.0,
        changes=solution.changes,
        max_server_utilization=float(util.max()),
        mean_server_utilization=float(util.mean()),
        instances=int(solution.placement.sum()),
        wall_time_s=solution.wall_time_s,
    )
