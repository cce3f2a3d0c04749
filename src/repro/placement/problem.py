"""Problem/solution dataclasses shared by all placement controllers.

The model follows Tang et al.: applications have a divisible CPU demand
(load-dependent) and an indivisible per-instance memory requirement
(load-independent); servers have CPU and memory capacities.  A *placement*
says which apps have an instance on which server; a *load assignment* says
how much CPU demand each instance serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Slack a solution's loads and capacities may exceed their bounds by in
#: ``validate``, for float round-off.
VALIDATE_ATOL = 1e-6


def _is_sparse(placement) -> bool:
    """True when *placement* is a CSR :class:`SparsePlacement`.

    Imported lazily — :mod:`repro.placement.sparse` depends on this module.
    """
    from repro.placement.sparse import SparsePlacement

    return isinstance(placement, SparsePlacement)


def _stored(column: np.ndarray) -> np.ndarray:
    """The values *column* stores: its one value when it is a zero-stride
    view of one float (a uniform column), else the column itself."""
    if column.ndim == 1 and column.size and column.strides == (0,):
        return column[:1]
    return column


@dataclass
class PlacementProblem:
    """One placement/allocation instance.

    All arrays are aligned: servers indexed ``0..S-1``, apps ``0..A-1``.

    Attributes
    ----------
    server_cpu / server_mem:
        Per-server capacities.
    app_cpu_demand:
        Total (divisible) CPU demand of each app this epoch.
    app_mem:
        Memory one instance of each app reserves.
    current:
        Boolean S x A matrix: instance of app *a* currently on server *s*.
    max_instances:
        Optional per-app cap on instance count (defaults: unbounded).
    """

    server_cpu: np.ndarray
    server_mem: np.ndarray
    app_cpu_demand: np.ndarray
    app_mem: np.ndarray
    current: np.ndarray
    max_instances: Optional[np.ndarray] = None

    def __post_init__(self):
        self.server_cpu = np.asarray(self.server_cpu, dtype=float)
        self.server_mem = np.asarray(self.server_mem, dtype=float)
        self.app_cpu_demand = np.asarray(self.app_cpu_demand, dtype=float)
        self.app_mem = np.asarray(self.app_mem, dtype=float)
        if not _is_sparse(self.current):
            self.current = np.asarray(self.current, dtype=bool)
        s, a = self.n_servers, self.n_apps
        if self.server_mem.shape != (s,):
            raise ValueError("server_mem shape mismatch")
        if self.app_mem.shape != (a,):
            raise ValueError("app_mem shape mismatch")
        if self.current.shape != (s, a):
            raise ValueError(f"current placement must be {s}x{a}")
        if (_stored(self.server_cpu) <= 0).any() or (
            _stored(self.server_mem) <= 0
        ).any():
            raise ValueError("server capacities must be positive")
        if (self.app_cpu_demand < 0).any():
            raise ValueError("demands must be non-negative")
        if (_stored(self.app_mem) <= 0).any():
            raise ValueError("per-instance memory must be positive")

    @property
    def n_servers(self) -> int:
        return self.server_cpu.shape[0]

    @property
    def n_apps(self) -> int:
        return self.app_cpu_demand.shape[0]

    @property
    def total_demand(self) -> float:
        return float(self.app_cpu_demand.sum())

    def mem_used(self, placement) -> np.ndarray:
        """Per-server memory consumed by a placement matrix (dense or CSR)."""
        if _is_sparse(placement):
            return np.bincount(
                placement.rows(),
                weights=self.app_mem[placement.cols()],
                minlength=self.n_servers,
            )
        return placement.astype(float) @ self.app_mem

    def placement_feasible(self, placement) -> bool:
        return bool((self.mem_used(placement) <= self.server_mem + 1e-9).all())


@dataclass
class PlacementSolution:
    """A placement plus its load assignment.

    Attributes
    ----------
    placement:
        Boolean S x A instance matrix.
    load:
        Float S x A matrix; ``load[s, a]`` CPU units of app *a* served on
        server *s*.  Zero wherever ``placement`` is False.
    changes:
        Number of instance starts + stops relative to the problem's
        ``current`` placement.
    wall_time_s:
        Controller decision time (measured, not simulated).
    """

    placement: np.ndarray
    load: np.ndarray
    changes: int = 0
    wall_time_s: float = 0.0

    def satisfied(self) -> np.ndarray:
        """Per-app satisfied CPU demand."""
        return self.load.sum(axis=0)

    def server_load(self) -> np.ndarray:
        return self.load.sum(axis=1)

    def validate(self, problem: PlacementProblem) -> None:
        """Raise if the solution violates any hard constraint."""
        if self.placement.shape != problem.current.shape:
            raise ValueError("placement shape mismatch")
        if (self.load < -VALIDATE_ATOL).any():
            raise ValueError("negative load assignment")
        if ((self.load > VALIDATE_ATOL) & ~self.placement).any():
            raise ValueError("load assigned to a server without an instance")
        if (self.server_load() > problem.server_cpu + VALIDATE_ATOL).any():
            raise ValueError("server CPU capacity exceeded")
        if not problem.placement_feasible(self.placement):
            raise ValueError("server memory capacity exceeded")
        if (self.satisfied() > problem.app_cpu_demand + VALIDATE_ATOL).any():
            raise ValueError("app served more than its demand")
        if problem.max_instances is not None:
            if (self.placement.sum(axis=0) > problem.max_instances).any():
                raise ValueError("per-app instance cap exceeded")


def count_changes(before: np.ndarray, after: np.ndarray) -> int:
    """Placement churn: starts + stops."""
    return int(np.logical_xor(before, after).sum())
