"""Logical server pods (Section III-A).

A pod is a *logical* grouping of physical servers — "formed logically by
the configuration of IP address of the servers and their hosted VMs" — so
moving a server between pods (knob K3) is a bookkeeping operation on this
class, not a topology change.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.hosts.server import PhysicalServer
from repro.hosts.vm import VMState


class Pod:
    """A logical group of servers managed by one pod manager."""

    def __init__(self, name: str, max_servers: int, max_vms: int):
        if max_servers < 1 or max_vms < 1:
            raise ValueError("pod limits must be positive")
        self.name = name
        self.max_servers = max_servers
        self.max_vms = max_vms
        self._servers: dict[str, PhysicalServer] = {}

    # -- membership (logical; knob K3 operates here) --------------------------
    def add_server(self, server: PhysicalServer) -> None:
        if server.name in self._servers:
            raise ValueError(f"{server.name} already in pod {self.name}")
        if len(self._servers) >= self.max_servers:
            raise RuntimeError(
                f"pod {self.name} at its server cap ({self.max_servers})"
            )
        server.pod = self.name
        self._servers[server.name] = server

    def remove_server(self, name: str) -> PhysicalServer:
        if name not in self._servers:
            raise KeyError(f"{name} not in pod {self.name}")
        server = self._servers.pop(name)
        server.pod = None
        return server

    def server(self, name: str) -> PhysicalServer:
        return self._servers[name]

    @property
    def servers(self) -> list[PhysicalServer]:
        return [self._servers[k] for k in sorted(self._servers)]

    @property
    def n_servers(self) -> int:
        return len(self._servers)

    # -- aggregates -----------------------------------------------------------
    @property
    def n_vms(self) -> int:
        return sum(len(s.vms) for s in self._servers.values())

    @property
    def cpu_capacity(self) -> float:
        return sum(s.spec.cpu_capacity for s in self._servers.values())

    @property
    def cpu_allocated(self) -> float:
        return sum(s.cpu_allocated for s in self._servers.values())

    @property
    def utilization(self) -> float:
        cap = self.cpu_capacity
        return self.cpu_allocated / cap if cap > 0 else 0.0

    @property
    def spare_cpu(self) -> float:
        return self.cpu_capacity - self.cpu_allocated

    @property
    def at_capacity_limit(self) -> bool:
        """True when the pod hit the paper's size caps ("whichever comes
        first") — the elephant-pod condition."""
        return self.n_servers >= self.max_servers or self.n_vms >= self.max_vms

    def apps_covered(self) -> set[str]:
        """Applications with at least one VM in this pod ("an application
        covers a pod")."""
        apps = set()
        for server in self._servers.values():
            for vm in server.vms:
                apps.add(vm.app)
        return apps

    def vms_of(self, app: str) -> list:
        out = []
        for name in sorted(self._servers):
            out.extend(self._servers[name].vms_of(app))
        return out
