"""Switch selection strategies: flat scan vs. switch-pod hierarchy.

Section V-A: the global manager "must consider all the switches whenever it
allocates new or reallocates existing VIPs".  With a flat pool every
decision scans all ``L`` switches.  Should that become a bottleneck, the
paper proposes grouping LB switches into logical pods, each with its own
manager: the top level picks a pod in ``O(P)``, the pod manager scans its
``L/P`` switches.  Both strategies expose the same interface plus an
explicit *decision cost* so the VIP/RIP manager (and experiment E9) can
charge realistic service times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence

from repro.lbswitch.switch import LBSwitch


@dataclass(frozen=True)
class Selection:
    """A chosen switch and the decision cost incurred choosing it."""

    switch: Optional[LBSwitch]
    cost_s: float
    scanned: int


def _vip_score(sw: LBSwitch) -> tuple[float, float, str]:
    """Lower is better: prefer few VIPs and low throughput utilization."""
    return (sw.num_vips / sw.limits.max_vips, sw.utilization, sw.name)


def _rip_score(sw: LBSwitch) -> tuple[float, float, str]:
    return (sw.num_rips / sw.limits.max_rips, sw.utilization, sw.name)


class FlatSwitchManager:
    """Scan every switch on every decision (the baseline of Section V-A)."""

    def __init__(self, switches: Sequence[LBSwitch], scan_cost_s: float = 5e-5):
        if not switches:
            raise ValueError("need at least one switch")
        self.switches = list(switches)
        self.scan_cost_s = scan_cost_s

    def select_for_vip(self, exclude: AbstractSet[str] = frozenset()) -> Selection:
        candidates = [
            s
            for s in self.switches
            if s.vip_slots_free > 0 and s.name not in exclude
        ]
        scanned = len(self.switches)
        cost = scanned * self.scan_cost_s
        if not candidates:
            return Selection(None, cost, scanned)
        return Selection(min(candidates, key=_vip_score), cost, scanned)

    def select_for_rip(
        self,
        hosting: Sequence[LBSwitch],
        exclude: AbstractSet[str] = frozenset(),
    ) -> Selection:
        """Pick among the switches already hosting one of the app's VIPs."""
        scanned = len(self.switches)
        cost = scanned * self.scan_cost_s
        candidates = [
            s for s in hosting if s.rip_slots_free > 0 and s.name not in exclude
        ]
        if not candidates:
            return Selection(None, cost, scanned)
        return Selection(min(candidates, key=_rip_score), cost, scanned)


class SwitchPodManager:
    """Two-level hierarchy: switch pods under a thin top-level allocator."""

    def __init__(
        self,
        switches: Sequence[LBSwitch],
        pod_size: int = 50,
        scan_cost_s: float = 5e-5,
    ):
        if not switches:
            raise ValueError("need at least one switch")
        if pod_size < 1:
            raise ValueError("pod_size must be >= 1")
        self.scan_cost_s = scan_cost_s
        self.pod_size = pod_size
        self.pods: list[list[LBSwitch]] = [
            list(switches[i : i + pod_size])
            for i in range(0, len(switches), pod_size)
        ]

    @property
    def n_pods(self) -> int:
        return len(self.pods)

    def _pod_vip_headroom_healthy(
        self, pod: list[LBSwitch], exclude: AbstractSet[str]
    ) -> int:
        return sum(s.vip_slots_free for s in pod if s.name not in exclude)

    def select_for_vip(self, exclude: AbstractSet[str] = frozenset()) -> Selection:
        # Top level: O(P) using per-pod aggregates only.
        scanned = self.n_pods
        best_pod = max(
            self.pods, key=lambda p: self._pod_vip_headroom_healthy(p, exclude)
        )
        if self._pod_vip_headroom_healthy(best_pod, exclude) == 0:
            return Selection(None, scanned * self.scan_cost_s, scanned)
        # Pod level: O(L/P).
        scanned += len(best_pod)
        candidates = [
            s for s in best_pod if s.vip_slots_free > 0 and s.name not in exclude
        ]
        return Selection(
            min(candidates, key=_vip_score),
            scanned * self.scan_cost_s,
            scanned,
        )

    def select_for_rip(
        self,
        hosting: Sequence[LBSwitch],
        exclude: AbstractSet[str] = frozenset(),
    ) -> Selection:
        """RIPs must go to a switch hosting the app's VIP; only the pods
        containing those switches are consulted."""
        hosting_set = set(id(s) for s in hosting)
        scanned = self.n_pods
        candidates: list[LBSwitch] = []
        for pod in self.pods:
            if any(id(s) in hosting_set for s in pod):
                scanned += len(pod)
                candidates.extend(
                    s
                    for s in pod
                    if id(s) in hosting_set
                    and s.rip_slots_free > 0
                    and s.name not in exclude
                )
        if not candidates:
            return Selection(None, scanned * self.scan_cost_s, scanned)
        return Selection(
            min(candidates, key=_rip_score),
            scanned * self.scan_cost_s,
            scanned,
        )
