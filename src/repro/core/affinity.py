"""Affinity-aware co-placement (the Section II extension).

"Websites are typically structured in a multi-tier fashion, where
client-facing application servers communicate with backend databases and
other services ...  Other research addresses co-placement of VMs that
communicate with each other; our architecture can also incorporate these
ideas."

The incorporation point is the *logical pod*: tiers of one website are
bootstrapped into the same pods, so their backend chatter stays below the
LB fabric and inside a pod.  This module provides the measurement — how
much backend traffic crosses pod boundaries — used by experiment X3 to
quantify the benefit.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.workload.apps import AppSpec

#: Backend flow between two tiers as a share of the smaller tier's demand.
BACKEND_FACTOR = 0.5


def pod_fractions(
    pods: Mapping[str, object], app: str
) -> dict[str, float]:
    """Fraction of an app's allocated CPU living in each pod.

    *pods* maps pod name -> :class:`repro.core.pod.Pod`.
    """
    weights: dict[str, float] = {}
    for name, pod in pods.items():
        cpu = sum(vm.cpu_slice for vm in pod.vms_of(app))
        if cpu > 0:
            weights[name] = cpu
    total = sum(weights.values())
    if total <= 0:
        return {}
    return {name: w / total for name, w in weights.items()}


def colocation_probability(
    fa: Mapping[str, float], fb: Mapping[str, float]
) -> float:
    """Probability a random unit of app A and of app B share a pod."""
    return sum(fa.get(p, 0.0) * fb.get(p, 0.0) for p in set(fa) | set(fb))


def cross_pod_backend_gbps(
    groups: Mapping[str, list[AppSpec]],
    fractions: Callable[[str], Mapping[str, float]],
    t: float,
) -> tuple[float, float]:
    """(cross-pod, total) backend traffic across all affinity groups.

    Backend flow between two tiers of one group is modelled as
    ``BACKEND_FACTOR * min(D_a, D_b)`` (the smaller tier bounds the
    exchange); the cross-pod share of each flow is
    ``1 - colocation_probability``.
    """
    cross = total = 0.0
    for members in groups.values():
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                flow = BACKEND_FACTOR * min(a.traffic_gbps(t), b.traffic_gbps(t))
                if flow <= 0:
                    continue
                total += flow
                p_same = colocation_probability(
                    fractions(a.app_id), fractions(b.app_id)
                )
                cross += flow * (1.0 - p_same)
    return cross, total


def affinity_groups(apps: Iterable[AppSpec]) -> dict[str, list[AppSpec]]:
    """Group specs by their affinity group (ungrouped apps excluded)."""
    groups: dict[str, list[AppSpec]] = {}
    for app in apps:
        if app.affinity_group is not None:
            groups.setdefault(app.affinity_group, []).append(app)
    return {g: members for g, members in groups.items() if len(members) > 1}
