"""The two-LB-layer architecture (Section V-B) and the policy conflict it
resolves.

In the single-layer architecture each VIP is simultaneously bound to an
access link (by its BGP advertisement) *and* to a pod mix (by its RIP set
on the LB switch).  Selective exposure therefore steers links and pods with
the same control variable — and when the bindings are adversarial (the VIPs
on cheap/lightly-loaded links map to busy pods) no exposure weighting can
balance both.

The two-layer variant decouples them: external VIPs (demand-distribution
layer) bind only to links; every external VIP of an app maps to the same
set of private middle-layer VIPs (m-VIPs) whose RIP weights set the pod mix
independently.  The price is the extra demand-distribution switches.

Both variants reduce to small linear programs over the exposure weights,
solved exactly here with :func:`scipy.optimize.linprog`; experiment E10
reports the achievable (link imbalance, pod imbalance) pairs and the
switch-count overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.lbswitch.switch import SwitchLimits


@dataclass(frozen=True)
class VipBinding:
    """Single-layer VIP: advertised on *link*, serving pods per *pod_mix*.

    ``pod_mix`` maps pod name -> fraction of this VIP's traffic (normalized
    RIP weights aggregated by pod).
    """

    vip: str
    link: str
    pod_mix: Mapping[str, float]


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of one exposure optimization."""

    max_link_utilization: float
    max_pod_utilization: float
    weights: dict[str, float]

    @property
    def worst(self) -> float:
        return max(self.max_link_utilization, self.max_pod_utilization)


class TwoLayerFabric:
    """Evaluator comparing single-layer vs two-layer load balancing."""

    def __init__(
        self,
        link_capacity_gbps: Mapping[str, float],
        pod_capacity_gbps: Mapping[str, float],
    ):
        if not link_capacity_gbps or not pod_capacity_gbps:
            raise ValueError("need at least one link and one pod")
        self.links = dict(link_capacity_gbps)
        self.pods = dict(pod_capacity_gbps)

    # -- single layer ---------------------------------------------------------
    def solve_single_layer(
        self, bindings: Sequence[VipBinding], demand_gbps: float
    ) -> BalanceResult:
        """Best achievable balance when one weight vector drives both
        links and pods.

        LP: minimize t subject to
        ``sum_v w_v*[v on link l] * D / cap_l <= t`` for every link,
        ``sum_v w_v*mix_v(p) * D / cap_p <= t`` for every pod,
        ``sum w = 1, w >= 0``.
        """
        from scipy.optimize import linprog

        if demand_gbps < 0:
            raise ValueError("demand must be non-negative")
        links = sorted(self.links)
        pods = sorted(self.pods)
        n = len(bindings)
        if n == 0:
            raise ValueError("need at least one VIP binding")
        # Variables: w_0..w_{n-1}, t.
        n_rows = len(links) + len(pods)
        a_ub = np.zeros((n_rows, n + 1))
        for i, link in enumerate(links):
            for j, b in enumerate(bindings):
                if b.link == link:
                    a_ub[i, j] = demand_gbps / self.links[link]
            a_ub[i, n] = -1.0
        for i, pod in enumerate(pods):
            row = len(links) + i
            for j, b in enumerate(bindings):
                a_ub[row, j] = (
                    b.pod_mix.get(pod, 0.0) * demand_gbps / self.pods[pod]
                )
            a_ub[row, n] = -1.0
        b_ub = np.zeros(n_rows)
        a_eq = np.zeros((1, n + 1))
        a_eq[0, :n] = 1.0
        b_eq = np.array([1.0])
        c = np.zeros(n + 1)
        c[n] = 1.0
        bounds = [(0, None)] * n + [(0, None)]
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds)
        if not res.success:  # pragma: no cover - LP is always feasible
            raise RuntimeError(f"single-layer LP failed: {res.message}")
        t_star = float(res.x[n])
        # Phase 2 (lexicographic): among min-max optima, minimize the worst
        # *link* utilization so reported numbers are the tightest achievable.
        a_ub2 = np.zeros((n_rows, n + 1))
        a_ub2[:, :n] = a_ub[:, :n]
        a_ub2[: len(links), n] = -1.0  # links bounded by new variable t2
        b_ub2 = np.concatenate(
            [np.zeros(len(links)), np.full(len(pods), t_star + 1e-9)]
        )
        c2 = np.zeros(n + 1)
        c2[n] = 1.0
        res2 = linprog(
            c2, A_ub=a_ub2, b_ub=b_ub2, A_eq=a_eq, b_eq=b_eq, bounds=bounds
        )
        w = res2.x[:n] if res2.success else res.x[:n]
        weights = {b.vip: float(w[j]) for j, b in enumerate(bindings)}
        return BalanceResult(
            max_link_utilization=self._link_util(bindings, w, demand_gbps),
            max_pod_utilization=self._pod_util(bindings, w, demand_gbps),
            weights=weights,
        )

    def _link_util(self, bindings, w, demand) -> float:
        loads = {l: 0.0 for l in self.links}
        for j, b in enumerate(bindings):
            loads[b.link] += w[j] * demand
        return max(loads[l] / self.links[l] for l in self.links)

    def _pod_util(self, bindings, w, demand) -> float:
        loads = {p: 0.0 for p in self.pods}
        for j, b in enumerate(bindings):
            for p, frac in b.pod_mix.items():
                loads[p] += w[j] * demand * frac
        return max(loads[p] / self.pods[p] for p in self.pods)

    # -- two layers -------------------------------------------------------------
    def solve_two_layer(
        self, vip_links: Mapping[str, str], demand_gbps: float
    ) -> BalanceResult:
        """Best achievable balance when links and pods decouple.

        Link side: weight external VIPs to spread load over links
        (optimum: proportional to link capacity among represented links).
        Pod side: m-VIP RIP weights spread load proportional to pod
        capacity — always achievable, independent of the link choice.
        """
        if not vip_links:
            raise ValueError("need at least one external VIP")
        links_used = sorted(set(vip_links.values()))
        cap_used = sum(self.links[l] for l in links_used)
        # Proportional-to-capacity is optimal for the min-max LP on links.
        link_weight = {l: self.links[l] / cap_used for l in links_used}
        per_link_vips: dict[str, list[str]] = {}
        for vip, link in vip_links.items():
            per_link_vips.setdefault(link, []).append(vip)
        weights = {
            vip: link_weight[link] / len(per_link_vips[link])
            for vip, link in vip_links.items()
        }
        max_link = max(
            link_weight[l] * demand_gbps / self.links[l] for l in links_used
        )
        total_pod_cap = sum(self.pods.values())
        max_pod = demand_gbps / total_pod_cap  # proportional split
        return BalanceResult(
            max_link_utilization=max_link,
            max_pod_utilization=max_pod,
            weights=weights,
        )

    # -- cost --------------------------------------------------------------------
    @staticmethod
    def switch_overhead(
        n_apps: int,
        external_vips_per_app: float,
        m_vips_per_app: float,
        rips_per_app: float,
        limits: SwitchLimits = SwitchLimits(),
    ) -> dict[str, float]:
        """Extra switches the demand-distribution layer costs.

        Single layer: ``max(A*k/Vmax, A*r/Rmax)`` switches.
        Two layer: demand layer ``A*k/Vmax`` (VIP-bound, RIPs are m-VIPs so
        also ``A*m/Rmax``) plus LB layer ``max(A*m/Vmax, A*r/Rmax)``.
        """
        single = max(
            math.ceil(n_apps * external_vips_per_app / limits.max_vips),
            math.ceil(n_apps * rips_per_app / limits.max_rips),
        )
        demand_layer = max(
            math.ceil(n_apps * external_vips_per_app / limits.max_vips),
            math.ceil(n_apps * m_vips_per_app / limits.max_rips),
        )
        lb_layer = max(
            math.ceil(n_apps * m_vips_per_app / limits.max_vips),
            math.ceil(n_apps * rips_per_app / limits.max_rips),
        )
        two = demand_layer + lb_layer
        return {
            "single_layer_switches": single,
            "two_layer_switches": two,
            "demand_layer_switches": demand_layer,
            "lb_layer_switches": lb_layer,
            "overhead_ratio": two / single if single else math.inf,
        }
