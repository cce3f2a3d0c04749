"""Knob K6: RIP weight adjustment (Section IV-F).

Two modes, matching the paper:

* **inter-pod** (global manager): for a VIP covering multiple pods,
  reweight its RIPs to shift load between pods.
* **intra-pod** (pod manager, *via* the global manager): reweight RIPs
  within one pod, with the hard invariant that the pod's total weight on
  the VIP is unchanged — "the total weight of the RIPs in the pod remains
  the same and therefore the load on other pods is not affected".

Changes take one switch reconfiguration (~seconds): the most agile knob.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.core.knobs.base import ActionLog
from repro.lbswitch.switch import LBSwitch

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: How far an intra-pod reweighting may move the pod's weight total.
WEIGHT_TOTAL_TOLERANCE = 1e-9


class RipWeightAdjustment:
    """K6 executor."""

    def __init__(
        self,
        env: "Environment",
        log: Optional[ActionLog] = None,
        reconfig_s: float = 3.0,
        record: Optional[Callable[[str, str, Mapping[str, float]], None]] = None,
    ):
        self.env = env
        self.log = log if log is not None else ActionLog()
        self.reconfig_s = reconfig_s
        #: ``(app, vip, weights)``: the control plane records weights it
        #: repairs tables back to (see ``ShardedControlPlane.record_weights``).
        self.record = record

    def _apply(self, switch: LBSwitch, vip: str, weights: Mapping[str, float]) -> None:
        for rip, w in weights.items():
            switch.set_rip_weight(vip, rip, w)
        if self.record is not None:
            self.record(switch.entry(vip).app, vip, weights)

    def set_weights(self, switch: LBSwitch, vip: str, weights: Mapping[str, float]):
        """Simulation process: inter-pod reweighting of a VIP's RIPs.

        *weights* may cover a subset of the VIP's RIPs; others keep their
        current weight.
        """
        entry = switch.entry(vip)
        unknown = set(weights) - set(entry.rips)
        if unknown:
            raise KeyError(f"{vip}: unknown RIPs {sorted(unknown)}")
        yield self.env.timeout(self.reconfig_s)
        self._apply(switch, vip, weights)
        self.log.record(
            self.env.now,
            "K6",
            "set-weights",
            vip=vip,
            switch=switch.name,
            weights={r: round(w, 4) for r, w in weights.items()},
        )

    def intra_pod_rebalance(
        self,
        switch: LBSwitch,
        vip: str,
        pod_of_rip: Callable[[str], Optional[str]],
        pod: str,
        new_weights: Mapping[str, float],
    ):
        """Simulation process: reweight the RIPs of *vip* that live in
        *pod*, enforcing weight-total conservation.

        Raises ``ValueError`` if the new weights change the pod's total
        (which would shift load onto other pods).
        """
        entry = switch.entry(vip)
        pod_rips = {r for r in entry.rips if pod_of_rip(r) == pod}
        if set(new_weights) != pod_rips:
            raise ValueError(
                f"{vip}: intra-pod adjustment must cover exactly the pod's RIPs "
                f"(expected {sorted(pod_rips)}, got {sorted(new_weights)})"
            )
        old_total = sum(entry.rips[r] for r in pod_rips)
        new_total = sum(new_weights.values())
        if abs(new_total - old_total) > WEIGHT_TOTAL_TOLERANCE:
            raise ValueError(
                f"{vip}: pod {pod} weight total changed "
                f"({old_total:.6f} -> {new_total:.6f}); other pods would be affected"
            )
        yield self.env.timeout(self.reconfig_s)
        self._apply(switch, vip, new_weights)
        self.log.record(
            self.env.now,
            "K6",
            "intra-pod",
            vip=vip,
            pod=pod,
            weights={r: round(w, 4) for r, w in new_weights.items()},
        )

    @staticmethod
    def pod_shares(
        switch: LBSwitch, vip: str, pod_of_rip: Callable[[str], Optional[str]]
    ) -> dict[str, float]:
        """Current share of the VIP's traffic each pod receives."""
        entry = switch.entry(vip)
        shares: dict[str, float] = {}
        for rip, share in entry.normalized_weights().items():
            pod = pod_of_rip(rip)
            if pod is not None:
                shares[pod] = shares.get(pod, 0.0) + share
        return shares
