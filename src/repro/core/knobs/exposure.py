"""Knob K1: selective VIP exposure — and the naive BGP baseline it replaces.

Selective exposure: the global manager reconfigures the platform DNS to
answer queries with the VIPs advertised over lightly-loaded access links.
Zero route updates; clients shift over ~one TTL.

The naive alternative ("VIP transfer between access links"): advertise the
VIP at the new access router, pad the AS path at the old one, wait for
connections through the old route to drain, then withdraw — three route
updates per moved VIP and relief gated on BGP convergence.

Both are implemented so experiment E4 can compare time-to-relief and route
churn directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.core.knobs.base import ActionLog
from repro.dns.authority import AuthoritativeDNS
from repro.dns.policy import ExposurePolicy, InverseUtilizationPolicy
from repro.network.bgp import BGPAnnouncer
from repro.network.links import AccessLink

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Old-route traffic (Gbps) at or below which a naive move counts as drained.
DRAINED_THRESHOLD_GBPS = 1e-3


class SelectiveVipExposure:
    """K1: steer client demand among an app's VIPs via DNS weights."""

    def __init__(
        self,
        env: "Environment",
        authority: AuthoritativeDNS,
        policy: Optional[ExposurePolicy] = None,
        log: Optional[ActionLog] = None,
        damping: float = 0.5,
    ):
        if not 0 <= damping < 1:
            raise ValueError("damping must be in [0, 1)")
        self.env = env
        self.authority = authority
        self.policy = policy if policy is not None else InverseUtilizationPolicy()
        self.log = log if log is not None else ActionLog()
        self.damping = damping

    def rebalance_app(self, app: str, vip_links: Mapping[str, AccessLink]) -> dict[str, float]:
        """Recompute and install exposure weights for one application.

        Instantaneous at the authority; zero route updates.  New weights
        are blended with the current ones by ``damping`` (weight on the old
        vector) so repeated reactions converge instead of oscillating —
        client-side TTL lag already delays the effect of each change, so an
        undamped controller overshoots.  Returns the new weights.
        """
        target = self.policy.weights(vip_links)
        current = self.authority.weights(app)
        cur_total = sum(current.values())
        tgt_total = sum(target.values())
        weights = {}
        for vip in vip_links:
            old = current.get(vip, 0.0) / cur_total if cur_total > 0 else 0.0
            new = target.get(vip, 0.0) / tgt_total if tgt_total > 0 else 0.0
            weights[vip] = self.damping * old + (1 - self.damping) * new
        if all(w == 0 for w in weights.values()):
            weights = {vip: 1.0 for vip in vip_links}
        self.authority.configure(app, weights)
        self.log.record(
            self.env.now,
            "K1",
            "expose",
            app=app,
            weights={v: round(w, 4) for v, w in weights.items()},
        )
        return weights


class NaiveReadvertisement:
    """The baseline K1 replaces: move traffic by BGP route updates."""

    def __init__(
        self,
        env: "Environment",
        bgp: BGPAnnouncer,
        log: Optional[ActionLog] = None,
        drain_poll_s: float = 10.0,
        drain_timeout_s: float = 600.0,
    ):
        self.env = env
        self.bgp = bgp
        self.log = log if log is not None else ActionLog()
        self.drain_poll_s = drain_poll_s
        self.drain_timeout_s = drain_timeout_s

    def transfer_vip(
        self,
        vip: str,
        from_link: str,
        to_link: str,
        old_route_traffic_gbps: Callable[[], float],
    ):
        """Move *vip*'s route: advertise new, pad old, drain, withdraw old.

        Simulation process.  Costs three route updates and finishes only
        after BGP convergence plus the connection drain.
        """
        started = self.env.now
        # Advertise the new route and deprioritise the old one.
        yield from self.bgp.advertise(vip, to_link)
        yield from self.bgp.pad(vip, from_link)
        # "only withdraw them once no new connections come through the old
        # routers" — wait for the old route's traffic to die out.
        deadline = started + self.drain_timeout_s
        while (
            old_route_traffic_gbps() > DRAINED_THRESHOLD_GBPS
            and self.env.now < deadline
        ):
            yield self.env.timeout(self.drain_poll_s)
        yield from self.bgp.withdraw(vip, from_link)
        self.log.record(
            self.env.now,
            "naive-bgp",
            "readvertise",
            vip=vip,
            frm=from_link,
            to=to_link,
            duration_s=self.env.now - started,
            route_updates=3,
        )
