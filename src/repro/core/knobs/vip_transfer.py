"""Knob K2: dynamic VIP transfer between LB switches (Section IV-B).

Because every LB switch connects to every border router, a VIP can move
between switches with *no* external route change — but only during a
traffic pause, since ongoing TCP sessions are pinned to RIPs known only to
the original switch.  The transfer therefore:

1. uses selective exposure to stop DNS from answering with this VIP;
2. waits for the VIP's residual traffic (laggard clients violating TTL)
   to fall below a drain threshold, or gives up at a timeout and restores
   the exposure;
3. removes the entry from the source switch and installs it on the target
   (one reconfiguration each), notifying the border router;
4. restores the VIP's exposure.

The outcome records whether a clean pause was achieved — the quantity
experiment E5 studies as a function of TTL violators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.knobs.base import ActionLog
from repro.dns.authority import AuthoritativeDNS
from repro.dns.population import FluidDNSModel
from repro.lbswitch.switch import LBSwitch

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Seconds between residual-traffic checks while a VIP drains.
DRAIN_POLL_S = 5.0


class TransferOutcome(enum.Enum):
    CLEAN = "clean"  # drained fully; no session broken
    ABORTED = "aborted"  # timeout; gave up


@dataclass
class TransferResult:
    vip: str
    outcome: TransferOutcome
    duration_s: float
    residual_share: float


class VipTransfer:
    """K2 executor."""

    def __init__(
        self,
        env: "Environment",
        authority: AuthoritativeDNS,
        fluid_dns: FluidDNSModel,
        log: Optional[ActionLog] = None,
        reconfig_s: float = 3.0,
        drain_epsilon: float = 0.02,
        drain_timeout_s: float = 600.0,
    ):
        self.env = env
        self.authority = authority
        self.fluid_dns = fluid_dns
        self.log = log if log is not None else ActionLog()
        self.reconfig_s = reconfig_s
        self.drain_epsilon = drain_epsilon
        self.drain_timeout_s = drain_timeout_s

    def transfer(
        self,
        app: str,
        vip: str,
        src: LBSwitch,
        dst: LBSwitch,
        on_moved: Optional[Callable[[str, str], None]] = None,
    ):
        """Simulation process; returns a :class:`TransferResult`."""
        started = self.env.now
        old_weights = self.authority.weights(app)
        if vip not in old_weights:
            raise KeyError(f"{vip} is not a VIP of {app}")
        if not src.has_vip(vip):
            raise KeyError(f"{vip} not on switch {src.name}")

        # 1. Exposure-first drain: stop answering with this VIP.
        drained_weights = dict(old_weights)
        drained_weights[vip] = 0.0
        if all(w == 0 for w in drained_weights.values()):
            raise ValueError(f"{app}: cannot drain its only exposed VIP")
        self.authority.configure(app, drained_weights)

        # 2. Wait for laggards.
        deadline = started + self.drain_timeout_s
        while (
            self.fluid_dns.residual_share(app, vip) > self.drain_epsilon
            and self.env.now < deadline
        ):
            yield self.env.timeout(DRAIN_POLL_S)
        residual = self.fluid_dns.residual_share(app, vip)

        if residual > self.drain_epsilon:
            # Give up; restore exposure.
            self.authority.configure(app, old_weights)
            result = TransferResult(
                vip, TransferOutcome.ABORTED, self.env.now - started, residual
            )
            self.log.record(
                self.env.now, "K2", "abort", vip=vip, residual=round(residual, 4)
            )
            return result

        # 3. Move the entry: two switch reconfigurations; the border
        #    routers learn the new location, no access router involved.
        entry = src.remove_vip(vip)
        yield self.env.timeout(self.reconfig_s)
        dst.install_entry(entry)
        yield self.env.timeout(self.reconfig_s)
        if on_moved is not None:
            on_moved(vip, dst.name)

        # 4. Restore exposure.
        self.authority.configure(app, old_weights)
        result = TransferResult(
            vip, TransferOutcome.CLEAN, self.env.now - started, residual
        )
        self.log.record(
            self.env.now,
            "K2",
            "transfer",
            vip=vip,
            frm=src.name,
            to=dst.name,
            outcome=result.outcome.value,
            duration_s=round(result.duration_s, 2),
            residual=round(residual, 4),
        )
        return result
