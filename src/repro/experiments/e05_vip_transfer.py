"""E5 — dynamic VIP transfer between LB switches (Section IV-B).

Two questions, two sub-experiments:

* **Pause probability** (session level): a VIP "cannot be blindly
  transferred ... packets of the same TCP session must arrive to the same
  RIP".  The global manager drains the VIP via selective exposure first,
  but "some clients will continue using this VIP in violation of
  time-to-live".  We run Monte-Carlo session-level trials (Poisson
  arrivals thinned by the fluid DNS share, exponential session lengths,
  real connection table) and measure the probability a clean pause occurs
  within the drain timeout, versus the TTL-violator fraction.

* **Switch balancing** (fluid level): a hotspot application saturates its
  LB switch; with K2 the global manager moves VIPs to cool switches; we
  report the peak switch utilization and final imbalance with and without
  the knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import Table
from repro.analysis.stats import max_mean_ratio
from repro.core.knobs.base import ActionLog
from repro.core.knobs.vip_transfer import TransferOutcome, VipTransfer
from repro.dns.authority import AuthoritativeDNS
from repro.dns.population import FluidDNSModel
from repro.lbswitch.conntrack import ConnectionTable
from repro.lbswitch.switch import LBSwitch
from repro.sim import Environment, RngHub


# --------------------------------------------------------- pause probability


@dataclass
class PauseTrialResult:
    paused: bool
    time_to_pause_s: float
    sessions_at_drain: int
    #: Sessions still pinned when the drain timeout expires (0 if paused) —
    #: what a forced transfer at that point would break.
    sessions_at_timeout: int = 0


def pause_trial(
    seed: int,
    violator_fraction: float,
    ttl_s: float = 30.0,
    violation_factor: float = 10.0,
    arrival_rate: float = 3.0,
    mean_session_s: float = 30.0,
    warmup_s: float = 200.0,
    timeout_s: float = 600.0,
) -> PauseTrialResult:
    """One session-level drain trial for a single VIP."""
    env = Environment()
    rng = RngHub(seed).stream("pause-trial")
    authority = AuthoritativeDNS(env, ttl_s)
    authority.configure("app", {"vip1": 1.0, "vip2": 1.0})
    fluid = FluidDNSModel(
        authority,
        violator_fraction=violator_fraction,
        violation_factor=violation_factor,
    )
    fluid.ensure_app("app")
    table = ConnectionTable()
    state = {
        "drained_at": None,
        "paused_at": None,
        "sessions_at_drain": 0,
        "next_id": 0,
    }

    def ticker():
        while True:
            yield env.timeout(5.0)
            fluid.advance(5.0)

    def arrivals():
        # Thinned Poisson: candidates at the full rate, accepted with the
        # VIP's current DNS share (x2: baseline share is 0.5).
        while True:
            gap = rng.exponential(1.0 / arrival_rate)
            yield env.timeout(float(gap))
            share = fluid.share_of("app", "vip1")
            if rng.random() < min(1.0, 2.0 * share):
                cid = state["next_id"]
                state["next_id"] += 1
                table.open(cid, "vip1", "10.0.0.1", env.now)
                env.process(session(cid))

    def session(cid):
        yield env.timeout(float(rng.exponential(mean_session_s)))
        table.close(cid)
        if (
            state["drained_at"] is not None
            and state["paused_at"] is None
            and table.is_paused("vip1")
        ):
            state["paused_at"] = env.now

    def drainer():
        yield env.timeout(warmup_s)
        state["drained_at"] = env.now
        state["sessions_at_drain"] = table.count_for_vip("vip1")
        authority.configure("app", {"vip1": 0.0, "vip2": 1.0})

    env.process(ticker())
    env.process(arrivals())
    env.process(drainer())
    env.run(until=warmup_s + timeout_s)
    paused = state["paused_at"] is not None and table.is_paused("vip1")
    t_pause = (
        state["paused_at"] - state["drained_at"] if state["paused_at"] else math.inf
    )
    return PauseTrialResult(
        paused,
        t_pause,
        state["sessions_at_drain"],
        sessions_at_timeout=0 if paused else table.count_for_vip("vip1"),
    )


# ------------------------------------------------------------ switch balance


class SwitchBalanceScenario:
    """Fluid hotspot scenario over a bank of LB switches."""

    def __init__(
        self,
        use_k2: bool,
        n_switches: int = 8,
        n_apps: int = 24,
        base_total_gbps: float = 12.0,
        hotspot_factor: float = 6.0,
        hotspot_at: float = 600.0,
        overload_threshold: float = 0.85,
        seed: int = 0,
        trace=None,
    ):
        self.use_k2 = use_k2
        self.hotspot_factor = hotspot_factor
        self.hotspot_at = hotspot_at
        self.threshold = overload_threshold
        self.env = Environment()
        self.authority = AuthoritativeDNS(self.env, 30.0)
        self.fluid = FluidDNSModel(self.authority, violator_fraction=0.1)
        self.switches = [LBSwitch(f"lb-{i}", self.env) for i in range(n_switches)]
        self.transfer = VipTransfer(
            self.env, self.authority, self.fluid, drain_timeout_s=240.0,
            log=ActionLog(trace=trace) if trace is not None else None,
        )
        self.app_demand = {
            f"app-{i:02d}": base_total_gbps / n_apps for i in range(n_apps)
        }
        self.hot_app = "app-00"
        # Two VIPs per app, packed so early switches are fuller (a
        # realistic skew for a fabric filling up over time).
        self.vip_switch: dict[str, LBSwitch] = {}
        self.app_vips: dict[str, list[str]] = {}
        si = 0
        for app in self.app_demand:
            vips = []
            for v in range(2):
                vip = f"{app}-v{v}"
                switch = self.switches[si % (n_switches // 2)]  # pack low half
                si += 1
                switch.add_vip(vip, app)
                switch.add_rip(vip, f"10.0.{si}.1")
                self.vip_switch[vip] = switch
                vips.append(vip)
            self.app_vips[app] = vips
            self.authority.configure(app, {v: 1.0 for v in vips})
            self.fluid.ensure_app(app)
        self.peak_util = 0.0
        self.settled_peak_util = 0.0  # over the final fifth of the run
        self.final_imbalance = math.nan
        self.transfers = 0
        self._in_flight: set[str] = set()
        self._settle_after = math.inf

    def demand(self, app: str, t: float) -> float:
        base = self.app_demand[app]
        if app == self.hot_app and t >= self.hotspot_at:
            return base * self.hotspot_factor
        return base

    def _apply_traffic(self, t: float):
        for sw in self.switches:
            for vip in sw.vips():
                sw.set_vip_traffic(vip, 0.0)
        for app, vips in self.app_vips.items():
            d = self.demand(app, t)
            shares = self.fluid.shares(app)
            for vip in vips:
                self.vip_switch[vip].set_vip_traffic(
                    vip, d * shares.get(vip, 0.0)
                )

    def _monitor(self):
        while True:
            self._apply_traffic(self.env.now)
            utils = [s.utilization for s in self.switches]
            if self.env.now >= self.hotspot_at:
                self.peak_util = max(self.peak_util, max(utils))
            if self.env.now >= self._settle_after:
                self.settled_peak_util = max(self.settled_peak_util, max(utils))
            yield self.env.timeout(10.0)
            self.fluid.advance(10.0)

    def _controller(self):
        while True:
            yield self.env.timeout(60.0)
            for sw in self.switches:
                if sw.utilization <= self.threshold:
                    continue
                vip = self._busiest_movable(sw)
                if vip is None:
                    continue
                target = min(
                    (s for s in self.switches if s is not sw),
                    key=lambda s: (s.utilization, s.name),
                )
                app = vip.rsplit("-v", 1)[0]
                self._in_flight.add(vip)
                self.env.process(self._do_transfer(app, vip, sw, target))

    def _busiest_movable(self, sw: LBSwitch):
        apps_in_flight = {v.rsplit("-v", 1)[0] for v in self._in_flight}
        cands = [
            v
            for v in sw.vips()
            if v not in self._in_flight
            and v.rsplit("-v", 1)[0] not in apps_in_flight
            and any(
                w > 0
                for x, w in self.authority.weights(v.rsplit("-v", 1)[0]).items()
                if x != v
            )
        ]
        if not cands:
            return None
        return max(cands, key=lambda v: sw.entry(v).traffic_gbps)

    def _do_transfer(self, app, vip, src, dst):
        try:
            result = yield from self.transfer.transfer(
                app,
                vip,
                src,
                dst,
                on_moved=lambda v, name: self.vip_switch.__setitem__(
                    v, next(s for s in self.switches if s.name == name)
                ),
            )
            if result.outcome != TransferOutcome.ABORTED:
                self.transfers += 1
        finally:
            self._in_flight.discard(vip)

    def run(self, duration_s: float = 3600.0):
        self._settle_after = duration_s * 0.8
        self.env.process(self._monitor())
        if self.use_k2:
            self.env.process(self._controller())
        self.env.run(until=duration_s)
        self._apply_traffic(self.env.now)
        self.final_imbalance = max_mean_ratio(
            [s.utilization for s in self.switches]
        )


# ------------------------------------------------------------------ results


@dataclass
class E5Result:
    pause_rows: list[tuple] = field(default_factory=list)
    balance_rows: list[tuple] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            "E5a — clean-pause probability for VIP transfer vs TTL violators",
            ["violator %", "trials", "pause prob", "median drain (s)"],
        )
        for row in self.pause_rows:
            t.add_row(*row)
        return t

    def balance_table(self) -> Table:
        t = Table(
            "E5b — LB switch balancing with dynamic VIP transfer (K2)",
            ["strategy", "peak util (incl. drain transient)", "settled peak util", "final imbalance", "transfers"],
        )
        for row in self.balance_rows:
            t.add_row(*row)
        t.add_note(
            "the exposure-first drain temporarily concentrates the hot app on "
            "its remaining VIP, so the transient peak can exceed the no-K2 peak; "
            "the settled state is what the knob optimizes"
        )
        return t


def run(
    violator_fractions: tuple[float, ...] = (0.0, 0.05, 0.2),
    trials: int = 20,
    duration_s: float = 3600.0,
) -> E5Result:
    result = E5Result()
    for vf in violator_fractions:
        outcomes = [pause_trial(seed, vf) for seed in range(trials)]
        prob = float(np.mean([o.paused for o in outcomes]))
        drains = [o.time_to_pause_s for o in outcomes if o.paused]
        median = float(np.median(drains)) if drains else math.inf
        result.pause_rows.append(
            (round(vf * 100, 1), trials, round(prob, 2), round(median, 1))
        )

    for use_k2 in (False, True):
        s = SwitchBalanceScenario(use_k2=use_k2)
        s.run(duration_s)
        result.balance_rows.append(
            (
                "with K2" if use_k2 else "no K2",
                round(s.peak_util, 3),
                round(s.settled_peak_util, 3),
                round(s.final_imbalance, 3),
                s.transfers,
            )
        )
    return result
