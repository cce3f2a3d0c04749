"""The datacenter-scale global manager (Sections III-A, III-C, IV).

Three jobs, straight from the paper:

1. top level of the hierarchical resource management — relieve overloaded
   pods (knobs K6 -> K5 -> K4 -> K3, cheapest first) and avoid elephant
   pods;
2. manage datacenter-scale resources — access links (K1) and LB switches
   (K2);
3. host the VIP/RIP manager (built separately in
   :mod:`repro.core.viprip`; the facade wires it in where the full
   serialized path is exercised).

``react(reports, t)`` is called once per control epoch with the pod
managers' reports; every decision is written to the shared action log.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Optional

from repro.core.config import PlatformConfig
from repro.core.knobs.base import ActionLog
from repro.core.knobs.deployment import AppDeployment
from repro.core.knobs.exposure import SelectiveVipExposure
from repro.core.knobs.ladder import KnobLadder
from repro.core.knobs.rip_weights import RipWeightAdjustment
from repro.core.knobs.server_transfer import ServerTransfer
from repro.core.knobs.vip_transfer import VipTransfer
from repro.core.knobs.vm_capacity import VmCapacityAdjustment
from repro.core.pod_manager import PodManager, PodReport
from repro.core.state import PlatformState
from repro.dns.authority import AuthoritativeDNS
from repro.dns.policy import ExposurePolicy, InverseUtilizationPolicy
from repro.dns.population import FluidDNSModel
from repro.hosts.vm import VM
from repro.lbswitch.addresses import AddressPool
from repro.lbswitch.switch import landing_target
from repro.workload.apps import AppSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: K1 re-weights at most this many apps per overloaded link (or, with
#: proactive exposure, per epoch).
MAX_K1_APPS_PER_EPOCH = 20


class GlobalManager:
    """Epoch-driven datacenter-wide controller."""

    def __init__(
        self,
        env: "Environment",
        config: PlatformConfig,
        state: PlatformState,
        authority: AuthoritativeDNS,
        fluid_dns: FluidDNSModel,
        pod_managers: Mapping[str, PodManager],
        specs: Mapping[str, AppSpec],
        rip_pool: AddressPool,
        exposure_policy: Optional[ExposurePolicy] = None,
        wire_rip=None,
        unwire_rip=None,
        record_weights=None,
        proactive_exposure: bool = False,
        trace=None,
    ):
        self.env = env
        self.config = config
        self.state = state
        self.authority = authority
        self.fluid_dns = fluid_dns
        self.pod_managers = dict(pod_managers)
        self.specs = dict(specs)
        self.log = ActionLog(trace=trace)
        self.ladder = KnobLadder()
        #: With proactive exposure, K1 re-weights the busiest apps every
        #: epoch (business-cost steering, Section IV-A), not only when a
        #: link overloads.
        self.proactive_exposure = proactive_exposure
        # Callbacks into the facade for RIP wiring after K4 actions, and
        # for recording K6's weights with the control plane.
        self._wire_rip = wire_rip
        self._unwire_rip = unwire_rip

        self.exposure = SelectiveVipExposure(
            env,
            authority,
            policy=exposure_policy or InverseUtilizationPolicy(),
            log=self.log,
        )
        self.vip_transfer = VipTransfer(
            env,
            authority,
            fluid_dns,
            log=self.log,
            reconfig_s=config.switch_reconfig_s,
            drain_epsilon=config.drain_epsilon,
            drain_timeout_s=config.drain_timeout_s,
        )
        self.server_transfer = ServerTransfer(
            env, log=self.log, donor_threshold=config.donor_threshold
        )
        self.deployment = AppDeployment(env, rip_pool, log=self.log)
        self.vm_capacity = VmCapacityAdjustment(
            env, log=self.log, adjust_latency_s=config.slice_adjust_s
        )
        self.rip_weights = RipWeightAdjustment(
            env, log=self.log, reconfig_s=config.switch_reconfig_s,
            record=record_weights,
        )

        self._overload_streak: dict[str, int] = {}
        self._vips_in_transfer: set[str] = set()
        self._pods_in_action: set[str] = set()
        self._last_k2: dict[str, float] = {}
        #: Minimum time between K2 transfers initiated from one switch —
        #: a transfer needs several TTLs to take effect; reacting faster
        #: than that just thrashes.
        self.k2_cooldown_s = 5 * config.epoch_s

    @property
    def vips_in_transfer(self) -> frozenset[str]:
        """VIPs currently mid-K2-transfer (legitimately off both switch
        tables) — consumers like the anti-entropy reconciler must not
        treat them as drift."""
        return frozenset(self._vips_in_transfer)

    # ------------------------------------------------------------------ API
    def react(self, reports: list[PodReport], t: float) -> None:
        """One control pass: links, switches, pods, elephants."""
        self._balance_access_links()
        self._balance_switches()
        self._relieve_pods(reports)
        self._avoid_elephants()

    # -- 1. access links (K1) ------------------------------------------------
    def _balance_access_links(self) -> None:
        if self.proactive_exposure:
            apps = sorted(
                self.state.app_vips,
                key=lambda a: -sum(
                    self.state.vip_traffic.get(v, 0.0)
                    for v in self.state.app_vips[a]
                ),
            )[:MAX_K1_APPS_PER_EPOCH]
        else:
            overloaded = self.state.internet.overloaded(self.config.overload_threshold)
            apps = []
            for link in overloaded:
                apps.extend(self.state.apps_on_link(link.name)[:MAX_K1_APPS_PER_EPOCH])
        for app in apps:
            vip_links = self.state.vip_links_of(app)
            if len(set(i.name for i in vip_links.values())) < 2:
                continue  # nowhere to steer
            # Only expose VIPs that can actually serve (switch up, link
            # up, RIPs present).
            serving = {
                v: l for v, l in vip_links.items() if self.state.vip_serving(v)
            }
            if len(serving) >= 2:
                self.exposure.rebalance_app(app, serving)

    # -- 2. LB switches (K2) -----------------------------------------------------
    def _balance_switches(self) -> None:
        switches = sorted(self.state.switches.values(), key=lambda s: s.name)
        for sw in switches:
            if not self.state.switch_is_up(sw.name):
                continue
            if sw.utilization <= self.config.overload_threshold:
                continue
            if self.env.now - self._last_k2.get(sw.name, -1e18) < self.k2_cooldown_s:
                continue
            vip = self._busiest_movable_vip(sw)
            if vip is None:
                continue
            target = landing_target(
                self.state.switches, self.state.switch_is_up, exclude={sw.name}
            )
            if target is None:
                continue
            vip_gbps = self.state.vip_traffic.get(vip, 0.0)
            headroom = target.limits.throughput_gbps * self.config.overload_threshold - target.traffic_gbps
            if vip_gbps > headroom:
                continue
            app = self.state.vips[vip].app
            self._vips_in_transfer.add(vip)
            self._last_k2[sw.name] = self.env.now
            self.env.process(self._do_transfer(app, vip, sw, target))

    def _do_transfer(self, app, vip, src, dst):
        try:
            yield from self.vip_transfer.transfer(
                app,
                vip,
                src,
                dst,
                on_moved=lambda v, sw_name: self.state.move_vip(v, sw_name),
            )
        finally:
            self._vips_in_transfer.discard(vip)

    def _busiest_movable_vip(self, switch) -> Optional[str]:
        best, best_traffic = None, 0.0
        apps_in_transfer = {
            self.state.vips[v].app for v in self._vips_in_transfer
        }
        for vip in switch.vips():
            if vip in self._vips_in_transfer:
                continue
            app = self.state.vips[vip].app
            if app in apps_in_transfer:
                continue
            exposed = [
                v
                for v, w in self.authority.weights(app).items()
                if w > 0 and v != vip
            ]
            if not exposed:
                continue  # draining it would black-hole the app
            traffic = self.state.vip_traffic.get(vip, 0.0)
            if traffic > best_traffic:
                best, best_traffic = vip, traffic
        return best

    # -- 3. pod relief ladder (K6/K5/K4/K3) -----------------------------------------
    def _relieve_pods(self, reports: list[PodReport]) -> None:
        for report in reports:
            name = report.pod
            overloaded = (
                report.overloaded
                or report.utilization > self.config.overload_threshold
            )
            if not overloaded:
                self._overload_streak[name] = 0
                continue
            streak = self._overload_streak.get(name, 0)
            self._overload_streak[name] = streak + 1
            if name in self._pods_in_action:
                continue
            knob = self.ladder.next_knob(streak)
            handler = {
                "K6": self._relieve_with_weights,
                "K5": self._relieve_with_slices,
                "K4": self._relieve_with_deployment,
                "K3": self._relieve_with_servers,
            }[knob]
            handler(self.pod_managers[name], report)

    def _relieve_with_weights(self, manager: PodManager, report: PodReport) -> None:
        """K6: re-target multi-pod VIPs of this pod's hottest apps so each
        covering pod's share is proportional to what it can actually serve
        (its spare CPU plus what it already serves of the app)."""
        pod = manager.pod
        apps = sorted(
            pod.apps_covered(),
            key=lambda a: (-sum(vm.cpu_slice for vm in pod.vms_of(a)), a),
        )
        for app in apps[:3]:
            for vip in self.state.app_vips.get(app, []):
                switch = self.state.switch_of_vip(vip)
                if not switch.has_vip(vip):
                    continue  # mid-K2-transfer
                entry = switch.entry(vip)
                rip_pod = {r: self.state.pod_of_rip(r) for r in entry.rips}
                covering = sorted({p for p in rip_pod.values() if p is not None})
                if len(covering) < 2 or pod.name not in covering:
                    continue
                capacity = {}
                for p in covering:
                    p_pod = self.pod_managers[p].pod
                    app_usage = sum(vm.cpu_slice for vm in p_pod.vms_of(app))
                    capacity[p] = max(p_pod.spare_cpu, 0.0) + app_usage + 1e-6
                total = sum(capacity.values())
                rips_in = {
                    p: [r for r, rp in rip_pod.items() if rp == p] for p in covering
                }
                new_weights = {}
                for p in covering:
                    share = capacity[p] / total
                    for r in rips_in[p]:
                        new_weights[r] = share / len(rips_in[p])
                self.env.process(
                    self.rip_weights.set_weights(switch, vip, new_weights)
                )

    def _relieve_with_slices(self, manager: PodManager, report: PodReport) -> None:
        """K5: re-slice the pod's busiest server toward current demand."""
        servers = manager.pod.servers
        if not servers:
            return
        busiest = max(servers, key=lambda s: (s.cpu_allocated, s.name))
        demand = {vm.app: vm.cpu_slice for vm in busiest.vms}
        if not demand:
            return
        self.env.process(self.vm_capacity.apply(busiest, demand))

    def _relieve_with_deployment(self, manager: PodManager, report: PodReport) -> None:
        """K4: replicate the pod's hottest app into the coolest other pod."""
        pod = manager.pod
        apps = pod.apps_covered()
        if not apps:
            return
        hottest = max(
            sorted(apps),
            key=lambda a: sum(vm.cpu_slice for vm in pod.vms_of(a)),
        )
        targets = [
            m
            for n, m in self.pod_managers.items()
            if n != pod.name and not m.pod.at_capacity_limit
        ]
        if not targets:
            return
        target = min(targets, key=lambda m: (m.pod.utilization, m.pod.name))
        self._pods_in_action.add(pod.name)
        self.env.process(self._do_deploy(hottest, target, pod.name))

    def _do_deploy(self, app: str, target: PodManager, source_pod: str):
        try:
            vm = yield from self.deployment.replicate(
                self.specs[app], target.pod, on_start=self._wire_rip
            )
        finally:
            self._pods_in_action.discard(source_pod)

    def _relieve_with_servers(self, manager: PodManager, report: PodReport) -> None:
        """K3: pull servers from a donor pod."""
        self.relieve_capacity_loss(manager, report)

    def relieve_capacity_loss(self, manager: PodManager, report: PodReport):
        """Start a K3 server transfer covering *report*'s deficit.

        Also the spill path after a server crash: when in-pod re-placement
        leaves demand unsatisfied, the facade calls this directly instead
        of waiting for the next epoch's overload streak.  Returns the
        transfer :class:`~repro.sim.process.Process` (or ``None`` when no
        pod can donate) so recovery flows can wait on its completion.
        """
        donor = self.server_transfer.pick_donor(
            list(self.pod_managers.values()), exclude=[manager.pod.name]
        )
        if donor is None:
            return None
        deficit_cpu = max(0.0, report.demand_cpu - report.satisfied_cpu)
        n = max(1, math.ceil(deficit_cpu / max(self.config.server_cpu, 1e-9)))
        self._pods_in_action.add(manager.pod.name)
        return self.env.process(self._do_server_transfer(donor, manager, n))

    def _do_server_transfer(self, donor: PodManager, recipient: PodManager, n: int):
        try:
            yield from self.server_transfer.execute(donor, recipient, n)
        finally:
            self._pods_in_action.discard(recipient.pod.name)

    # -- 4. elephant avoidance ------------------------------------------------------
    def _avoid_elephants(self) -> None:
        for name, manager in self.pod_managers.items():
            pod = manager.pod
            if not pod.at_capacity_limit:
                continue
            targets = [
                m
                for n, m in self.pod_managers.items()
                if n != name and not m.pod.at_capacity_limit
            ]
            if not targets:
                continue
            target = min(targets, key=lambda m: (m.pod.n_vms, m.pod.name))
            shed = max(1, pod.n_servers // 10)
            self.env.process(
                self.server_transfer.relieve_elephant(manager, target, shed)
            )
