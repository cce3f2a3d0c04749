"""Online cross-subsystem invariant auditing.

The :class:`InvariantAuditor` subscribes to a :class:`~repro.obs.trace.TraceBus`
and checks, while a run is in flight, the properties the paper's control
loops are supposed to preserve but no single subsystem can see on its own:

* ``journal-monotonic`` — VIP/RIP write-ahead journal epochs strictly
  increase (from ``journal.commit`` events).
* ``k3-conservation`` — a K3 server vacate never loses VMs: the pod's VM
  count after equals the count before minus the VMs deliberately stopped
  (from ``k3.vacate`` events).
* ``vip-single-home`` — a VIP is installed on at most one LB switch.
* ``vip-single-route`` — a VIP is advertised on at most one access link
  (the K1 property).
* ``rip-single-home`` — a RIP appears in at most one (switch, VIP) entry.
* ``rip-pod`` — every registered RIP resolves to exactly one pod through
  its VM's host server.
* ``pod-caps`` — pod server/VM counts stay within the configured caps.
* ``server-caps`` — per-server CPU/memory stay within capacity.
* ``switch-caps`` — per-switch VIP/RIP table sizes stay within limits.

The structural sweeps run at every ``epoch.end`` (quiescent points — K2
transfers have a legitimate transient where a VIP is advertised nowhere
mid-cutover, which is why the ≤1 checks are scheduled at epoch
boundaries rather than on every event).  Violations are recorded as
structured :class:`Violation` records; ``strict=True`` raises
:class:`InvariantViolation` at the first one instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import TraceBus, TraceEvent

_EPS = 1e-6
#: Relative slack for ``mega-cpu`` and ``mega-demand``: the waterfill's
#: float sums may land a few ulps past a server's capacity or a pod's
#: share of an app's demand (bench/worker.py's ``cpu_capacity`` and
#: ``satisfied_le_demand`` checks allow the same).
_REL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach."""

    t: float
    invariant: str
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[t={self.t:.1f}] {self.invariant}: {self.detail}"


class InvariantViolation(AssertionError):
    """Raised in strict mode; carries the structured violation."""

    def __init__(self, violation: Violation):
        super().__init__(str(violation))
        self.violation = violation


class InvariantAuditor:
    """Checks cross-subsystem invariants online from trace events.

    Parameters
    ----------
    dc:
        The :class:`MegaDataCenter` under audit; needed for the
        structural sweeps (state registries, switch tables, BGP RIB).
        Event-only checks (journal monotonicity, K3 conservation) work
        without it.
    strict:
        Raise :class:`InvariantViolation` at the first breach instead of
        accumulating.
    """

    def __init__(self, dc=None, strict: bool = False, columnar=None):
        self.dc = dc
        #: Optional :class:`~repro.core.mega.MegaScaleDriver` under audit;
        #: epoch-end sweeps then check the columnar structural invariants
        #: (CSR well-formedness, memory headroom, alive-cover accounting,
        #: RIP-mirror row validity) with or without an object-model dc.
        self.columnar = columnar
        self.strict = strict
        self.violations: list[Violation] = []
        self.events_seen = 0
        self.audits_run = 0
        #: Highest epoch seen per journal (keyed by the ``shard`` field of
        #: ``journal.commit``; the single-journal manager emits no shard
        #: field and lands under ``""``).  Epochs are monotonic *per
        #: journal* — shards mint epochs independently.
        self._last_journal_epoch: dict[str, int] = {}
        self._bus: Optional["TraceBus"] = None

    # -- lifecycle ----------------------------------------------------------
    def attach(self, bus: "TraceBus") -> "InvariantAuditor":
        bus.subscribe(self.on_event)
        self._bus = bus
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self.on_event)
            self._bus = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def _flag(self, t: float, invariant: str, **detail) -> None:
        v = Violation(t=float(t), invariant=invariant, detail=detail)
        self.violations.append(v)
        if self.strict:
            raise InvariantViolation(v)

    # -- event hooks --------------------------------------------------------
    def on_event(self, ev: "TraceEvent") -> None:
        self.events_seen += 1
        if ev.kind == "journal.commit":
            self._check_journal(ev)
        elif ev.kind == "k3.vacate":
            self._check_k3_conservation(ev)
        elif ev.kind == "dataplane.steer":
            self._check_steer_balance(ev)
        elif ev.kind == "epoch.end":
            self.audit_now(ev.t)

    def _check_journal(self, ev: "TraceEvent") -> None:
        epoch = ev.data.get("epoch")
        if epoch is None:
            return
        journal = ev.data.get("shard", "")
        previous = self._last_journal_epoch.get(journal)
        if previous is not None and epoch <= previous:
            self._flag(
                ev.t, "journal-monotonic",
                epoch=epoch, previous=previous,
                **({"shard": journal} if journal else {}),
            )
        self._last_journal_epoch[journal] = epoch

    def _check_k3_conservation(self, ev: "TraceEvent") -> None:
        d = ev.data
        before, after, stopped = (
            d.get("vms_before"), d.get("vms_after"), d.get("stopped"),
        )
        if before is None or after is None or stopped is None:
            return
        if after != before - stopped:
            self._flag(
                ev.t, "k3-conservation",
                pod=d.get("pod"), vms_before=before,
                vms_after=after, stopped=stopped,
            )

    def _check_steer_balance(self, ev: "TraceEvent") -> None:
        """Every steered request is accounted for exactly once: it either
        opened a session, was rejected at capacity, or found no serving
        RIP — and every request got a DNS answer (hit or miss)."""
        d = ev.data
        requests = d.get("requests")
        if requests is None:
            return
        served = d.get("opened", 0) + d.get("rejected", 0) + d.get("unserved", 0)
        if served != requests:
            self._flag(
                ev.t, "dataplane-balance", requests=requests,
                opened=d.get("opened"), rejected=d.get("rejected"),
                unserved=d.get("unserved"),
            )
        answered = d.get("dns_hits", 0) + d.get("dns_misses", 0)
        if answered != requests:
            self._flag(
                ev.t, "dataplane-dns-balance", requests=requests,
                dns_hits=d.get("dns_hits"), dns_misses=d.get("dns_misses"),
            )

    # -- structural sweep ---------------------------------------------------
    def audit_now(self, t: float) -> list[Violation]:
        """Run the full structural sweep against the live datacenter
        and/or the columnar mega driver.  Returns violations found by
        *this* sweep."""
        if self.dc is None and self.columnar is None:
            return []
        self.audits_run += 1
        found_from = len(self.violations)
        if self.dc is not None:
            self._audit_tables(t)
            self._audit_routes(t)
            self._audit_rip_pods(t)
            self._audit_caps(t)
        if self.columnar is not None:
            self._audit_columnar(t)
        return self.violations[found_from:]

    def _audit_columnar(self, t: float) -> None:
        """Structural invariants of the columnar mega loop.

        * ``mega-csr`` — every pod's CSR placement is well-formed and its
          load vector matches the entry count;
        * ``mega-mem`` — no server's memory is overcommitted;
        * ``mega-cpu`` — no server's summed entry load exceeds its CPU;
        * ``mega-cover`` — the per-residue alive-cover accounting matches
          the pod liveness mask (the K3 spill denominators);
        * ``mega-demand`` — no pod's load on an app exceeds the app's
          share for that pod: the driver splits demand once per epoch
          over the whole fleet and the check only gathers each pod's
          shares (skipped before the first epoch, when there are no
          shares yet);
        * ``mega-rip-row`` — every active RIP-mirror row resolves to
          known app/vip/switch ids.
        """
        import numpy as np

        driver = self.columnar
        for pod in driver.pods:
            p = pod.placement
            n_servers = pod.servers.cpu.shape[0]
            malformed = (
                p.indptr.shape[0] != n_servers + 1
                or pod.load.shape[0] != p.nnz
                or (np.diff(p.indptr) < 0).any()
            )
            if malformed:
                self._flag(
                    t, "mega-csr", pod=pod.pod,
                    servers=n_servers, nnz=int(p.nnz),
                    load_len=int(pod.load.shape[0]),
                )
            if (pod.mem_headroom() < -_EPS).any():
                self._flag(t, "mega-mem", pod=pod.pod)
            if not malformed:
                used = np.bincount(p.rows(), weights=pod.load, minlength=n_servers)
                over = int((used > pod.servers.cpu * (1 + _REL)).sum())
                if over:
                    self._flag(t, "mega-cpu", pod=pod.pod, servers_over=over)
        n_pods = driver.config.n_pods
        expected = np.bincount(
            driver._residues[driver.pod_alive].ravel(), minlength=n_pods
        )
        cover = driver._residue_alive_cover
        if not np.array_equal(cover, expected):
            bad = int((cover != expected).sum())
            self._flag(t, "mega-cover", residues_wrong=bad)
        if driver.epochs_run:
            self._audit_demand(t, driver)
        bridge = getattr(driver, "bridge", None)
        if bridge is not None:
            reg = bridge.registry
            n = reg.n_rips
            active = reg.rip_active[:n]
            if (
                (reg.rip_app[:n][active] < 0).any()
                or (reg.rip_vip[:n][active] < 0).any()
                or (reg.rip_switch[:n][active] < 0).any()
            ):
                self._flag(t, "mega-rip-row", active=int(active.sum()))
        dataplane = getattr(driver, "dataplane", None)
        if dataplane is not None:
            self._audit_conntrack(t, dataplane.conn)

    def _audit_demand(self, t: float, driver) -> None:
        """``mega-demand``: no pod's load on an app exceeds the share of
        the app's demand it was given this epoch, ``_gather(_share, p)``;
        a dead pod was given none.  An app's shares are equal across its
        alive covering pods, so an app placed past its demand in total is
        over its share on at least one pod."""
        import numpy as np

        for p, pod in enumerate(driver.pods):
            placed = np.bincount(
                pod.placement.cols(), weights=pod.load, minlength=pod.n_apps
            )
            share = driver._gather(driver._share, p)
            if not driver.pod_alive[p]:
                share[:] = 0.0
            over = placed > share * (1 + _REL)
            if over.any():
                col = int(np.argmax(placed - share))
                self._flag(
                    t, "mega-demand", pod=pod.pod, apps_over=int(over.sum()),
                    app=int(driver._pod_app_gids(p)[col]),
                    placed=float(placed[col]), share=float(share[col]),
                )

    def _audit_conntrack(self, t: float, conn) -> None:
        """``dataplane-conntrack``: the columnar conn table's per-switch
        and per-VIP counters must agree with its row-level alive mask,
        and no switch may exceed its session capacity."""
        import numpy as np

        by_switch, by_vip = conn.recount()
        rows = int(by_switch.sum())
        if not np.array_equal(by_switch, conn.switch_count):
            self._flag(
                t, "dataplane-conntrack", counter="switch_count",
                rows=rows, counted=int(conn.switch_count.sum()),
            )
        if not np.array_equal(by_vip, conn.vip_count):
            self._flag(
                t, "dataplane-conntrack", counter="vip_count",
                rows=rows, counted=int(conn.vip_count.sum()),
            )
        over = conn.switch_count > conn.switch_cap
        if over.any():
            self._flag(
                t, "dataplane-conntrack", counter="capacity",
                switches_over=int(over.sum()),
            )

    def _audit_tables(self, t: float) -> None:
        """VIPs on ≤1 switch; each RIP in ≤1 (switch, VIP) entry.

        A sharded control plane may deliberately duplicate a VIP during
        an optimistic adoption (the old owner was unreachable); those
        VIPs — reported by ``vips_in_conflict()`` — are a legitimate
        transient the anti-entropy rounds resolve, so they (and the RIPs
        under them) are excluded until then."""
        conflict_fn = getattr(getattr(self.dc, "viprip", None), "vips_in_conflict", None)
        in_conflict: set[str] = conflict_fn() if conflict_fn is not None else set()
        vip_homes: dict[str, list[str]] = {}
        rip_homes: dict[str, list[tuple[str, str]]] = {}
        for switch in self.dc.switches.values():
            for vip in switch.vips():
                if vip in in_conflict:
                    continue
                vip_homes.setdefault(vip, []).append(switch.name)
                for rip in switch.entry(vip).rips:
                    rip_homes.setdefault(rip, []).append((switch.name, vip))
        for vip, homes in vip_homes.items():
            if len(homes) > 1:
                self._flag(t, "vip-single-home", vip=vip, switches=sorted(homes))
        for rip, homes in rip_homes.items():
            if len(homes) > 1:
                self._flag(
                    t, "rip-single-home", rip=rip,
                    entries=sorted(f"{s}/{v}" for s, v in homes),
                )

    def _audit_routes(self, t: float) -> None:
        """K1: each VIP advertised on ≤1 access link (padded routes are
        intentional dilution, not real next-hops — excluded)."""
        bgp = getattr(self.dc, "bgp", None)
        if bgp is None:
            return
        for vip in bgp.all_vips():
            links = bgp.links_for(vip, include_padded=False)
            if len(links) > 1:
                self._flag(t, "vip-single-route", vip=vip, links=sorted(links))

    def _audit_rip_pods(self, t: float) -> None:
        """Every registered RIP resolves to exactly one pod via its VM's
        host server."""
        state = self.dc.state
        for rip in state.rips:
            pod = state.pod_of_rip(rip)
            if pod is None:
                self._flag(t, "rip-pod", rip=rip)

    def _audit_caps(self, t: float) -> None:
        for manager in self.dc.pod_managers.values():
            pod = manager.pod
            if pod.n_servers > pod.max_servers:
                self._flag(
                    t, "pod-caps", pod=pod.name,
                    servers=pod.n_servers, max_servers=pod.max_servers,
                )
            if pod.n_vms > pod.max_vms:
                self._flag(
                    t, "pod-caps", pod=pod.name,
                    vms=pod.n_vms, max_vms=pod.max_vms,
                )
            for server in pod.servers:
                if server.cpu_allocated > server.spec.cpu_capacity + _EPS:
                    self._flag(
                        t, "server-caps", server=server.name, resource="cpu",
                        used=round(server.cpu_allocated, 6),
                        capacity=server.spec.cpu_capacity,
                    )
                if server.mem_allocated > server.spec.mem_gb + _EPS:
                    self._flag(
                        t, "server-caps", server=server.name, resource="mem",
                        used=round(server.mem_allocated, 6),
                        capacity=server.spec.mem_gb,
                    )
        for switch in self.dc.switches.values():
            if switch.num_vips > switch.limits.max_vips:
                self._flag(
                    t, "switch-caps", switch=switch.name, resource="vips",
                    used=switch.num_vips, limit=switch.limits.max_vips,
                )
            if switch.num_rips > switch.limits.max_rips:
                self._flag(
                    t, "switch-caps", switch=switch.name, resource="rips",
                    used=switch.num_rips, limit=switch.limits.max_rips,
                )
