"""Bounded-memory epoch driver for the paper's headline scale (Section I).

The paper sizes one mega data center at ~300,000 servers hosting ~300,000
applications with ~20 VM instances each (~6M VMs), split into server pods
of a few thousand servers.  Every experiment so far ran at 1/20 scale or
less because state was per-object Python records and demand was a fully
materialized matrix.  This driver composes the three mega-scale pieces:

* :class:`~repro.core.columnar.ColumnarPodState` shards — CSR placement +
  capacity columns per pod, no per-VM objects;
* :class:`~repro.workload.streaming.StreamingWorkload` — demand consumed
  in bounded app-index chunks, never materialized per-pod x per-app;
* the :class:`~repro.perf.engine.PlacementEngine` — one
  :class:`~repro.placement.sparse.SparseGreedyController` solve per alive
  pod, in-process and one pod at a time: each pod's problem is built
  just before its solve and its solution applied right after, as its
  own pod manager would (Section III-A).

Memory stays bounded by O(total VM entries + one per-app demand vector
+ one pod's working state): 12 bytes per VM (an int32 CSR column and a
float64 load), ~0.13 GB peak at full scale against the < 8 GB
acceptance target.  That state is allocation-stable: each pod's per-VM
columns are allocated before its bootstrap temporaries, and a steady
epoch copies loads into the pod's existing buffer.  A steady epoch
takes ~0.11 s at full scale on a 2-core box: a pod whose placement its
last solve kept solves the waterfill's first round in closed form,
meeting every single-instance app exactly, and runs later rounds over
its multi-instance apps alone.

Pod coverage uses an arithmetic rule: app ``i`` covers the ``cover =
min(vms_per_app, n_pods)`` pods ``(i + j) % n_pods``; its demand splits
evenly across the alive ones.  That makes per-pod app membership
``cover`` residue classes mod ``n_pods``, which is all the driver stores
of it: a pod's local column *k* is its *k*-th covered app in ascending
global id, and alive-cover counts are derived per residue, not per
app, from the pod liveness mask.  The split runs once per epoch over the
whole fleet, as demand chunks stream in, into one per-app share vector;
pods and the auditor only gather it, by one residue-column gather
(``_gather``), the one place the layout is written.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Container, Optional

import numpy as np

from repro.core.columnar import ColumnarPodState, ColumnarServers
from repro.perf.engine import PlacementEngine, PlacementTask
from repro.perf.rss import peak_rss_mb
from repro.placement.sparse import SparseGreedyController, SparsePlacement
from repro.workload.streaming import StreamingWorkload

#: Memory of every mega VM (GB); the object twin uses the same value.
VM_MEM_GB = 4.0
#: Bootstrap sizes instance counts so one instance needs at most this
#: fraction of a server's CPU.
BOOTSTRAP_FILL = 0.5
#: Shards of the wired control plane, LB switches per shard, and each
#: switch's reconfiguration time (s).
CP_SHARDS = 2
CP_SWITCHES_PER_SHARD = 2
CP_RECONFIG_S = 1.0


@dataclass
class MegaControlPlaneConfig:
    """Wiring of the sharded VIP/RIP control plane into the mega loop.

    A bounded, deterministic subset of apps (the first *wired_apps*
    global ids) gets real VIP/RIP state on a :class:`ShardedControlPlane`:
    *vips_per_app* VIPs per app and one RIP per covering pod, named
    ``{app}@{pod}`` so the columnar mirror can derive pod homing from the
    RIP name alone.  Construction wires them in one synchronous pass
    (:meth:`ShardedControlPlane.wire`), journaled like the request path
    but with no event loop, so the wired state exists at t = 0.  Pod
    faults and knobs flow through as routed ``del_rip`` / ``new_rip`` /
    ``move_vip`` submissions, and a
    :class:`~repro.controlplane.bridge.RipJournalBridge` keeps the
    columnar registry synced from the shard journals every epoch.
    """

    wired_apps: int = 32
    max_vips: int = 256
    max_rips: int = 16_384
    #: VIPs each wired app exposes (>1 makes K1 re-steers meaningful:
    #: DNS weight shifts then actually move traffic between switches).
    vips_per_app: int = 1

    def __post_init__(self):
        if self.vips_per_app < 1:
            raise ValueError(
                f"vips_per_app must be >= 1, got {self.vips_per_app}"
            )


@dataclass
class MegaSteeringConfig:
    """Traffic data plane riding on the mega loop (requires a wired
    control plane): every epoch the driver steers a seeded request stream
    through the columnar data plane against the RIP mirror.  Session
    lengths, the violator share and the violators' TTL factor are the
    defaults of :class:`~repro.workload.requests.RequestStream` and
    :class:`~repro.dataplane.steering.ColumnarDataPlane`.
    """

    requests_per_epoch: int = 200_000
    n_resolvers: int = 10_000
    chunk_requests: int = 65_536
    ttl_s: float = 120.0
    switch_max_connections: int = 1_000_000
    #: Drive K1 (DNS re-steer) + K2 (VIP re-home when paused) every this
    #: many epochs; 0 disables the automatic knob schedule.
    knob_period: int = 0
    seed: int = 1234


@dataclass
class MegaConfig:
    """Scale knobs for one mega run; defaults are the paper's Section I.

    Every VM has ``VM_MEM_GB`` of memory, demand follows
    :class:`StreamingWorkload`'s default popularity and diurnal mix, and
    each pod's solver keeps :class:`SparseGreedyController`'s own
    ``dense_limit``."""

    n_pods: int = 60
    servers_per_pod: int = 5000
    n_apps: int = 300_000
    vms_per_app: int = 20
    server_cpu: float = 32.0
    server_mem_gb: float = 256.0
    target_utilization: float = 0.55
    chunk_apps: int = 65_536
    epoch_s: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_pods, self.servers_per_pod, self.n_apps) < 1:
            raise ValueError("scale parameters must be positive")
        if not 0 < self.target_utilization < 1:
            raise ValueError("target_utilization must be in (0, 1)")
        if self.vms_per_app < 1:
            raise ValueError("vms_per_app must be positive")
        if not self.epoch_s > 0:
            raise ValueError("epoch_s must be positive")
        if self.chunk_apps < 1:
            raise ValueError("chunk_apps must be at least 1")

    @property
    def n_servers(self) -> int:
        return self.n_pods * self.servers_per_pod

    @property
    def cover(self) -> int:
        """Pods each app covers (instance count per app at bootstrap)."""
        return min(self.vms_per_app, self.n_pods)

    @property
    def total_cpu_demand(self) -> float:
        return self.target_utilization * self.n_servers * self.server_cpu

    @classmethod
    def full(cls, **over) -> "MegaConfig":
        """The paper's 300k / 300k / ~6M configuration."""
        return cls(**over)

    @classmethod
    def quick(cls, **over) -> "MegaConfig":
        """1/10 scale for CI smoke runs (still exercises the bulk sparse
        path: per-pod S x A stays above the dense delegation limit)."""
        over.setdefault("servers_per_pod", 500)
        over.setdefault("n_apps", 30_000)
        over.setdefault("chunk_apps", 8_192)
        return cls(**over)

    @classmethod
    def tiny(cls, **over) -> "MegaConfig":
        """Test scale, small enough for the dense bit-identical path."""
        over.setdefault("n_pods", 4)
        over.setdefault("servers_per_pod", 12)
        over.setdefault("n_apps", 60)
        over.setdefault("vms_per_app", 3)
        over.setdefault("server_cpu", 8.0)
        over.setdefault("server_mem_gb", 64.0)
        over.setdefault("chunk_apps", 17)
        return cls(**over)


@dataclass
class MegaEpochReport:
    """One epoch's aggregate outcome across all pods."""

    epoch: int
    t: float
    wall_s: float
    demand_cpu: float
    satisfied_cpu: float
    changes: int
    started: int
    stopped: int
    vms: int
    #: Always 0.  Kept, with ``bytes_shipped``, because the benchmark in
    #: ``bench/`` reports these fields; the engine ships every task
    #: whole, so there are no demand-only deltas to count.
    delta_tasks: int
    #: Pod solves dispatched this epoch (one per alive pod).
    full_tasks: int
    #: Always 0 (see ``delta_tasks``).
    bytes_shipped: int
    peak_rss_mb: float
    #: Demand of apps whose covering pods are ALL down — black-holed.
    dropped_cpu: float = 0.0
    #: Pods dark during this epoch.
    pods_down: int = 0
    #: Journal records the RIP bridge applied this epoch (0 when the
    #: control plane is not wired).
    rip_records: int = 0
    #: CRC fingerprint of the columnar RIP mirror after sync.
    rip_fingerprint: int = 0
    # -- traffic data plane (0 unless steering is wired) ---------------
    requests: int = 0
    dns_hits: int = 0
    dns_misses: int = 0
    conns_opened: int = 0
    conns_rejected: int = 0
    conns_closed: int = 0
    conns_dropped: int = 0
    #: Sessions still open at the end of the epoch.
    conns_alive: int = 0
    unserved: int = 0
    steer_wall_s: float = 0.0

    @property
    def satisfied_fraction(self) -> float:
        if self.demand_cpu <= 0:
            return 1.0
        return self.satisfied_cpu / self.demand_cpu


class _ServerNames:
    """``name in`` over a driver's present and crashed server names.

    A name is known only if it round-trips to the canonical
    ``pod-XXX-sNNNNNN`` of a server the driver holds, so ``pod-000-s3``
    is not ``pod-000-s000003``."""

    def __init__(self, driver: "MegaScaleDriver"):
        self._driver = driver

    def __contains__(self, name: object) -> bool:
        driver = self._driver
        if name in driver._crashed_servers:
            return True
        try:
            pod_name, sid = driver._parse_server(name)
            servers = driver.pods[driver._pod_index[pod_name]].servers
            return servers.name(servers.row_of(sid)) == name
        except (KeyError, ValueError):
            return False


class MegaScaleDriver:
    """Run placement epochs at mega scale with bounded memory.

    The driver owns one :class:`ColumnarPodState` shard per pod, one
    :class:`SparseGreedyController` per pod, a fleet-wide per-app share
    vector (``_share``) and one local demand buffer shared by every pod
    (sized to the widest).  Pod membership is each pod's ``cover``
    residue classes (``_residues``).  ``trace`` (a
    :class:`~repro.obs.trace.TraceBus`) gets ``mega.chunk`` events as
    demand chunks are scattered and a ``mega.epoch`` summary per epoch.
    """

    def __init__(
        self,
        config: MegaConfig,
        trace=None,
        control_plane: Optional[MegaControlPlaneConfig] = None,
        steering: Optional[MegaSteeringConfig] = None,
    ):
        self.config = config
        self.trace = trace
        self.workload = StreamingWorkload(
            n_apps=config.n_apps,
            total_gbps=config.total_cpu_demand,  # 1 Gbps per CPU
            seed=config.seed,
        )
        self.engine = PlacementEngine(1)
        self.pods: list[ColumnarPodState] = []
        self.controllers: list[SparseGreedyController] = []
        #: This epoch's per-pod share of each app's demand, by global app
        #: id, split chunk by chunk as demand streams in (the whole
        #: demand for an app with no alive covering pod).
        self._share = np.empty(config.n_apps)
        self.epochs_run = 0
        self.demand_fingerprint: Optional[str] = None
        # -- fault state -------------------------------------------------
        #: Liveness mask over pods; dead pods host nothing and solve
        #: nothing until restored.
        self.pod_alive = np.ones(config.n_pods, dtype=bool)
        #: Row *p*: the residues mod ``n_pods`` of the apps covering pod
        #: *p*, ascending — ``(p - j) % n_pods`` for ``j < cover``.
        self._residues = np.sort(
            (np.arange(config.n_pods)[:, None] - np.arange(config.cover))
            % config.n_pods,
            axis=1,
        )
        #: Crashed mega servers parked for recovery:
        #: name -> (pod name, server id, cpu, mem_gb).
        self._crashed_servers: dict[str, tuple[str, int, float, float]] = {}
        #: Optional epoch-time fault injector (set by MegaFaultInjector).
        self.fault_injector = None
        #: Optional RecoveryMonitor fed dropped demand + MTTR.
        self.monitor = None
        #: One pod's local demand at a time; pods solve one by one.  The
        #: widest pod has every full block's apps plus the most tail ones.
        blocks, tail = divmod(config.n_apps, config.n_pods)
        self._local_demand = np.empty(
            blocks * config.cover + min(config.cover, tail)
        )
        self._bootstrap()
        self._pod_index = {pod.pod: i for i, pod in enumerate(self.pods)}
        # -- control plane -----------------------------------------------
        self.control_plane = None
        self.bridge = None
        self._cp_env = None
        self._wired_gids: np.ndarray = np.zeros(0, dtype=np.int64)
        if control_plane is not None:
            self._init_control_plane(control_plane)
        # -- traffic data plane ------------------------------------------
        self.dataplane = None
        self.request_stream = None
        #: The steering config the data plane was built from, if wired.
        self.steering: Optional[MegaSteeringConfig] = None
        #: Scripted knob actions per epoch (the differential harness and
        #: experiments queue these; they run inside run_epoch after the
        #: mirror sync, before steering).
        self._knob_queue: dict[int, list[tuple]] = {}
        if steering is not None:
            self._init_dataplane(steering)

    # -- construction -------------------------------------------------
    def _pod_app_gids(self, p: int) -> np.ndarray:
        """Global ids of apps covering pod *p* (sorted ascending).

        App ``i`` covers *p* iff ``(p - i) % n_pods < cover``: the ids are
        the ``cover`` residue classes ``_residues[p]``, enumerated block by
        block of ``n_pods`` ids instead of testing every app."""
        cfg = self.config
        blocks = np.arange(-(-cfg.n_apps // cfg.n_pods), dtype=np.int64) * cfg.n_pods
        gids = (blocks[:, None] + self._residues[p]).ravel()
        # Copy: a view would keep the whole padded block alive per pod.
        return gids[: np.searchsorted(gids, cfg.n_apps)].copy()

    def _gather(self, vec: np.ndarray, p: int) -> np.ndarray:
        """Pod *p*'s entries of the per-app vector *vec*, in local order,
        written into the shared local buffer.  Pods build their problems
        from ``_gather(_share, p)`` and the auditor checks their loads
        against it; nothing else reads a per-app vector by pod.

        Local order is ascending global id, i.e. block by block of
        ``n_pods`` ids, the pod's residues within each block; the tail
        block (when ``n_apps % n_pods != 0``) holds only the residues
        below its length.  Equals ``vec[self._pod_app_gids(p)]``."""
        n = self.config.n_pods
        blocks, tail = divmod(vec.shape[0], n)
        res = self._residues[p]
        body = blocks * res.size
        out = self._local_demand
        np.take(
            vec[: blocks * n].reshape(blocks, n), res, axis=1,
            out=out[:body].reshape(blocks, res.size), mode="clip",
        )
        head = res[: np.searchsorted(res, tail)]
        out[body : body + head.size] = vec[blocks * n + head]
        return out[: body + head.size]

    def _bootstrap(self) -> None:
        """Seed every pod's placement proportionally to t=0 demand.

        Instance counts are sized so one instance never needs more than
        ``BOOTSTRAP_FILL`` of a server's CPU — the greedy controller then
        only has to patch drift, not mass-start 6M instances.

        Each pod's long-lived columns (``indices`` and ``load``) are
        allocated before any of its temporaries: the instance counts are
        computed in place in the shared local buffer from the t=0 shares
        (demand split ``/cover`` once, fleet-wide), so freeing the
        round-robin's short-lived arrays leaves no holes between the
        pods' per-VM columns.  All pods share one read-only server-id
        column and zero-stride capacity columns.
        """
        cfg = self.config
        share0 = self.workload.cpu_demand(0.0)  # one O(n_apps) vector
        np.divide(share0, cfg.cover, out=share0)
        per_inst = cfg.server_cpu * BOOTSTRAP_FILL
        s_count = cfg.servers_per_pod
        ids = np.arange(s_count, dtype=np.int64)
        ids.flags.writeable = False
        for p in range(cfg.n_pods):
            # Instance counts as floats, in place: the ceil and clip of
            # the same quotient, exact as integers below 2**53.
            n_inst = self._gather(share0, p)
            n_apps = n_inst.size
            np.divide(n_inst, per_inst, out=n_inst)
            np.ceil(n_inst, out=n_inst)
            np.clip(n_inst, 1, s_count, out=n_inst)
            nnz = int(n_inst.sum())
            indices = np.empty(nnz, dtype=np.int32)
            load = np.zeros(nnz)
            placement = self._round_robin(s_count, n_apps, n_inst, indices)
            state = ColumnarPodState(
                pod=f"pod-{p:03d}",
                servers=ColumnarServers.uniform(
                    s_count,
                    cfg.server_cpu,
                    cfg.server_mem_gb,
                    name_prefix=f"pod-{p:03d}-s",
                    ids=ids,
                ),
                # Every VM has the same memory: one float as a view.
                app_mem_gb=np.broadcast_to(
                    np.float64(VM_MEM_GB), (n_apps,)
                ),
                placement=placement,
                load=load,
            )
            if (state.mem_headroom() < 0).any():
                raise RuntimeError(
                    f"bootstrap placement overcommits memory in pod {p}"
                )
            self.pods.append(state)
            self.controllers.append(SparseGreedyController())

    @staticmethod
    def _round_robin(
        s_count: int, n_apps: int, n_inst: np.ndarray, indices: np.ndarray
    ) -> SparsePlacement:
        """CSR of app ``a``'s ``n_inst[a]`` instances dealt round-robin.

        Flat entry *k* (apps in order, each app's instances consecutive)
        sits on server ``k % S``: an app's instances land on consecutive,
        distinct servers (``n_inst <= S``) and the per-server VM count is
        uniform to within one.  Row *r* holds entries ``r, r + S, ...``,
        already column-sorted, so the CSR is written in place with no
        sort: with ``total = q * S + rem``, the first ``rem`` rows hold
        ``q + 1`` entries and the rest ``q``.  *n_inst* may hold
        integer-valued floats; the columns are written into *indices*,
        an int32 array with one slot per instance.
        """
        cols = np.repeat(
            np.arange(n_apps, dtype=np.int32), n_inst.astype(np.int64)
        )
        q, rem = divmod(cols.size, s_count)
        by_row = cols[: q * s_count].reshape(q, s_count).T
        head = indices[: rem * (q + 1)].reshape(rem, q + 1)
        head[:, :q] = by_row[:rem]
        head[:, q] = cols[q * s_count :]
        indices[rem * (q + 1) :].reshape(s_count - rem, q)[:] = by_row[rem:]
        r = np.arange(s_count + 1, dtype=np.int64)
        indptr = r * q + np.minimum(r, rem)
        return SparsePlacement((s_count, n_apps), indptr, indices, check=False)

    # -- control plane -------------------------------------------------
    @staticmethod
    def _app_name(gid: int) -> str:
        return f"app-{gid:06d}"

    @staticmethod
    def _pod_of_rip(rip: str) -> Optional[str]:
        """RIPs are named ``{app}@{pod}`` — pod homing from the name."""
        _, sep, pod = rip.partition("@")
        return pod if sep else None

    def _init_control_plane(self, cp: MegaControlPlaneConfig) -> None:
        """Wire the first ``cp.wired_apps`` apps and mirror them.

        The VIPs, then the RIPs, are wired by one bulk pass each over the
        shards (:meth:`ShardedControlPlane.wire`): the request handlers'
        decisions and journal records, with no request routed and no
        simulated time spent, so the control-plane clock still reads 0.
        Each pass is checked for anything left unplaced, and one bridge
        sync then loads the columnar mirror from the journals."""
        from repro.controlplane.bridge import RipJournalBridge
        from repro.controlplane.sharding import ShardedControlPlane
        from repro.core.viprip import VipRipRequest
        from repro.lbswitch.addresses import PUBLIC_VIP_POOL
        from repro.lbswitch.switch import LBSwitch, SwitchLimits
        from repro.sim import Environment

        cfg = self.config
        self._cp_config = cp
        self._cp_env = Environment()
        n_switches = CP_SHARDS * CP_SWITCHES_PER_SHARD
        switches = [
            LBSwitch(
                f"lb-{i:02d}",
                self._cp_env,
                SwitchLimits(max_vips=cp.max_vips, max_rips=cp.max_rips),
            )
            for i in range(n_switches)
        ]
        self.control_plane = ShardedControlPlane(
            self._cp_env,
            switches,
            # Room for every wired VIP, and at least 2 per app and 1,000.
            PUBLIC_VIP_POOL(max(1000, cp.wired_apps * max(2, cp.vips_per_app))),
            CP_SHARDS,
            reconfig_s=CP_RECONFIG_S,
            trace=self.trace,
        )
        self._wired_gids = np.arange(
            min(cp.wired_apps, cfg.n_apps), dtype=np.int64
        )
        self._VipRipRequest = VipRipRequest
        n_vips = cp.vips_per_app
        errors = self.control_plane.wire([
            VipRipRequest("new_vip", self._app_name(gid))
            for gid in self._wired_gids
            for _ in range(n_vips)
        ])
        self._check_wired(
            "max_vips",
            lambda app, gid: len(self.control_plane.vips_of(app)) < n_vips,
            errors,
        )
        requests = []
        for gid in self._wired_gids:
            app = self._app_name(gid)
            for pod_name in self._covering_pods(int(gid)):
                requests.append(
                    VipRipRequest("new_rip", app, rip=f"{app}@{pod_name}")
                )
        errors = self.control_plane.wire(requests)
        rip_index = self.control_plane.rip_index
        self._check_wired(
            "max_rips",
            lambda app, gid: any(
                f"{app}@{pod}" not in rip_index
                for pod in self._covering_pods(gid)
            ),
            errors,
        )
        self.bridge = RipJournalBridge(
            self.control_plane,
            pod_of=self._pod_of_rip,
            trace=self.trace,
        )
        self.bridge.sync()

    def _check_wired(self, limit: str, unplaced, errors: list) -> None:
        """Raise if the wiring requests just run left anything unplaced.

        The shards reject a VIP or RIP that no switch has room for;
        without this check the gap first surfaces much later, as a data
        plane with unwired apps.  *unplaced* is ``(app, gid) -> bool``;
        *errors* holds what the requests that errored raised (an
        exhausted address pool, say); the first is reported, since
        raising *limit* would not help it.
        """
        cp = self.control_plane
        if not (cp.rejected or cp.errored):
            return
        apps = ((self._app_name(g), int(g)) for g in self._wired_gids)
        first = next((app for app, gid in apps if unplaced(app, gid)), None)
        error = errors[0] if errors else None
        fix = (
            f"first error: {error}"
            if error is not None
            else f"raise MegaControlPlaneConfig.{limit} "
            f"(= {getattr(self._cp_config, limit)} per switch) or wire "
            f"fewer apps"
        )
        raise ValueError(
            f"control-plane wiring failed: {cp.rejected} request(s) "
            f"rejected, {cp.errored} errored; first app left unplaced: "
            f"{first}; {fix}"
        )

    def _covering_pods(self, gid: int) -> list[str]:
        """Pods covered by app *gid* under the arithmetic coverage rule."""
        cfg = self.config
        return [
            f"pod-{(gid + j) % cfg.n_pods:03d}" for j in range(cfg.cover)
        ]

    def _cp_pod_event(self, pod_name: str, up: bool) -> None:
        """Propagate a pod fault to the control plane: drop (or restore)
        the wired RIPs homed in that pod, then sync the mirror."""
        if self.control_plane is None:
            return
        p = self._pod_index[pod_name]
        cfg = self.config
        for gid in self._wired_gids:
            if ((p - int(gid)) % cfg.n_pods) >= cfg.cover:
                continue
            app = self._app_name(int(gid))
            self.control_plane.submit(
                self._VipRipRequest(
                    "new_rip" if up else "del_rip", app,
                    rip=f"{app}@{pod_name}",
                )
            )
        self._cp_env.run()

    # -- traffic data plane --------------------------------------------
    def _init_dataplane(self, sc: MegaSteeringConfig) -> None:
        from repro.dataplane.steering import ColumnarDataPlane
        from repro.workload.requests import RequestStream

        if self.bridge is None:
            raise ValueError(
                "steering requires control_plane= to be configured"
            )
        self.steering = sc
        # Request popularity follows the wired apps' t=0 demand: hot apps
        # get hot VIPs, matching the paper's elastic-traffic framing.
        app_weights = self.workload.cpu_demand(0.0)[self._wired_gids]
        self.request_stream = RequestStream(
            sc.n_resolvers,
            app_weights,
            sc.requests_per_epoch,
            seed=sc.seed,
        )
        self.dataplane = ColumnarDataPlane(
            self.bridge.registry,
            [self._app_name(int(g)) for g in self._wired_gids],
            self.request_stream,
            ttl_s=sc.ttl_s,
            switch_max_connections=sc.switch_max_connections,
            chunk_requests=sc.chunk_requests,
            trace=self.trace,
        )

    def dataplane_switches(self) -> dict:
        """Live ``switch name -> LBSwitch`` across all shards (the object
        twin steers against these same tables)."""
        if self.control_plane is None:
            return {}
        return {
            name: sw
            for shard in self.control_plane.shards
            for name, sw in shard.manager.switches.items()
        }

    def _emit_knob(self, knob: str, action: str, t: float, **detail) -> None:
        if self.trace is not None and self.trace.enabled:
            self.trace.emit("knob", t=t, knob=knob, action=action, **detail)

    def k1_resteer(
        self, app: str, weights: dict, t: float = 0.0
    ) -> None:
        """K1: shift the app's DNS VIP weights in the vectorized tables.
        Clients converge over roughly one TTL (violators lag behind)."""
        if self.dataplane is None:
            raise RuntimeError("no data plane wired")
        self.dataplane.k1_set_weights(app, weights)
        self._emit_knob("K1", "resteer", t, app=app, vips=len(weights))

    def k2_rehome(
        self, app: str, vip: str, t: float = 0.0, force: bool = False
    ) -> bool:
        """K2: move a VIP to another switch — only during a pause (zero
        live sessions, read off the conn table's per-RIP counts) unless
        *force*, which first drops the VIP's sessions (service
        disruption, quantified in the report's ``conns_dropped``)."""
        if self.dataplane is None:
            raise RuntimeError("no data plane wired")
        dp = self.dataplane
        dropped = 0
        if not dp.is_paused(vip):
            if not force:
                self._emit_knob(
                    "K2", "blocked", t, app=app, vip=vip,
                    conns=dp.conn.count_for_vip(self.bridge.registry.vips.get(vip)),
                )
                return False
            dropped = dp.drop_vip_conns(vip)
        src = dp.switch_of_vip(vip)
        self.control_plane.submit(
            self._VipRipRequest("move_vip", app, vip=vip)
        )
        self._cp_env.run()
        self.bridge.sync()
        dp.refresh()
        dst = dp.switch_of_vip(vip)
        moved = dst is not None and dst != src
        self._emit_knob(
            "K2", "rehome", t, app=app, vip=vip, moved=moved,
            dropped=dropped,
        )
        return moved

    def queue_knob(self, epoch: int, action: tuple) -> None:
        """Script a knob action for *epoch*: ``("k1", app, weights)``,
        ``("k2", app, vip)`` or ``("k2", app, vip, True)`` (forced)."""
        if action[0] not in ("k1", "k2"):
            raise ValueError(f"unknown knob action {action[0]!r}")
        self._knob_queue.setdefault(int(epoch), []).append(tuple(action))

    def _drive_knobs(self, epoch: int, t: float) -> None:
        """Scripted knob actions first, then the periodic schedule: every
        ``knob_period`` epochs pick the next wired app round-robin,
        re-steer its DNS weights (K1) and re-home its first paused VIP
        (K2)."""
        for act in self._knob_queue.pop(epoch, ()):
            if act[0] == "k1":
                self.k1_resteer(act[1], act[2], t=t)
            else:
                force = bool(act[3]) if len(act) > 3 else False
                self.k2_rehome(act[1], act[2], t=t, force=force)
        sc = self.steering
        if (
            sc is None
            or not sc.knob_period
            or epoch == 0
            or epoch % sc.knob_period
        ):
            return
        k = epoch // sc.knob_period
        gid = int(self._wired_gids[k % self._wired_gids.size])
        app = self._app_name(gid)
        vips = sorted(self.dataplane.dns.zone(app))
        weights = {v: 1.0 + ((k + i) % 3) for i, v in enumerate(vips)}
        self.k1_resteer(app, weights, t=t)
        for vip in vips:
            if self.dataplane.is_paused(vip):
                self.k2_rehome(app, vip, t=t)
                break

    # -- fault surgery -------------------------------------------------
    def fault_targets(self) -> dict[str, Container[str]]:
        """Target inventory for :meth:`FaultSchedule.validate_targets`:
        every pod and server name this driver can resolve (crashed
        servers stay valid — they are recovery targets).  Server names
        are tested by parsing, not by listing every server."""
        return {"pod": set(self._pod_index), "server": _ServerNames(self)}

    def _emit_fault(self, kind: str, target: str, t: float, **extra) -> None:
        if self.trace is not None and self.trace.enabled:
            self.trace.emit("mega.fault", t=t, fault=kind, target=target, **extra)

    def _emit_vacate(
        self, pod_name: str, t: float, before: int, stopped: int
    ) -> None:
        """K3 conservation witness: the auditor checks
        ``vms_after == vms_before - stopped`` on every ``k3.vacate``."""
        if self.trace is not None and self.trace.enabled:
            self.trace.emit(
                "k3.vacate", t=t, pod=pod_name, requested=stopped,
                vacated=stopped, migrations=0, stopped=stopped,
                vms_before=before, vms_after=before - stopped,
            )

    def lose_pod(self, name: str, t: float = 0.0) -> int:
        """An entire pod goes dark: every hosted VM is lost and the pod's
        demand share spills to the surviving covering pods next epoch.
        Returns the VM count lost."""
        p = self._pod_index[name]
        if not self.pod_alive[p]:
            return 0
        pod = self.pods[p]
        before = pod.n_vms
        lost = pod.clear_placement()
        self.pod_alive[p] = False
        self._emit_fault("pod_loss", name, t, lost_vms=lost)
        self._emit_vacate(name, t, before, lost)
        self._cp_pod_event(name, up=False)
        if self.bridge is not None:
            self.bridge.sync()
        if self.dataplane is not None:
            # Sessions pinned to the dead pod's RIPs die with it.
            self.dataplane.on_pod_loss(name)
        return lost

    def restore_pod(self, name: str, t: float = 0.0) -> None:
        """A lost pod rejoins empty; the next epoch re-places into it."""
        p = self._pod_index[name]
        if self.pod_alive[p]:
            return
        self.pod_alive[p] = True
        self._emit_fault("pod_restore", name, t)
        self._cp_pod_event(name, up=True)
        if self.bridge is not None:
            self.bridge.sync()

    def _parse_server(self, name: str) -> tuple[str, int]:
        pod_name, sep, sid = name.rpartition("-s")
        if not sep or pod_name not in self._pod_index:
            raise KeyError(f"unknown mega server {name!r}")
        return pod_name, int(sid)

    def crash_server(self, name: str, t: float = 0.0) -> int:
        """One server dies: its row leaves the pod's columnar state (VMs
        lost); the pod re-places the displaced demand next epoch, matching
        the object model's ``PodManager.crash_server`` semantics."""
        if name in self._crashed_servers:
            return 0
        pod_name, sid = self._parse_server(name)
        pod = self.pods[self._pod_index[pod_name]]
        row = pod.servers.row_of(sid)
        cpu = float(pod.servers.cpu[row])
        mem = float(pod.servers.mem_gb[row])
        before = pod.n_vms
        lost = pod.remove_server(sid)
        self._crashed_servers[name] = (pod_name, sid, cpu, mem)
        self._emit_fault("server_crash", name, t, lost_vms=lost)
        self._emit_vacate(pod_name, t, before, lost)
        return lost

    def recover_server(self, name: str, t: float = 0.0) -> None:
        """A crashed server rejoins its pod empty, at its original sorted
        position (stable names: ids never shift)."""
        parked = self._crashed_servers.pop(name, None)
        if parked is None:
            return
        pod_name, sid, cpu, mem = parked
        self.pods[self._pod_index[pod_name]].insert_server(sid, cpu, mem)
        self._emit_fault("server_recover", name, t)

    # -- epoch loop ---------------------------------------------------
    @property
    def n_vms(self) -> int:
        return sum(pod.n_vms for pod in self.pods)

    def _scatter_demand(self, t: float, epoch: int) -> float:
        """Stream demand chunks and split each app's demand into the
        fleet-wide per-app share vector, once per epoch.

        With every pod alive an app's demand splits evenly, ``/cover``,
        over its covering pods.  Under pod loss it splits across its
        *alive* covering pods only — the K3 spill.  Every app of a residue
        mod ``n_pods`` has the same covering pods, so the alive count is
        derived once per epoch, per residue, from the liveness mask.  An
        app with no alive covering pod keeps its demand unsplit: it is
        black-holed, and the returned sum of those demands is the epoch's
        dropped CPU."""
        cfg = self.config
        tracing = self.trace is not None and self.trace.enabled
        all_alive = bool(self.pod_alive.all())
        if not all_alive:
            alive_cover = np.bincount(
                self._residues[self.pod_alive].ravel(), minlength=cfg.n_pods
            )
        dropped = 0.0
        for lo, hi, vals in self.workload.chunks(t, cfg.chunk_apps):
            if tracing:
                self.trace.emit(
                    "mega.chunk", t=t, epoch=epoch, lo=lo, hi=hi,
                    nbytes=int(vals.nbytes),
                )
            share = self._share[lo:hi]
            if all_alive:
                np.divide(vals, cfg.cover, out=share)
                continue
            count = alive_cover[np.arange(lo, hi) % cfg.n_pods]
            share[:] = vals
            np.divide(share, count, out=share, where=count > 0)
            dropped += float(vals[count == 0].sum())
        return dropped

    def run_epoch(self, epoch: Optional[int] = None) -> MegaEpochReport:
        """One unified epoch: inject due faults, stream demand (spilling
        dead pods' shares to survivors), solve the alive pods through the
        engine one at a time, each applied before the next is built, then
        sync the control-plane mirror.

        If a solve raises, the pods before it in this epoch are already
        applied."""
        cfg = self.config
        if epoch is None:
            epoch = self.epochs_run
        t = epoch * cfg.epoch_s
        t0 = time.perf_counter()
        rip_before = self.bridge.records_applied if self.bridge is not None else 0
        conns_dropped0 = (
            self.dataplane.conn.dropped if self.dataplane is not None else 0
        )
        if self.fault_injector is not None:
            self.fault_injector.advance(t)
        dropped = self._scatter_demand(t, epoch)
        alive = [p for p in range(cfg.n_pods) if self.pod_alive[p]]
        demand_sums = []

        def build(p: int):
            local = self._gather(self._share, p)
            demand_sums.append(local.sum())
            return self.pods[p].build_problem(local)

        def apply(task: PlacementTask, solution) -> dict:
            return self.pods[self._pod_index[task.key]].apply(solution)

        tasks = [
            PlacementTask(
                key=self.pods[p].pod,
                problem=partial(build, p),
                controller=self.controllers[p],
            )
            for p in alive
        ]
        started = stopped = 0
        satisfied = 0.0
        for stats in self.engine.solve_batch(tasks, apply=apply):
            started += stats["started"]
            stopped += stats["stopped"]
            satisfied += stats["satisfied_cpu"]
        if dropped > 0 and self.monitor is not None:
            self.monitor.note_dropped(dropped, cfg.epoch_s)
        rip_records = 0
        rip_fp = 0
        if self.bridge is not None:
            self._cp_env.run()
            self.bridge.sync()
            rip_records = self.bridge.records_applied - rip_before
            rip_fp = self.bridge.registry.fingerprint()
        steer = None
        if self.dataplane is not None:
            self._drive_knobs(epoch, t)
            steer = self.dataplane.steer_epoch(epoch, t)
        self.epochs_run += 1
        report = MegaEpochReport(
            epoch=epoch,
            t=t,
            wall_s=time.perf_counter() - t0,
            demand_cpu=float(sum(demand_sums)),
            satisfied_cpu=satisfied,
            changes=started + stopped,
            started=started,
            stopped=stopped,
            vms=self.n_vms,
            delta_tasks=0,
            full_tasks=len(tasks),
            bytes_shipped=0,
            peak_rss_mb=peak_rss_mb(),
            dropped_cpu=dropped,
            pods_down=cfg.n_pods - len(alive),
            rip_records=rip_records,
            rip_fingerprint=rip_fp,
        )
        if steer is not None:
            report.requests = steer.requests
            report.dns_hits = steer.dns_hits
            report.dns_misses = steer.dns_misses
            report.conns_opened = steer.opened
            report.conns_rejected = steer.rejected
            report.conns_closed = steer.closed
            report.conns_dropped = self.dataplane.conn.dropped - conns_dropped0
            report.conns_alive = self.dataplane.conn.alive_count
            report.unserved = steer.unserved
            report.steer_wall_s = steer.wall_s
        if self.fault_injector is not None:
            self.fault_injector.epoch_done(t, report)
        if self.trace is not None and self.trace.enabled:
            self.trace.emit(
                "mega.epoch", t=t, epoch=epoch,
                demand=round(report.demand_cpu, 6),
                satisfied=round(report.satisfied_cpu, 6),
                changes=report.changes, vms=report.vms,
            )
            self.trace.emit("epoch.end", t=t, epoch=epoch)
        return report

    def run(self, epochs: int) -> list[MegaEpochReport]:
        """Run *epochs* epochs; verifies the chunking contract once."""
        if self.demand_fingerprint is None:
            chunked = self.workload.fingerprint(0.0, self.config.chunk_apps)
            whole = self.workload.fingerprint(0.0)
            if chunked != whole:  # pragma: no cover - contract guard
                raise RuntimeError("chunked demand diverged from materialized")
            self.demand_fingerprint = chunked
        return [self.run_epoch() for _ in range(epochs)]

    def close(self) -> None:
        self.engine.close()

    def __enter__(self) -> "MegaScaleDriver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
