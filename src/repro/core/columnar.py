"""Columnar (structure-of-arrays) pod state for mega scale.

The object model — one :class:`~repro.hosts.vm.VM` dataclass per instance,
one :class:`~repro.hosts.server.PhysicalServer` per machine — is the right
API for small-scale tests and the knob/fault machinery, but a pod at the
paper's scale (Section I: ~300k servers, ~6M VMs datacenter-wide) cannot
afford a Python object per VM on the epoch hot path.  This module keeps
the same state as flat NumPy arrays with stable integer ids:

* servers: parallel ``cpu`` / ``mem_gb`` capacity arrays (row index = id),
  zero-stride views of one float when every server is alike;
* apps: *local* column ids ``0..A-1`` with per-instance memory; the
  owner maps them to global app ids (the mega driver by the pod's
  residue classes, see
  :meth:`~repro.core.mega.MegaScaleDriver._pod_app_gids`), so the pod
  stores no per-app id column.  Its per-app demand arrives as a local
  vector too: the mega driver splits demand once per epoch over the
  whole fleet and hands each pod the gather of its columns' shares;
* VMs: exactly the entries of a CSR :class:`SparsePlacement` — one
  (server, app) pair per instance, an int32 column id — with a per-entry
  float64 CPU slice: 12 bytes per VM.

:meth:`ColumnarPodState.from_pod` builds a columnar twin of an object pod
(the thin-view bridge: tests assert its matrices are bit-identical to what
``PodManager._build_problem`` derives from the objects), and
:meth:`ColumnarPodState.apply` is the columnar analogue of
``PodManager._apply`` — pure array set-difference instead of per-VM
attach/detach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.placement.problem import PlacementProblem
from repro.placement.sparse import SparsePlacement, SparseSolution


def _column(values) -> np.ndarray:
    """A float64 column: a zero-stride view of one value (a uniform
    column) is kept as it is; anything else is made contiguous."""
    col = np.asarray(values, dtype=float)
    if col.ndim == 1 and col.strides == (0,):
        return col
    return np.ascontiguousarray(col)


class IdIndex:
    """Append-only stable string <-> integer id mapping.

    Ids are assigned in insertion order and never reused, so arrays
    indexed by id stay valid as names are added.
    """

    __slots__ = ("_ids", "_names")

    def __init__(self, names: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        for n in names:
            self.add(n)

    def add(self, name: str) -> int:
        """Return the id for *name*, assigning the next one if new."""
        gid = self._ids.get(name)
        if gid is None:
            gid = len(self._names)
            self._ids[name] = gid
            self._names.append(name)
        return gid

    def get(self, name: str) -> int:
        return self._ids[name]

    def name(self, gid: int) -> str:
        return self._names[gid]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids


@dataclass
class ColumnarServers:
    """Per-server capacity columns; the row index is the server id.

    ``ids`` carries each row's *original* server number so names survive
    fault-path removals: when row 3 is crashed out of the pod, the old
    row 4 shifts down but keeps its ``...000004`` name.

    A uniform column is a read-only zero-stride view of one float
    (:meth:`uniform`), and ``ids`` may be one read-only array shared by
    many pods: every change to a pod's servers builds new columns
    (``np.delete`` / ``np.insert`` copy), so nothing writes in place.
    """

    cpu: np.ndarray
    mem_gb: np.ndarray
    name_prefix: str = "s"
    ids: Optional[np.ndarray] = None

    def __post_init__(self):
        self.cpu = _column(self.cpu)
        self.mem_gb = _column(self.mem_gb)
        if self.cpu.shape != self.mem_gb.shape:
            raise ValueError("cpu / mem_gb must be aligned")
        if (self.cpu <= 0).any() or (self.mem_gb <= 0).any():
            raise ValueError("server capacities must be positive")
        if self.ids is None:
            self.ids = np.arange(self.cpu.shape[0], dtype=np.int64)
        else:
            self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
            if self.ids.shape != self.cpu.shape:
                raise ValueError("ids must align with capacities")
            if self.ids.size > 1 and (np.diff(self.ids) <= 0).any():
                raise ValueError("ids must be strictly increasing")

    @classmethod
    def uniform(
        cls,
        n: int,
        cpu: float,
        mem_gb: float,
        name_prefix: str = "s",
        ids: Optional[np.ndarray] = None,
    ) -> "ColumnarServers":
        """*n* alike servers: each capacity column is one stored float."""
        return cls(
            cpu=np.broadcast_to(np.float64(cpu), (n,)),
            mem_gb=np.broadcast_to(np.float64(mem_gb), (n,)),
            name_prefix=name_prefix,
            ids=ids,
        )

    @property
    def n(self) -> int:
        return int(self.cpu.shape[0])

    def name(self, i: int) -> str:
        """Materialize a server name on demand (never stored per row)."""
        return f"{self.name_prefix}{int(self.ids[i]):06d}"

    def row_of(self, server_id: int) -> int:
        """Current row index of original server *server_id*."""
        pos = int(np.searchsorted(self.ids, server_id))
        if pos >= self.n or self.ids[pos] != server_id:
            raise KeyError(f"server id {server_id} not present")
        return pos


@dataclass
class ColumnarPodState:
    """One pod's placement state as sharded arrays.

    Placement columns are *local* app indices ``0..n_apps-1``, so pods
    covering different app subsets keep small column spaces.  The column
    count is ``placement.shape[1]``; the mapping from local to global app
    ids is the owner's, not stored here.
    """

    pod: str
    servers: ColumnarServers
    app_mem_gb: np.ndarray
    placement: SparsePlacement
    load: np.ndarray
    epochs_applied: int = 0

    def __post_init__(self):
        # A uniform column may come as a zero-stride view of one float;
        # keep it (a contiguous copy costs one float per app).
        self.app_mem_gb = _column(self.app_mem_gb)
        self.load = np.ascontiguousarray(self.load, dtype=float)
        if self.placement.shape[0] != self.servers.n:
            raise ValueError(f"placement must have {self.servers.n} server rows")
        if self.app_mem_gb.shape != (self.placement.shape[1],):
            raise ValueError("app_mem_gb must hold one value per placement column")
        if self.load.shape != (self.placement.nnz,):
            raise ValueError("load must hold one value per placement entry")

    # -- aggregates ---------------------------------------------------
    @property
    def n_servers(self) -> int:
        return self.servers.n

    @property
    def n_apps(self) -> int:
        return self.placement.shape[1]

    @property
    def n_vms(self) -> int:
        return self.placement.nnz

    def mem_headroom(self) -> np.ndarray:
        """Per-server free memory under the current placement.

        With one VM size (a zero-stride ``app_mem_gb``) a server's use is
        its entry count times that size, O(servers); mixed sizes sum
        per entry."""
        mem = self.app_mem_gb
        if mem.size and mem.strides == (0,):
            used = np.diff(self.placement.indptr) * mem[0]
        else:
            used = np.bincount(
                self.placement.rows(),
                weights=mem[self.placement.cols()],
                minlength=self.n_servers,
            )
        return self.servers.mem_gb - used

    # -- epoch hot path -----------------------------------------------
    def build_problem(self, local_demand: np.ndarray) -> PlacementProblem:
        """The pod's placement problem for one epoch's local demand."""
        return PlacementProblem(
            server_cpu=self.servers.cpu,
            server_mem=self.servers.mem_gb,
            app_cpu_demand=local_demand,
            app_mem=self.app_mem_gb,
            current=self.placement,
        )

    def apply(self, solution: SparseSolution) -> dict:
        """Adopt a solved placement; returns start/stop/size stats.

        The columnar analogue of ``PodManager._apply``.  *solution* must
        have been solved against this pod's current placement: its
        ``changes`` (the key-set symmetric difference the controller
        already computed) and the two entry counts give the starts and
        stops without diffing the key sets again, since
        ``started + stopped = changes`` and
        ``started - stopped = new nnz - old nnz``.

        When the solution's placement *is* the current one (a solve that
        started and stopped nothing), its loads are copied into the
        pod's ``load`` buffer, so a steady epoch allocates no per-VM
        state; a new placement brings its own load array.
        """
        old_n, new_n = self.placement.nnz, solution.placement.nnz
        twice_started = int(solution.changes) + new_n - old_n
        started, odd = divmod(twice_started, 2)
        stopped = int(solution.changes) - started
        if odd or not (0 <= started <= new_n and 0 <= stopped <= old_n):
            raise ValueError(
                f"solution changes={solution.changes} inconsistent with "
                f"{old_n} -> {new_n} placement entries"
            )
        if solution.placement is self.placement:
            if solution.load.shape != self.load.shape:
                raise ValueError(
                    f"solution load has {solution.load.shape[0]} entries "
                    f"for {self.load.shape[0]} placement entries"
                )
            np.copyto(self.load, solution.load)
        else:
            self.placement = solution.placement
            self.load = np.ascontiguousarray(solution.load, dtype=float)
        self.epochs_applied += 1
        return {
            "started": started,
            "stopped": stopped,
            "changes": started + stopped,
            "vms": self.n_vms,
            "satisfied_cpu": float(self.load.sum()),
        }

    # -- fault surgery ------------------------------------------------
    def clear_placement(self) -> int:
        """Every VM in the pod dies at once (``pod_loss``): the placement
        empties, capacities survive.  Returns the number of VMs lost."""
        lost = self.n_vms
        self.placement = SparsePlacement.empty(self.placement.shape)
        self.load = np.zeros(0)
        return lost

    def remove_server(self, server_id: int) -> int:
        """Crash original server *server_id* out of the pod.

        Mirrors ``PodManager.crash_server``: the row's VMs are lost and
        the server leaves the pod (the placement problem shrinks), so the
        dense-delegating controller sees exactly the matrix the object
        model would build.  Returns the number of VMs lost.
        """
        row = self.servers.row_of(server_id)
        self.placement, kept = self.placement.drop_row(row)
        lost = int(self.load.shape[0] - kept.sum())
        self.load = self.load[kept]
        self.servers = ColumnarServers(
            cpu=np.delete(self.servers.cpu, row),
            mem_gb=np.delete(self.servers.mem_gb, row),
            name_prefix=self.servers.name_prefix,
            ids=np.delete(self.servers.ids, row),
        )
        return lost

    def insert_server(self, server_id: int, cpu: float, mem_gb: float) -> int:
        """A crashed server rejoins empty, at the row its (sorted) original
        id dictates — the position an object pod's name-sorted server list
        would give it back.  Returns the row index it landed on."""
        ids = self.servers.ids
        row = int(np.searchsorted(ids, server_id))
        if row < ids.shape[0] and ids[row] == server_id:
            raise ValueError(f"server id {server_id} already present")
        self.placement = self.placement.insert_empty_row(row)
        self.servers = ColumnarServers(
            cpu=np.insert(self.servers.cpu, row, float(cpu)),
            mem_gb=np.insert(self.servers.mem_gb, row, float(mem_gb)),
            name_prefix=self.servers.name_prefix,
            ids=np.insert(ids, row, server_id),
        )
        return row

    # -- object-API bridge --------------------------------------------
    @classmethod
    def from_pod(cls, pod, specs: Mapping, apps: Optional[list] = None) -> "ColumnarPodState":
        """Columnar twin of an object :class:`~repro.core.pod.Pod`.

        ``apps`` fixes the column universe (defaults to the pod's covered
        apps, sorted — the same ordering ``PodManager.prepare_epoch``
        uses); column *j* is ``apps[j]``.
        """
        from repro.hosts.vm import VMState

        servers = pod.servers  # sorted by name, like _build_problem
        if apps is None:
            apps = sorted(pod.apps_covered())
        app_index = {a: j for j, a in enumerate(apps)}
        columns = ColumnarServers(
            cpu=np.asarray([s.spec.cpu_capacity for s in servers]),
            mem_gb=np.asarray([s.spec.mem_gb for s in servers]),
            name_prefix=f"{pod.name}-s",
        )
        rows, cols, slices = [], [], []
        for i, server in enumerate(servers):
            for vm in server.vms:
                if vm.state != VMState.STOPPED:
                    rows.append(i)
                    cols.append(app_index[vm.app])
                    slices.append(vm.cpu_slice)
        placement, order = SparsePlacement.from_entries(
            (len(servers), len(apps)),
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
        )
        load = np.asarray(slices, dtype=float)[order] if slices else np.zeros(0)
        return cls(
            pod=pod.name,
            servers=columns,
            app_mem_gb=np.asarray([specs[a].vm_mem_gb for a in apps]),
            placement=placement,
            load=load,
        )


class ColumnarRipRegistry:
    """Columnar mirror of RIP homing state: app -> RIP -> pod as columns.

    The control plane (``ShardedControlPlane`` / ``VipRipManager``) stays
    the authority; this registry is the mega-scale *read* side — flat
    integer-id columns the epoch loop can scan without touching Python
    registries.  Names get stable integer ids on first sight (``IdIndex``);
    per-RIP columns hold the owning app, serving VIP, home switch, host
    pod and weight, plus an ``active`` bit (ids are never reused, so a
    deleted RIP keeps its row and can be re-wired in place).

    Mutations are *guarded by switch*: an unwire/rehome only applies
    when the mirror's current home switch matches the operation's switch.
    Every journal record names a switch owned by the shard that journaled
    it, so per-switch operation order equals per-shard journal order —
    the guard makes replaying shard journals in any per-shard interleaving
    converge to the authority's end state (see
    :class:`~repro.controlplane.bridge.RipJournalBridge`).
    """

    _GROW = 64

    def __init__(self):
        self.apps = IdIndex()
        self.rips = IdIndex()
        self.vips = IdIndex()
        self.switches = IdIndex()
        self.pods = IdIndex()
        n = self._GROW
        self.rip_app = np.full(n, -1, dtype=np.int64)
        self.rip_vip = np.full(n, -1, dtype=np.int64)
        self.rip_switch = np.full(n, -1, dtype=np.int64)
        self.rip_pod = np.full(n, -1, dtype=np.int64)
        self.rip_weight = np.zeros(n, dtype=float)
        self.rip_active = np.zeros(n, dtype=bool)
        #: Mutations applied (wire/unwire/rehome), for sync stats.
        self.ops_applied = 0

    # -- sizing -------------------------------------------------------
    def _ensure(self, rid: int) -> None:
        cap = self.rip_app.shape[0]
        if rid < cap:
            return
        new = max(cap * 2, rid + 1)
        for attr, fill in (
            ("rip_app", -1), ("rip_vip", -1), ("rip_switch", -1),
            ("rip_pod", -1), ("rip_weight", 0.0), ("rip_active", False),
        ):
            old = getattr(self, attr)
            grown = np.full(new, fill, dtype=old.dtype)
            grown[:cap] = old
            setattr(self, attr, grown)

    @property
    def n_rips(self) -> int:
        """RIP ids ever assigned (rows in use, active or not)."""
        return len(self.rips)

    @property
    def n_active(self) -> int:
        return int(self.rip_active[: self.n_rips].sum())

    # -- mutations (journal-record granularity) -----------------------
    def wire(
        self,
        rip: str,
        app: str,
        vip: str,
        switch: str,
        pod: Optional[str],
        weight: float = 1.0,
    ) -> int:
        """Activate (or re-wire) one RIP; returns its stable id."""
        rid = self.rips.add(rip)
        self._ensure(rid)
        self.rip_app[rid] = self.apps.add(app)
        self.rip_vip[rid] = self.vips.add(vip)
        self.rip_switch[rid] = self.switches.add(switch)
        self.rip_pod[rid] = self.pods.add(pod) if pod is not None else -1
        self.rip_weight[rid] = float(weight)
        self.rip_active[rid] = True
        self.ops_applied += 1
        return rid

    def unwire(self, rip: str, switch: Optional[str] = None) -> bool:
        """Deactivate one RIP; when *switch* is given the unwire only
        applies if that is still the RIP's home (the replay guard)."""
        if rip not in self.rips:
            return False
        rid = self.rips.get(rip)
        if not self.rip_active[rid]:
            return False
        if switch is not None and (
            switch not in self.switches
            or self.rip_switch[rid] != self.switches.get(switch)
        ):
            return False
        self.rip_active[rid] = False
        self.ops_applied += 1
        return True

    def rehome_vip(self, vip: str, src: Optional[str], dst: str) -> int:
        """Move every active RIP served by *vip* from switch *src* to
        *dst* (a ``move_vip``); returns how many moved."""
        if vip not in self.vips:
            return 0
        vid = self.vips.get(vip)
        n = self.n_rips
        mask = self.rip_active[:n] & (self.rip_vip[:n] == vid)
        if src is not None and src in self.switches:
            mask &= self.rip_switch[:n] == self.switches.get(src)
        elif src is not None:
            return 0
        moved = int(mask.sum())
        if moved:
            self.rip_switch[:n][mask] = self.switches.add(dst)
            self.ops_applied += 1
        return moved

    @classmethod
    def from_authority(cls, homing: dict, pod_of=None) -> "ColumnarRipRegistry":
        """Full rebuild from an authoritative snapshot — the output of
        :meth:`~repro.core.viprip.VipRipManager.rip_homing` /
        :meth:`~repro.controlplane.sharding.ShardedControlPlane.rip_homing`
        (``rip -> (app, vip, switch, weight)``).  *pod_of* optionally maps
        a RIP name to its hosting pod."""
        reg = cls()
        for rip in sorted(homing):
            app, vip, switch, weight = homing[rip]
            reg.wire(
                rip, app, vip, switch,
                pod_of(rip) if pod_of is not None else None,
                weight,
            )
        reg.ops_applied = 0
        return reg

    # -- views --------------------------------------------------------
    def homing(self, rip: str) -> Optional[tuple]:
        """``(app, vip, switch, pod, weight)`` of an active RIP, else None."""
        if rip not in self.rips:
            return None
        rid = self.rips.get(rip)
        if not self.rip_active[rid]:
            return None
        pod_id = int(self.rip_pod[rid])
        return (
            self.apps.name(int(self.rip_app[rid])),
            self.vips.name(int(self.rip_vip[rid])),
            self.switches.name(int(self.rip_switch[rid])),
            self.pods.name(pod_id) if pod_id >= 0 else None,
            float(self.rip_weight[rid]),
        )

    def fingerprint(self) -> int:
        """CRC32 witness over the canonical (name-sorted) active rows.

        Canonicalized by *names*, not ids, so a mirror built incrementally
        from journal deltas fingerprints identically to one rebuilt from
        the authority even though their id assignment orders differ.
        """
        import zlib

        h = zlib.crc32(b"riprows:v1")
        for rip in sorted(
            self.rips.name(int(r))
            for r in np.flatnonzero(self.rip_active[: self.n_rips])
        ):
            app, vip, switch, pod, weight = self.homing(rip)
            line = f"{rip}|{app}|{vip}|{switch}|{pod}|{weight:.9g}\n"
            h = zlib.crc32(line.encode(), h)
        return h
