"""Sharded VIP/RIP control plane: eventually consistent, partition tolerant.

The serialized :class:`~repro.core.viprip.VipRipManager` is the paper's
architectural bottleneck: one priority queue configures every LB switch.
This module partitions that work across N manager shards:

* :class:`ShardOwnershipMap` — deterministic app -> shard ownership (a
  process-invariant hash), overridden by *epoch-fenced claims* when an
  app is explicitly handed off to another shard.  Claim epochs are
  monotonic and never reused, which is what makes last-writer-wins
  conflict resolution sound.
* :class:`ControlPlaneShard` — one :class:`VipRipManager` over a
  disjoint slice of the switch fleet, with its *own* write-ahead journal
  and checkpoint store (crash recovery stays shard-local), plus a
  durable local view of ownership claims.
* :class:`ShardedControlPlane` — the facade.  It routes each request to
  the owner shard, retries transient failures (owner crashed) with
  bounded deterministic backoff, and falls back to an explicit handoff
  when the owner stays down; a construction-time batch of new VIPs and
  RIPs is wired at once instead, with no event loop
  (:meth:`~ShardedControlPlane.wire`).  Shard<->shard partitions and
  per-shard crashes are tolerated optimistically: stale reads and conflicting
  claims are allowed transiently, then driven to convergence by gossip
  anti-entropy rounds — claims merge last-writer-wins by epoch, and the
  losing shard rolls its copy of the state back (migrating entries the
  winner lacks, deleting duplicates it already has).

Trace events: ``shard.route`` (a request reached a shard),
``shard.handoff`` (ownership moved, with the fencing epoch),
``shard.conflict`` (a losing claim was rolled back / a duplicate was
adopted), ``shard.converge`` (an anti-entropy round found nothing left
to fix after drift).  The :class:`~repro.obs.audit.InvariantAuditor`
consumes these along with per-shard ``journal.commit`` events.

Like the :class:`~repro.controlplane.reconciler.AntiEntropyReconciler`,
a gossip round is pure bookkeeping at one instant of simulated time; the
routed request path charges the usual selection/reconfiguration
latencies inside each shard's serialized processor.  Its local repair and
:meth:`~ShardedControlPlane.drift_report` are the reconciler's drift scan
and repair rules (:mod:`repro.controlplane.drift`).  Every entry a handoff
or repair places lands by the landing rule of :mod:`repro.lbswitch.switch`,
with the shard's own health test.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from dataclasses import replace
from itertools import zip_longest
from typing import TYPE_CHECKING, Optional

from repro.controlplane.checkpoint import CheckpointStore
from repro.controlplane.drift import (
    DriftView, RepairHooks, TableDriftReport, repair, scan, scan_rip_rows,
    scan_tables, scan_vip_rows,
)
from repro.controlplane.journal import OpPhase, WriteAheadJournal
from repro.controlplane.retry import RetryPolicy
from repro.lbswitch.switch import (
    LBSwitch, VipEntry, can_land, holders_of, landing_target,
)
from repro.sim.events import Event
from repro.sim.rng import stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.viprip import VipRipRequest
    from repro.sim.core import Environment


class ShardOwnershipMap:
    """Deterministic app -> shard ownership with epoch-fenced handoffs.

    Default ownership is ``stable_hash("shard-owner", app) % n_shards``
    (claim epoch 0).  An explicit :meth:`handoff` mints the next claim
    epoch; higher epochs always win, so two conflicting claims have a
    well-defined last writer.
    """

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        #: app -> (claim epoch, shard id); only explicit handoffs live here.
        self._claims: dict[str, tuple[int, int]] = {}
        self._epoch = 0

    def default_owner(self, app: str) -> int:
        return stable_hash("shard-owner", app) % self.n_shards

    def claim_of(self, app: str) -> tuple[int, int]:
        """The newest (epoch, owner) claim for *app*."""
        claim = self._claims.get(app)
        return claim if claim is not None else (0, self.default_owner(app))

    def owner_of(self, app: str) -> int:
        return self.claim_of(app)[1]

    def handoff(self, app: str, to_shard: int) -> tuple[int, int]:
        """Move *app* to *to_shard* under a fresh fencing epoch."""
        if not 0 <= to_shard < self.n_shards:
            raise ValueError(f"no shard {to_shard}")
        self._epoch += 1
        claim = (self._epoch, to_shard)
        self._claims[app] = claim
        return claim


class ControlPlaneShard:
    """One VIP/RIP manager over a disjoint switch slice, with its own
    durable journal, checkpoint store, and local claim table."""

    def __init__(
        self,
        shard_id: int,
        env: "Environment",
        switches: list[LBSwitch],
        vip_pool,
        *,
        trace=None,
        **manager_settings,
    ):
        """*manager_settings* go unchanged to the shard's
        :class:`~repro.core.viprip.VipRipManager`."""
        # Imported here: repro.core.viprip itself depends on this package
        # (journal, retry), so a module-level import would be circular.
        from repro.core.viprip import VipRipManager

        if not switches:
            raise ValueError(f"shard {shard_id} needs at least one switch")
        self.id = shard_id
        self.name = f"shard-{shard_id}"
        self.journal = WriteAheadJournal(
            trace=trace, clock=lambda: env.now, name=self.name
        )
        self.checkpoints = CheckpointStore()
        self.manager = VipRipManager(
            env,
            switches,
            vip_pool,
            journal=self.journal,
            checkpoints=self.checkpoints,
            **manager_settings,
        )
        self.manager.trace = trace
        #: Durable app -> (claim epoch, shard id) as *this shard* last
        #: heard it.  Durable like the journal: a manager crash wipes the
        #: volatile queue and registries, not the claim table — which is
        #: exactly how a recovered shard can keep asserting a stale claim
        #: until gossip corrects it.
        self.claims: dict[str, tuple[int, int]] = {}

    @property
    def crashed(self) -> bool:
        return self.manager.crashed

    @property
    def recovering(self) -> bool:
        return self.manager._recovering

    @property
    def switch_names(self) -> list[str]:
        return sorted(self.manager.switches)

    def book_entry(self, app: str, vip: str, switch_name: str, rips) -> None:
        """Record an installed entry in the registry and RIP index."""
        self.manager.registry.setdefault(app, {})[vip] = switch_name
        for rip in rips:
            self.manager.rip_index[rip] = (vip, switch_name)


#: The sharded plane's drift report: the seven table dimensions.
ShardDriftReport = TableDriftReport


class _MergedRipIndex(MutableMapping):
    """The facade's rip -> (vip, switch) view over all shard indices.

    Reads scan shards in id order; writes route to the shard owning the
    named switch (clearing stale copies elsewhere) so the instant-mode
    wiring path and the reconciler keep working unchanged against the
    sharded plane.
    """

    def __init__(self, plane: "ShardedControlPlane"):
        self._plane = plane

    def __getitem__(self, rip):
        for shard in self._plane.shards:
            if rip in shard.manager.rip_index:
                return shard.manager.rip_index[rip]
        raise KeyError(rip)

    def __setitem__(self, rip, value) -> None:
        _vip, switch_name = value
        target = self._plane.shard_of_switch(switch_name)
        for shard in self._plane.shards:
            if shard is not target:
                shard.manager.rip_index.pop(rip, None)
        if target is not None:
            target.manager.rip_index[rip] = value

    def __delitem__(self, rip) -> None:
        found = False
        for shard in self._plane.shards:
            if shard.manager.rip_index.pop(rip, None) is not None:
                found = True
        if not found:
            raise KeyError(rip)

    def __iter__(self):
        seen: set[str] = set()
        for shard in self._plane.shards:
            for rip in shard.manager.rip_index:
                if rip not in seen:
                    seen.add(rip)
                    yield rip

    def __len__(self) -> int:
        return sum(1 for _ in self)


#: The :class:`VipRipManager` settings passed on to every shard; a
#: fleet-wide selector or state snapshot would reach outside a shard.
SHARD_MANAGER_SETTINGS = frozenset({
    "hosting_lookup", "rehome_timeout_s", "rehome_backoff_s",
    "checkpoint_interval_s", "cutover_s", "replay_record_s",
})


def _recorded_weights(shard: ControlPlaneShard) -> dict[tuple[str, str], float]:
    """``(vip, rip) -> weight`` as *shard*'s durable state records it: each
    RIP's last applied ``new_rip`` record, else (the record truncated)
    its weight in the latest checkpoint."""
    weights = {}
    cp = shard.checkpoints.latest
    if cp is not None:
        for rip, weight in cp.rip_weights.items():
            weights[cp.rip_index[rip][0], rip] = weight
    for rec in shard.journal:
        if rec.kind == "new_rip" and rec.phase is OpPhase.APPLIED:
            p = rec.payload
            weights[p["vip"], p["rip"]] = p.get("weight", 1.0)
    return weights


class ShardedControlPlane:
    """Facade over N control-plane shards, duck-typing the serialized
    :class:`VipRipManager` surface the rest of the platform consumes.

    Requests reach the shards two ways: :meth:`submit` routes one through
    the owner shard's queue in simulated time (faults, knobs, E9/E14/E16
    load), and :meth:`wire` processes a batch of new VIPs and RIPs at
    once with the same decisions, for an initial wiring nobody measures.

    The facade reads *reconfig_s*, *on_vip_moved*, *retry_policy* (shared
    by every shard), *gossip_interval_s* and *trace*; *manager_settings*
    (:data:`SHARD_MANAGER_SETTINGS`) go unchanged to every shard's manager.
    """

    def __init__(
        self,
        env: "Environment",
        switches: list[LBSwitch],
        vip_pool,
        n_shards: int,
        *,
        reconfig_s: float = 3.0,
        on_vip_moved=None,
        gossip_interval_s: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
        trace=None,
        **manager_settings,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if unknown := sorted(manager_settings.keys() - SHARD_MANAGER_SETTINGS):
            raise TypeError(f"unexpected keyword arguments {unknown}")
        if n_shards > len(switches):
            raise ValueError(
                f"{n_shards} shards need at least {n_shards} switches, "
                f"got {len(switches)}"
            )
        self.env = env
        self.n_shards = n_shards
        self.vip_pool = vip_pool
        self.reconfig_s = reconfig_s
        self.on_vip_moved = on_vip_moved or (lambda vip, switch_name: None)
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.trace = trace
        self.ownership = ShardOwnershipMap(n_shards)

        ordered = sorted(switches, key=lambda s: s.name)
        self.all_switches: dict[str, LBSwitch] = {s.name: s for s in ordered}
        #: Round-robin slices keep shard fleets the same size +/- 1.
        self.shards: list[ControlPlaneShard] = [
            ControlPlaneShard(
                i,
                env,
                ordered[i::n_shards],
                vip_pool,
                trace=trace,
                reconfig_s=reconfig_s,
                on_vip_moved=on_vip_moved,
                retry_policy=self.retry_policy,
                **manager_settings,
            )
            for i in range(n_shards)
        ]
        self._switch_shard: dict[str, int] = {
            name: shard.id for shard in self.shards for name in shard.switch_names
        }
        #: Severed shard pairs (frozenset of two ids).
        self.partitions: set[frozenset[int]] = set()
        #: VIPs known to be duplicated by an optimistic adoption; the
        #: auditor excludes them from vip-single-home until resolved.
        self._conflicted: set[str] = set()

        # -- counters ------------------------------------------------------
        self.routed = 0
        self.handoffs = 0
        self.conflicts = 0
        self.rollbacks = 0
        self.transient_route_retries = 0
        #: Requests dropped because no live shard could take them.
        self.lost_routes = 0
        self.gossip_rounds = 0
        #: Rounds it took each observed drift episode to converge.
        self.convergence_rounds: list[int] = []
        self._rounds_since_clean = 0

        self._gossip_interval_s = gossip_interval_s
        self._gossip_proc = (
            env.process(self._gossip_loop()) if gossip_interval_s > 0 else None
        )

    # -- facade surface (VipRipManager duck type) --------------------------
    @property
    def crashed(self) -> bool:
        return any(s.crashed for s in self.shards)

    @property
    def _recovering(self) -> bool:
        return any(s.recovering for s in self.shards)

    def _sum(self, attr: str) -> int:
        return sum(getattr(s.manager, attr) for s in self.shards)

    @property
    def processed(self) -> int:
        return self._sum("processed")

    @property
    def rejected(self) -> int:
        return self._sum("rejected")

    @property
    def retries(self) -> int:
        return self._sum("retries")

    @property
    def errored(self) -> int:
        return self._sum("errored")

    @property
    def lost(self) -> int:
        return self._sum("lost") + self.lost_routes

    @property
    def replayed(self) -> int:
        return self._sum("replayed")

    @property
    def crashes(self) -> int:
        return self._sum("crashes")

    @property
    def rip_index(self) -> _MergedRipIndex:
        return _MergedRipIndex(self)

    def vips_in_flight(self) -> set[str]:
        busy: set[str] = set()
        for shard in self.shards:
            busy |= shard.manager.vips_in_flight()
        return busy

    def vips_of(self, app: str) -> dict[str, str]:
        """The owner shard's view of *app*'s VIP placements."""
        return dict(self.owner_shard(app).manager.registry.get(app, {}))

    def rip_homing(self) -> dict[str, tuple[str, str, str, float]]:
        """Authoritative ``rip -> (app, vip, switch, weight)`` across all
        shards, read straight off the switch tables.  Shards own disjoint
        switch slices, so merging per-shard snapshots cannot collide on a
        switch; a RIP transiently visible on two switches mid-migration
        resolves to the lexically-last switch (deterministic, and settled
        state never double-homes — the auditor checks that)."""
        homing: dict[str, tuple[str, str, str, float]] = {}
        for shard in self.shards:
            homing.update(shard.manager.rip_homing())
        return homing

    def mark_failed(self, switch_name: str) -> None:
        for shard in self.shards:
            shard.manager.mark_failed(switch_name)

    def mark_recovered(self, switch_name: str) -> None:
        for shard in self.shards:
            shard.manager.mark_recovered(switch_name)

    # -- topology ----------------------------------------------------------
    def shard_of_switch(self, switch_name: str) -> Optional[ControlPlaneShard]:
        idx = self._switch_shard.get(switch_name)
        return self.shards[idx] if idx is not None else None

    def owner_shard(self, app: str) -> ControlPlaneShard:
        return self.shards[self.ownership.owner_of(app)]

    def switches_for_app(self, app: str) -> list[LBSwitch]:
        """The owner shard's switch fleet (placement candidates)."""
        shard = self.owner_shard(app)
        return [shard.manager.switches[n] for n in shard.switch_names]

    def resolve_shard(self, name) -> Optional[ControlPlaneShard]:
        """Accepts a shard id, ``"shard-k"``, or the legacy ``"viprip"``
        target (-> shard 0, so existing manager_crash scripts keep
        working against a sharded plane)."""
        if isinstance(name, int):
            return self.shards[name] if 0 <= name < self.n_shards else None
        if name in (None, "", "viprip", "manager"):
            return self.shards[0]
        if isinstance(name, str) and name.startswith("shard-"):
            try:
                idx = int(name.split("-", 1)[1])
            except ValueError:
                return None
            return self.shards[idx] if 0 <= idx < self.n_shards else None
        return None

    def is_crashed(self, name) -> bool:
        shard = self.resolve_shard(name)
        return shard is not None and shard.crashed

    # -- crash / recovery --------------------------------------------------
    def crash(self, name="shard-0") -> None:
        shard = self.resolve_shard(name)
        if shard is None or shard.crashed:
            return
        shard.manager.crash()

    def recover(self, failed: Optional[set[str]] = None):
        """Recover every crashed shard in id order (a generator, like
        :meth:`VipRipManager.recover`); returns total records replayed."""
        replayed = 0
        for shard in self.shards:
            if shard.crashed:
                own_failed = (
                    {n for n in failed if n in shard.manager.switches}
                    if failed is not None
                    else None
                )
                replayed += yield from shard.manager.recover(failed=own_failed)
        return replayed

    # -- partitions --------------------------------------------------------
    def partition(self, a, b) -> bool:
        """Sever the gossip/coordination path between two shards."""
        sa, sb = self.resolve_shard(a), self.resolve_shard(b)
        if sa is None or sb is None or sa.id == sb.id:
            return False
        self.partitions.add(frozenset((sa.id, sb.id)))
        return True

    def heal(self, a, b) -> bool:
        sa, sb = self.resolve_shard(a), self.resolve_shard(b)
        if sa is None or sb is None:
            return False
        self.partitions.discard(frozenset((sa.id, sb.id)))
        return True

    def heal_all(self) -> None:
        self.partitions.clear()

    def _partitioned(self, i: int, j: int) -> bool:
        return i != j and frozenset((i, j)) in self.partitions

    def _reachable(self, shard: ControlPlaneShard, other: ControlPlaneShard) -> bool:
        return (
            not shard.crashed
            and not other.crashed
            and not shard.recovering
            and not other.recovering
            and not self._partitioned(shard.id, other.id)
        )

    # -- request routing ---------------------------------------------------
    def submit(self, request: VipRipRequest) -> Event:
        """Route a request to its app's owner shard.

        The returned event fires with the result exactly like the
        serialized manager's.  A crashed owner is retried with bounded
        deterministic backoff; if it stays down, ownership is handed off
        to a deterministic fallback shard (an emergency handoff — the
        old owner's durable state becomes a conflicting claim that
        anti-entropy rolls back once it is reachable again).
        """
        done = Event(self.env)
        self.env.process(self._route(request, done))
        return done

    def _route(self, req: VipRipRequest, done: Event):
        attempt = 0
        while True:
            shard = self.owner_shard(req.app)
            if not shard.crashed:
                break
            attempt += 1
            if not self.retry_policy.should_retry(attempt):
                fallback = self._fallback_shard(exclude={shard.id})
                if fallback is None:
                    # The whole control plane is down; drop the request
                    # the same way a crash drops queued work.
                    self.lost_routes += 1
                    if not done.triggered:
                        done.succeed(None)
                    return
                self._handoff(req.app, fallback.id, reason="owner-down")
                shard = fallback
                break
            self.transient_route_retries += 1
            yield self.env.timeout(
                self.retry_policy.backoff_s(
                    attempt, "route", req.kind, req.app, req.vip or req.rip or ""
                )
            )
        self.routed += 1
        if self.trace is not None and self.trace.enabled:
            self.trace.emit(
                "shard.route",
                t=self.env.now, app=req.app, op=req.kind,
                shard=shard.id, attempts=attempt,
            )
        if req.kind == "move_vip":
            moved = yield from self._maybe_cross_shard_move(shard, req, done)
            if moved:
                return
        inner = shard.manager.submit(req)
        inner.callbacks.append(lambda ev, d=done: self._finish(d, ev))

    def wire(self, requests: list[VipRipRequest]) -> list[Exception]:
        """Process a batch of ``new_vip``/``new_rip`` requests at once,
        each by its app's owner shard
        (:meth:`~repro.core.viprip.VipRipManager.wire_now`), with no
        event loop and no simulated time; returns the errors raised, in
        processing order.

        The order is the one the routed path takes when every request
        costs the same simulated time, as on equal shards: the shards
        alternate, one request each per round, in the order in which
        each shard received its first request, and each shard takes its
        own requests in submission order.  Only the shared VIP address
        pool sees the interleaving; everything else is shard-local.  So a
        construction-time wiring leaves the same journals, tables,
        registries and addresses as submitting every request and running
        the queue, without the event loop's cost per request.
        """
        queues: dict[ControlPlaneShard, list[VipRipRequest]] = {}
        owners: dict[str, ControlPlaneShard] = {}
        for req in requests:
            shard = owners.get(req.app)
            if shard is None:
                shard = owners[req.app] = self.owner_shard(req.app)
            if shard.crashed:
                raise RuntimeError(f"cannot wire {req.app}: {shard.name} is down")
            queues.setdefault(shard, []).append(req)
        errors = []
        for round_ in zip_longest(*queues.values()):
            for shard, req in zip(queues, round_):
                if req is not None:
                    error = shard.manager.wire_now(req)
                    if error is not None:
                        errors.append(error)
        return errors

    def _finish(self, done: Event, inner: Event) -> None:
        if done.triggered:
            return
        if inner.ok:
            done.succeed(inner.value)
        else:
            done.fail(inner.value)
            done.defuse()

    def _fallback_shard(self, exclude: set[int]) -> Optional[ControlPlaneShard]:
        """Deterministic emergency target: the lowest-id live shard."""
        for shard in self.shards:
            if shard.id not in exclude and not shard.crashed:
                return shard
        return None

    def _maybe_cross_shard_move(self, shard: ControlPlaneShard, req: VipRipRequest, done: Event):
        """A ``move_vip`` whose owner shard has no healthy target switch
        becomes an explicit cross-shard handoff: the whole app migrates
        to a reachable shard with capacity (the vip cannot stay — every
        in-shard candidate is failed or full).  Returns True when the
        move was completed here."""
        mgr = shard.manager
        src_name = req.switch
        if src_name is None:
            src_name = mgr.registry.get(req.app, {}).get(req.vip)
        if any(
            sw.name != src_name and can_land(sw, mgr.is_up, 0)
            for sw in mgr.switches.values()
        ):
            return False  # the shard can re-home it locally
        candidates = [
            s
            for s in self.shards
            if s is not shard
            and self._reachable(shard, s)
            and any(
                can_land(sw, s.manager.is_up, 0)
                for sw in s.manager.switches.values()
            )
        ]
        if not candidates:
            return False  # let the owner's serialized retry loop decide
        target_shard = min(candidates, key=lambda s: s.id)
        yield self.env.timeout(self.reconfig_s)
        self._handoff(req.app, target_shard.id, reason="move")
        placed = target_shard.manager.registry.get(req.app, {}).get(req.vip)
        if not done.triggered:
            done.succeed(placed)
        return True

    # -- handoff and state movement ----------------------------------------
    def _handoff(self, app: str, to_shard: int, reason: str) -> int:
        """Move *app*'s ownership under a fresh fencing epoch, propagate
        the claim to every reachable shard, and migrate (or optimistically
        adopt) the app's entries."""
        prev_epoch, prev_owner = self.ownership.claim_of(app)
        epoch, _ = self.ownership.handoff(app, to_shard)
        self.handoffs += 1
        if self.trace is not None and self.trace.enabled:
            self.trace.emit(
                "shard.handoff",
                t=self.env.now, app=app, src=prev_owner, dst=to_shard,
                epoch=epoch, reason=reason,
            )
        new = self.shards[to_shard]
        new.claims[app] = (epoch, to_shard)
        for shard in self.shards:
            if shard.id == to_shard or shard.crashed:
                continue  # a crashed shard learns via gossip after recovery
            if self._partitioned(shard.id, to_shard):
                continue  # its stale claim persists until the partition heals
            shard.claims[app] = (epoch, to_shard)
        old = self.shards[prev_owner]
        if prev_owner != to_shard:
            if old.crashed or self._partitioned(prev_owner, to_shard):
                self._adopt_app_state(app, old, new)
            else:
                self._migrate_app(app, old, new)
        return epoch

    def _journal_applied(self, shard: ControlPlaneShard, kind: str, app: str, **payload) -> None:
        """Journal an already-applied facade-level mutation on *shard* so
        a later crash replays consistent bookkeeping."""
        rec = shard.journal.append(kind, app, **payload)
        shard.journal.mark(rec, OpPhase.APPLIED)
        shard.manager.applied_epoch = max(shard.manager.applied_epoch, rec.epoch)

    def record_weights(self, app: str, vip: str, weights: Mapping[str, float]) -> None:
        """Journal a re-weight of *vip*'s RIPs made on the tables (knob K6)
        on each live shard that indexes them, as an applied ``new_rip``
        record at the new weight, so a repair restores the weight last set.
        A crashed or recovering shard keeps its older record."""
        for shard in self.shards:
            if shard.crashed or shard.recovering:
                continue
            for rip, weight in sorted(weights.items()):
                row = shard.manager.rip_index.get(rip)
                if row is not None and row[0] == vip:
                    self._journal_applied(
                        shard, "new_rip", app,
                        vip=vip, rip=rip, weight=weight, switch=row[1],
                    )

    def _place_entry(
        self, shard: ControlPlaneShard, app: str, entry: VipEntry
    ) -> Optional[str]:
        """Install *entry* on the best switch of *shard* that does not hold
        a copy of its VIP already, journal it, and book it on the shard.
        Returns the switch name."""
        mgr = shard.manager
        copies = [sw.name for sw in holders_of(mgr.switches, entry.vip)]
        target = landing_target(mgr.switches, mgr.is_up, len(entry.rips), copies)
        if target is None:
            return None
        target.install_entry(entry)
        self._journal_applied(shard, "new_vip", app, vip=entry.vip, switch=target.name)
        rips = sorted(entry.rips)
        for rip in rips:
            self._journal_applied(
                shard, "new_rip", app,
                vip=entry.vip, rip=rip, weight=entry.rips[rip], switch=target.name,
            )
        shard.book_entry(app, entry.vip, target.name, rips)
        return target.name

    def _drop_entry_bookkeeping(
        self, shard: ControlPlaneShard, app: str, vip: str, switch_name: str, rips
    ) -> None:
        self._journal_applied(
            shard, "del_vip", app, vip=vip, switch=switch_name, rips=sorted(rips)
        )
        shard.manager.registry.get(app, {}).pop(vip, None)
        if app in shard.manager.registry and not shard.manager.registry[app]:
            del shard.manager.registry[app]
        for rip in rips:
            shard.manager.rip_index.pop(rip, None)

    def _migrate_app(self, app: str, src: ControlPlaneShard, dst: ControlPlaneShard) -> int:
        """Live -> live handoff: physically move every entry of *app*."""
        moved = 0
        placements = sorted(src.manager.registry.get(app, {}).items())
        for vip, sw_name in placements:
            holders = holders_of(src.manager.switches, vip)
            if not holders:
                # Registry points at nothing physical; drop the stale
                # bookkeeping — local repair recreates the vip if needed.
                self._drop_entry_bookkeeping(src, app, vip, sw_name, [])
                continue
            holder = next((h for h in holders if h.name == sw_name), holders[0])
            moved += self._move_entry(app, src, dst, holder, vip)
        # Entries the registry does not know about (integrated mode keeps
        # intended state in the platform registry, not per-shard): move
        # whatever the data plane still shows for this app.
        handled = {vip for vip, _ in placements}
        for name in src.switch_names:
            sw = src.manager.switches[name]
            for vip in sw.vips_of_app(app):
                if vip not in handled:
                    moved += self._move_entry(app, src, dst, sw, vip)
        return moved

    def _move_entry(
        self,
        app: str,
        src: ControlPlaneShard,
        dst: ControlPlaneShard,
        holder: LBSwitch,
        vip: str,
    ) -> int:
        """Move *vip*'s entry from *holder* (a switch of *src*) onto *dst*
        with every RIP row *src* indexes under *vip*; returns 1, or 0 when
        *dst* has no room and the entry stays put.  A row the entry lacks
        is booked and journaled on *dst* at its recorded weight, so *dst*'s
        repair re-adds the RIP."""
        entry = holder.remove_vip(vip)
        landed = self._place_entry(dst, app, entry)
        if landed is None:
            holder.install_entry(entry)  # no capacity; retry next round
            return 0
        missing = sorted(
            rip for rip, (v, _) in src.manager.rip_index.items()
            if v == vip and rip not in entry.rips
        )
        if missing:
            weights = _recorded_weights(src)
            for rip in missing:
                self._journal_applied(
                    dst, "new_rip", app, vip=vip, rip=rip,
                    weight=weights.get((vip, rip), 1.0), switch=landed,
                )
            dst.book_entry(app, vip, landed, missing)
        self._drop_entry_bookkeeping(
            src, app, vip, holder.name, [*entry.rips, *missing]
        )
        self.on_vip_moved(vip, landed)
        return 1

    def _adopt_app_state(self, app: str, src: ControlPlaneShard, dst: ControlPlaneShard) -> int:
        """Optimistic adoption when the old owner is unreachable (crashed
        or partitioned): *copy* the entries the data plane shows — reads
        stay allowed, that is the partition-tolerance trade — and leave
        the old copies in place as conflicting claims for anti-entropy
        to roll back later."""
        adopted = 0
        for name in src.switch_names:
            sw = src.manager.switches[name]
            for vip in sw.vips_of_app(app):
                stale = sw.entry(vip)
                entry = VipEntry(vip=vip, app=app, rips=dict(stale.rips))
                landed = self._place_entry(dst, app, entry)
                if landed is None:
                    continue
                self.conflicts += 1
                self._conflicted.add(vip)
                if self.trace is not None and self.trace.enabled:
                    self.trace.emit(
                        "shard.conflict",
                        t=self.env.now, app=app, vip=vip,
                        loser=src.id, winner=dst.id, resolution="adopted",
                    )
                self.on_vip_moved(vip, landed)
                adopted += 1
        return adopted

    # -- anti-entropy gossip -----------------------------------------------
    def _gossip_loop(self):
        while True:
            yield self.env.timeout(self._gossip_interval_s)
            self.gossip_round()

    def gossip_round(self) -> int:
        """One anti-entropy round; returns the number of repairs made.

        1. Pairwise claim sync between reachable live shards — epochs
           merge last-writer-wins.
        2. Loser rollback: a shard holding state for an app it no longer
           owns relinquishes it (migrating entries the owner lacks,
           deleting duplicates the owner already serves).
        3. Per-shard local repair: registry / rip-index / table
           consistency inside each shard.

        Pure bookkeeping at one instant, like a reconciler pass; crashed,
        recovering, and partitioned shards are simply skipped — their
        drift survives to the next round.
        """
        self.gossip_rounds += 1
        busy = self.vips_in_flight()
        changes = 0
        changes += self._sync_claims()
        changes += self._rollback_losers(busy)
        for shard in self.shards:
            if shard.crashed or shard.recovering:
                continue
            changes += self._local_repair(shard, busy)
        self._refresh_conflicts()

        report = self.drift_report()
        if report.clean and not self._conflicted:
            if self._rounds_since_clean > 0:
                self.convergence_rounds.append(self._rounds_since_clean)
                if self.trace is not None and self.trace.enabled:
                    self.trace.emit(
                        "shard.converge",
                        t=self.env.now, rounds=self._rounds_since_clean,
                        repairs=changes,
                    )
            self._rounds_since_clean = 0
        else:
            self._rounds_since_clean += 1
        return changes

    def converge(self, max_rounds: Optional[int] = None) -> Optional[int]:
        """Run gossip rounds until the plane is drift-free; returns the
        number of rounds it took, or ``None`` if *max_rounds* (default
        ``2 * n_shards + 4``) was not enough."""
        limit = max_rounds if max_rounds is not None else 2 * self.n_shards + 4
        for rounds in range(limit + 1):
            self._refresh_conflicts()
            if self.drift_report().clean and not self._conflicted:
                return rounds
            if rounds == limit:
                break
            self.gossip_round()
        return None

    def _sync_claims(self) -> int:
        merged = 0
        for i in range(self.n_shards):
            for j in range(i + 1, self.n_shards):
                a, b = self.shards[i], self.shards[j]
                if not self._reachable(a, b):
                    continue
                for app in sorted(set(a.claims) | set(b.claims)):
                    ca, cb = a.claims.get(app), b.claims.get(app)
                    if ca == cb:
                        continue
                    # Last writer wins; owner id is a deterministic
                    # tie-break (equal epochs only happen at epoch 0).
                    winner = max(c for c in (ca, cb) if c is not None)
                    a.claims[app] = winner
                    b.claims[app] = winner
                    merged += 1
        return merged

    def _apps_touching(self, shard: ControlPlaneShard) -> set[str]:
        apps = set(shard.manager.registry)
        for name in shard.switch_names:
            sw = shard.manager.switches[name]
            for vip in sw.vips():
                apps.add(sw.entry(vip).app)
        return apps

    def _claimed_owner(self, shard: ControlPlaneShard, app: str) -> int:
        claim = shard.claims.get(app)
        if claim is None:
            claim = (0, self.ownership.default_owner(app))
        return claim[1]

    def _rollback_losers(self, busy: set[str]) -> int:
        rolled = 0
        for shard in self.shards:
            if shard.crashed or shard.recovering:
                continue
            for app in sorted(self._apps_touching(shard)):
                owner_id = self._claimed_owner(shard, app)
                if owner_id == shard.id:
                    continue
                owner = self.shards[owner_id]
                if not self._reachable(shard, owner):
                    continue  # keep the stale copy until it is reachable
                rolled += self._rollback_app(app, shard, owner, busy)
        return rolled

    def _rollback_app(
        self,
        app: str,
        loser: ControlPlaneShard,
        owner: ControlPlaneShard,
        busy: set[str],
    ) -> int:
        """Epoch-fenced LWW resolution: *loser* relinquishes its copy of
        *app* to *owner* — physically moving entries the owner lacks,
        deleting the ones it already serves."""
        fixed = 0
        for name in loser.switch_names:
            sw = loser.manager.switches[name]
            for vip in sw.vips_of_app(app):
                if vip in busy:
                    continue
                owner_holders = holders_of(owner.manager.switches, vip)
                entry = sw.remove_vip(vip)
                self._drop_entry_bookkeeping(loser, app, vip, name, list(entry.rips))
                resolution = "rollback"
                if not owner_holders:
                    landed = self._place_entry(owner, app, entry)
                    if landed is None:
                        # Owner has no capacity yet: keep the loser copy
                        # alive rather than black-holing the vip.
                        sw.install_entry(entry)
                        loser.book_entry(app, vip, name, entry.rips)
                        continue
                    resolution = "migrated"
                    self.on_vip_moved(vip, landed)
                else:
                    # The winner already serves this vip; merge any rips
                    # only the losing copy knew about, then let the
                    # duplicate die with the removal above.
                    owner_holder = owner_holders[0]
                    for rip in owner_holder.merge_rips(vip, entry.rips):
                        owner.manager.rip_index[rip] = (vip, owner_holder.name)
                    self.on_vip_moved(vip, owner_holder.name)
                self.rollbacks += 1
                self.conflicts += 1
                fixed += 1
                if self.trace is not None and self.trace.enabled:
                    self.trace.emit(
                        "shard.conflict",
                        t=self.env.now, app=app, vip=vip,
                        loser=loser.id, winner=owner.id, resolution=resolution,
                    )
        # Stale registry rows with no physical entry behind them; a row
        # the no-room restore above re-booked has its entry back on a
        # loser switch.
        for vip, sw_name in sorted(dict(loser.manager.registry.get(app, {})).items()):
            if vip in busy or holders_of(loser.manager.switches, vip):
                continue
            self._drop_entry_bookkeeping(loser, app, vip, sw_name, [])
            fixed += 1
        return fixed

    def _local_repair(self, shard: ControlPlaneShard, busy: set[str]) -> int:
        """Scan the shard's switches against the rows of the apps it claims
        and its RIP index, and repair; the rest is the rollback pass's."""
        mgr = shard.manager
        view = DriftView(
            vips={
                vip: (app, sw_name) for app, row in mgr.registry.items()
                if self._claimed_owner(shard, app) == shard.id
                for vip, sw_name in row.items()
            },
            rips=mgr.rip_index,
            weights=_recorded_weights(shard),
            switches=mgr.switches,
            fleet=self.all_switches,
            busy=busy,
            # Booked by any shard, or an entry another shard claims.
            vip_accounted=self._booked_vips() | {
                vip for sw in mgr.switches.values() for vip in sw.vips()
                if self._claimed_owner(shard, sw.entry(vip).app) != shard.id
            },
            rip_accounted=self._indexed_rips(),
        )

        def rehome(app: str, vip: str, switch_name: str) -> None:
            shard.book_entry(app, vip, switch_name, ())
            self.on_vip_moved(vip, switch_name)

        hooks = RepairHooks(rehome=rehome, book=shard.book_entry)
        return sum(repair(f, view, mgr.is_up, hooks) is None for f in scan(view))

    def _refresh_conflicts(self) -> None:
        self._conflicted = {
            vip
            for vip in self._conflicted
            if len(holders_of(self.all_switches, vip)) > 1
        }

    def vips_in_conflict(self) -> set[str]:
        """VIPs currently duplicated by an optimistic adoption — a
        legitimate transient the auditor must not flag; cleared as soon
        as the duplicates resolve."""
        self._refresh_conflicts()
        return set(self._conflicted)

    # -- drift scan ---------------------------------------------------------
    def _booked_vips(self) -> set[str]:
        """Every VIP some shard's registry records."""
        rows = (row for s in self.shards for row in s.manager.registry.values())
        return {vip for row in rows for vip in row}

    def _indexed_rips(self) -> set[str]:
        """Every RIP some shard's index records."""
        return set().union(*(s.manager.rip_index for s in self.shards))

    def drift_report(self) -> ShardDriftReport:
        """Read-only scan of the owner registries under the newest claims,
        each shard's RIP index against that shard's recorded weights, and
        the tables, plus the registry rows of shards not owning the app."""
        report = ShardDriftReport(t=self.env.now)
        busy = self.vips_in_flight()
        vips = {}
        for shard in self.shards:
            for app, row in shard.manager.registry.items():
                if self.owner_shard(app) is shard:
                    vips.update((vip, (app, sw_name)) for vip, sw_name in row.items())
                else:
                    report.index_stale += sum(1 for vip in row if vip not in busy)
        view = DriftView(
            vips=vips,
            rips={},
            weights={},
            switches=self.all_switches,
            fleet=self.all_switches,
            busy=busy,
            vip_accounted=self._booked_vips(),
            rip_accounted=self._indexed_rips(),
        )
        report.count(scan_vip_rows(view))
        for shard in self.shards:
            report.count(scan_rip_rows(replace(
                view, rips=shard.manager.rip_index, weights=_recorded_weights(shard),
            )))
        return report.count(scan_tables(view))

    # -- summary -------------------------------------------------------------
