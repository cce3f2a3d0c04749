"""The VIP/RIP manager (Section III-C).

All LB switches are a globally shared resource; every component that needs
a VIP/RIP (re)configuration — pod managers, the global manager's own
balancers — submits a request here.  The manager *serializes* the requests
and processes them by priority: for a new VIP it picks an underloaded
switch and allocates an address; for a new RIP it picks the most
appropriate switch among those hosting one of the application's VIPs.

Decision cost is charged through the pluggable switch-selection strategy
(flat scan vs. switch pods — Section V-A), and the actual table write costs
one switch-reconfiguration latency.  Experiment E9 measures the resulting
sustained request throughput.  An initial wiring nobody measures can skip
the queue: :meth:`~VipRipManager.wire_now` runs the same decide and settle
steps at once.

Crash safety (``repro.controlplane``): when a :class:`WriteAheadJournal`
is attached, every reconfiguration is journaled *intent-before-apply*
with a monotonically increasing epoch.  A ``manager_crash`` fault may
then :meth:`~VipRipManager.crash` the manager mid-operation — wiping the
volatile queue, registry and RIP index, and possibly leaving a switch
half-configured inside a ``move_vip`` cutover — and
:meth:`~VipRipManager.recover` restores the latest checkpoint and
replays the journal tail with epoch-fenced, idempotent applies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.controlplane.journal import OpPhase
from repro.controlplane.retry import RetryPolicy, TransientError
from repro.core.switch_pods import FlatSwitchManager, Selection
from repro.lbswitch.addresses import AddressPool
from repro.lbswitch.switch import LBSwitch, VipEntry, holders_of
from repro.sim.events import Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.checkpoint import CheckpointStore
    from repro.controlplane.journal import JournalRecord, WriteAheadJournal
    from repro.sim.core import Environment

OP_INTENT = OpPhase.INTENT
OP_PREPARED = OpPhase.PREPARED
OP_APPLIED = OpPhase.APPLIED
OP_ABORTED = OpPhase.ABORTED

#: Recovery cost of loading the latest checkpoint (seconds).
RESTORE_S = 1.0


class UnknownRequestKind(LookupError):
    """A request kind the serialized processor has no handler for.

    Subclasses :class:`LookupError` so fault-path callers can catch it
    deliberately instead of seeing a bare ``AttributeError`` escape the
    dispatch.
    """


@dataclass
class VipRipRequest:
    """One configuration request.

    ``kind`` is one of ``new_vip``, ``new_rip``, ``del_rip``,
    ``move_vip``.  Lower ``priority`` runs earlier.

    Field combinations are validated at construction so a malformed
    request fails at submission, not deep inside the serialized
    processor:

    ========== ============== ===============================
    kind       requires       must be unset
    ========== ============== ===============================
    new_vip    —              vip, rip
    new_rip    rip, weight>0  vip
    del_rip    rip            vip
    move_vip   vip            rip  (``switch`` names the source)
    ========== ============== ===============================
    """

    kind: str
    app: str
    priority: int = 10
    vip: Optional[str] = None
    rip: Optional[str] = None
    weight: float = 1.0
    #: Source switch of a ``move_vip`` (defaults to the registry's view).
    switch: Optional[str] = None
    #: Transient-failure retries already consumed (see
    #: :class:`repro.controlplane.retry.RetryPolicy`).
    attempts: int = 0
    done: Optional[Event] = field(default=None, repr=False)
    result: Any = None

    _KINDS = ("new_vip", "new_rip", "del_rip", "move_vip")
    _NEEDS_VIP = ("move_vip",)
    _NEEDS_RIP = ("new_rip", "del_rip")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.kind in self._NEEDS_VIP and self.vip is None:
            raise ValueError(f"{self.kind} request for {self.app!r} needs a vip")
        if self.kind in self._NEEDS_RIP and self.rip is None:
            raise ValueError(f"{self.kind} request for {self.app!r} needs a rip")
        if self.kind not in self._NEEDS_VIP and self.vip is not None:
            raise ValueError(f"{self.kind} request must not carry a vip")
        if self.kind not in self._NEEDS_RIP and self.rip is not None:
            raise ValueError(f"{self.kind} request must not carry a rip")
        if self.kind == "new_rip" and self.weight <= 0:
            raise ValueError("new_rip weight must be positive")
        if self.kind != "move_vip" and self.switch is not None:
            raise ValueError("only move_vip requests may name a source switch")


class VipRipManager:
    """Serialized processor of VIP/RIP configuration requests."""

    def __init__(
        self,
        env: "Environment",
        switches: list[LBSwitch],
        vip_pool: AddressPool,
        selector=None,
        reconfig_s: float = 3.0,
        hosting_lookup=None,
        on_vip_moved=None,
        rehome_timeout_s: float = 120.0,
        rehome_backoff_s: float = 2.0,
        journal: Optional["WriteAheadJournal"] = None,
        checkpoints: Optional["CheckpointStore"] = None,
        checkpoint_interval_s: float = 0.0,
        cutover_s: float = 0.0,
        replay_record_s: float = 0.2,
        state_snapshot: Optional[Callable[[], dict]] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.env = env
        self.switches = {s.name: s for s in switches}
        self.vip_pool = vip_pool
        self.selector = selector if selector is not None else FlatSwitchManager(switches)
        self.reconfig_s = reconfig_s
        #: Optional callable ``app -> {vip: switch_name}`` overriding the
        #: internal registry for RIP placement — used when an external
        #: component (the datacenter facade) owns VIP placement.
        self.hosting_lookup = hosting_lookup
        #: Optional callable ``(vip, new_switch_name)`` invoked after a
        #: successful move_vip so external registries stay consistent.
        self.on_vip_moved = on_vip_moved
        #: Total time budget of one move_vip request; past it the request
        #: is rejected so a flapping switch cannot wedge the serial queue.
        self.rehome_timeout_s = rehome_timeout_s
        #: Initial retry backoff of a failed move_vip attempt (doubles).
        self.rehome_backoff_s = rehome_backoff_s
        #: Switches currently failed; never selected as targets.
        self.failed: set[str] = set()
        # app -> {vip -> switch name}
        self.registry: dict[str, dict[str, str]] = {}
        # rip -> (vip, switch name)
        self.rip_index: dict[str, tuple[str, str]] = {}
        self.processed = 0
        self.rejected = 0
        self.retries = 0
        #: Bounded-backoff requeues of requests whose handler raised
        #: :class:`~repro.controlplane.retry.TransientError`.
        self.transient_retries = 0
        #: Retry discipline for transient request failures.
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        #: Requests currently sitting out a transient-failure backoff.
        self._retrying: list[VipRipRequest] = []
        #: Requests whose handler raised; each fails its ``done`` event
        #: with the error instead of wedging the serialized processor.
        self.errored = 0
        self.busy_s = 0.0
        #: Optional trace bus (set by the facade); each successfully
        #: processed request emits one ``viprip.apply`` event.
        self.trace = None

        # -- crash safety (repro.controlplane) --------------------------------
        #: Durable write-ahead journal; ``None`` disables crash safety.
        self.journal = journal
        self.checkpoints = checkpoints
        self.checkpoint_interval_s = checkpoint_interval_s
        #: Width of the move_vip window between the entry leaving the
        #: source switch and landing on the target — a crash inside it
        #: leaves the switch half-configured (journal phase PREPARED).
        self.cutover_s = cutover_s
        #: Recovery cost charged per replayed journal record.
        self.replay_record_s = replay_record_s
        self.state_snapshot = state_snapshot
        #: Highest journal epoch whose effects are in the live registries.
        self.applied_epoch = 0
        self.crashed = False
        self._recovering = False
        self.crashes = 0
        #: Queued/in-flight requests dropped by crashes (their ``done``
        #: events complete with ``None`` — the dropped-reconfiguration
        #: metric of E14).
        self.lost = 0
        #: Journal records re-applied across all recoveries.
        self.replayed = 0

        self._heap: list[tuple[int, int, VipRipRequest]] = []
        self._seq = count()
        self._wake: Optional[Event] = None
        self._inflight: Optional[VipRipRequest] = None
        self._proc = env.process(self._run())
        self._cp_proc = None
        self._start_checkpoint_daemon()

    # -- client API ---------------------------------------------------------
    def submit(self, request: VipRipRequest) -> Event:
        """Queue a request; the returned event fires with the result.

        Requests submitted while the manager is crashed stay queued (the
        clients' retry queues) and are processed after recovery — unless a
        further crash wipes them first.
        """
        request.done = Event(self.env)
        heapq.heappush(self._heap, (request.priority, next(self._seq), request))
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
        return request.done

    def wire_now(self, req: VipRipRequest) -> Optional[Exception]:
        """Process a ``new_vip`` or ``new_rip`` request at once, outside
        the queue: the handler's decide and settle steps with no
        simulated time between them, so its INTENT record is APPLIED
        before this returns.  Sets ``req.result`` and counts
        ``processed``, ``rejected`` and ``errored`` as the serialized
        processor would; returns the error a failing step raised (an
        exhausted address pool, say), else None.  No trace event is
        emitted; the journal still emits its commits."""
        if req.kind not in ("new_vip", "new_rip"):
            raise ValueError(f"wire_now takes new_vip and new_rip, not {req.kind}")
        req.result = None
        try:
            if req.kind == "new_vip":
                selection = self._vip_selection()
                if selection.switch is not None:
                    name = selection.switch.name
                    vip, rec = self._intend_new_vip(req.app, name)
                    req.result = self._settle_new_vip(req.app, vip, name, rec)
            else:
                req.result = self._landed_rip(req.rip)
                if req.result is None:
                    selection = self._rip_selection(req.app)
                    if selection.switch is not None:
                        vip, rec = self._intend_new_rip(req, selection.switch)
                        req.result = self._settle_new_rip(
                            req, vip, selection.switch.name, rec
                        )
        except Exception as exc:
            self.errored += 1
            return exc
        if req.result is None:
            self.rejected += 1
        self.processed += 1
        return None

    def vips_of(self, app: str) -> dict[str, str]:
        """app's VIPs -> hosting switch name."""
        return dict(self.registry.get(app, {}))

    def vips_in_flight(self) -> set[str]:
        """VIPs with queued, in-flight, or journal-unsettled operations.

        The anti-entropy reconciler must not treat these as drift: the
        serialized processor (or crash recovery) owns their state until
        the operation settles."""
        busy: set[str] = set()
        if self._inflight is not None and self._inflight.vip is not None:
            busy.add(self._inflight.vip)
        for _, _, req in self._heap:
            if req.vip is not None:
                busy.add(req.vip)
        for req in self._retrying:
            if req.vip is not None:
                busy.add(req.vip)
        if self.journal is not None:
            for rec in self.journal.unsettled:
                vip = rec.payload.get("vip")
                if vip is not None:
                    busy.add(vip)
        return busy

    def rip_homing(self) -> dict[str, tuple[str, str, str, float]]:
        """Authoritative ``rip -> (app, vip, switch, weight)`` snapshot.

        Read straight off the switch tables this manager owns (not the
        volatile registries), so it is exactly the state a columnar RIP
        mirror must converge to.  Rebuild source for
        :class:`~repro.controlplane.bridge.RipJournalBridge`.
        """
        homing: dict[str, tuple[str, str, str, float]] = {}
        for name in sorted(self.switches):
            switch = self.switches[name]
            for vip in switch.vips():
                entry = switch.entry(vip)
                for rip in sorted(entry.rips):
                    homing[rip] = (entry.app, vip, name, float(entry.rips[rip]))
        return homing

    # -- fault awareness ----------------------------------------------------
    def mark_failed(self, switch_name: str) -> None:
        """Exclude a switch from every selection until it recovers."""
        if switch_name in self.switches:
            self.failed.add(switch_name)

    def mark_recovered(self, switch_name: str) -> None:
        self.failed.discard(switch_name)

    # -- crash / recovery --------------------------------------------------
    def crash(self) -> None:
        """Kill the manager mid-operation (the ``manager_crash`` fault).

        Volatile memory is lost: the request queue (each entry's ``done``
        completes with ``None`` and counts as ``lost``), the in-flight
        request, the registry and RIP index.  The write-ahead journal and
        checkpoints model durable storage and survive; the in-flight
        operation's journal record keeps whatever phase it reached, so a
        half-configured switch is visible to :meth:`recover`.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("manager crash")
        self._proc = None
        if self._cp_proc is not None and self._cp_proc.is_alive:
            self._cp_proc.interrupt("manager crash")
        self._cp_proc = None
        dropped = [req for _, _, req in self._heap]
        dropped.extend(self._retrying)
        self._retrying = []
        if self._inflight is not None:
            dropped.append(self._inflight)
            self._inflight = None
        for req in dropped:
            self.lost += 1
            if req.done is not None and not req.done.triggered:
                req.done.succeed(None)
        self._heap = []
        self._wake = None
        self.registry = {}
        self.rip_index = {}
        self.applied_epoch = 0

    def recover(self, failed: Optional[set[str]] = None):
        """Restart a crashed manager: restore the latest checkpoint, replay
        the journal tail (epoch-fenced, idempotent), resume processing.

        A generator — drive it inside a process so restore and per-record
        replay charge simulated time.  Returns the number of records
        replayed.  *failed* refreshes the volatile failed-switch set from
        the caller's (durable) view.
        """
        if not self.crashed or self._recovering:
            return 0  # already up, or a concurrent recovery owns the work
        self._recovering = True
        try:
            if failed is not None:
                self.failed = set(failed)
            yield self.env.timeout(RESTORE_S)
            if self.checkpoints is not None:
                self.registry = self.checkpoints.restore_registry()
                self.rip_index = self.checkpoints.restore_rip_index()
                self.applied_epoch = self.checkpoints.epoch
            else:
                self.registry = {}
                self.rip_index = {}
                self.applied_epoch = 0
            replayed = 0
            if self.journal is not None:
                replayed = yield from self.replay()
            self.crashed = False
            self._proc = self.env.process(self._run())
            self._start_checkpoint_daemon()
            return replayed
        finally:
            self._recovering = False

    def replay(self):
        """Replay the journal tail past :attr:`applied_epoch`.

        Epoch fencing makes a second replay of the same journal a no-op:
        records at or below the fence are skipped, settled records only
        redo (idempotent) bookkeeping, and unsettled records are completed
        and settled on first replay.
        """
        count_ = 0
        for rec in self.journal.tail(self.applied_epoch):
            if rec.epoch <= self.applied_epoch:
                continue
            yield from self._replay_record(rec)
            self.applied_epoch = max(self.applied_epoch, rec.epoch)
            self.replayed += 1
            count_ += 1
        return count_

    def take_checkpoint(self):
        """Snapshot the registries at the current applied epoch and drop
        the settled journal prefix it covers."""
        if self.checkpoints is None:
            return None
        state = self.state_snapshot() if self.state_snapshot is not None else None
        cp = self.checkpoints.capture(
            self.applied_epoch, self.env.now, self.registry, self.rip_index, state
        )
        if self.journal is not None:
            self.checkpoints.truncated += self.journal.truncate_through(cp.epoch)
        return cp

    def _start_checkpoint_daemon(self) -> None:
        if self.checkpoints is not None and self.checkpoint_interval_s > 0:
            self._cp_proc = self.env.process(self._checkpoint_loop())

    def _checkpoint_loop(self):
        try:
            while True:
                yield self.env.timeout(self.checkpoint_interval_s)
                self.take_checkpoint()
        except Interrupt:
            return

    # -- journal helpers ----------------------------------------------------
    def _journal_append(self, kind: str, app: str, **payload):
        if self.journal is None:
            return None
        return self.journal.append(kind, app, **payload)

    def _journal_mark(self, rec, phase, **payload) -> None:
        if rec is not None:
            self.journal.mark(rec, phase, **payload)

    def _journal_settle(self, rec, phase, **payload) -> None:
        """Mark a record APPLIED/ABORTED and advance the epoch fence."""
        if rec is None:
            return
        self.journal.mark(rec, phase, **payload)
        self.applied_epoch = max(self.applied_epoch, rec.epoch)

    # -- processor -------------------------------------------------------------
    def _run(self):
        try:
            while True:
                while not self._heap:
                    self._wake = Event(self.env)
                    yield self._wake
                _, _, req = heapq.heappop(self._heap)
                self._inflight = req
                started = self.env.now
                try:
                    yield from self._process(req)
                except Interrupt:
                    raise
                except Exception as exc:
                    self.busy_s += self.env.now - started
                    self._inflight = None
                    if isinstance(exc, TransientError) and self.retry_policy.should_retry(
                        req.attempts + 1
                    ):
                        # Transient failure within budget: requeue after a
                        # deterministic backoff instead of failing the
                        # requester on the first hiccup.
                        req.attempts += 1
                        self.transient_retries += 1
                        self._retrying.append(req)
                        self.env.process(self._requeue_after_backoff(req))
                        continue
                    # Contain per-request failures: the serialized
                    # processor must survive one bad request.  The
                    # requester sees the error through its done event
                    # (defused so an ignored event cannot crash the
                    # kernel); everyone queued behind keeps being served.
                    self.errored += 1
                    if req.done is not None and not req.done.triggered:
                        req.done.fail(exc)
                        req.done.defuse()
                    continue
                self.busy_s += self.env.now - started
                self.processed += 1
                self._inflight = None
                if self.trace is not None and self.trace.enabled:
                    self.trace.emit(
                        "viprip.apply", t=self.env.now, op=req.kind,
                        app=req.app, ok=req.result is not None,
                    )
                if req.done is not None and not req.done.triggered:
                    req.done.succeed(req.result)
        except Interrupt:
            return  # crashed; recover() starts a fresh processor

    def _requeue_after_backoff(self, req: VipRipRequest):
        """Sleep out a transient-failure backoff, then requeue *req*.

        The delay is a pure function of the request identity and attempt
        number, so identical runs replay identical retry times.  A crash
        during the backoff drops the request exactly like a queued one
        (its ``done`` completes with ``None`` and counts as lost)."""
        yield self.env.timeout(
            self.retry_policy.backoff_s(
                req.attempts, req.kind, req.app, req.vip or req.rip or ""
            )
        )
        if req in self._retrying:
            self._retrying.remove(req)
        if req.done is not None and req.done.triggered:
            return  # dropped by a crash while backing off
        if self.crashed:
            self.lost += 1
            if req.done is not None and not req.done.triggered:
                req.done.succeed(None)
            return
        heapq.heappush(self._heap, (req.priority, next(self._seq), req))
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _process(self, req: VipRipRequest):
        try:
            handler = self._HANDLERS[req.kind]
        except KeyError:
            raise UnknownRequestKind(req.kind) from None
        yield from handler(self, req)

    def _charge(self, selection: Selection):
        if selection.cost_s > 0:
            yield self.env.timeout(selection.cost_s)

    # -- decide and settle steps (the handlers and wire_now share them) -----
    def _vip_selection(self) -> Selection:
        return self.selector.select_for_vip(exclude=self.failed)

    def _intend_new_vip(self, app: str, switch_name: str):
        """Allocate the new VIP's address and journal the intent; returns
        ``(vip, record)``.  Raises when the address pool is exhausted."""
        vip = self.vip_pool.allocate()
        return vip, self._journal_append("new_vip", app, vip=vip, switch=switch_name)

    def _settle_new_vip(self, app: str, vip: str, switch_name: str, rec):
        self._apply_new_vip(app, vip, switch_name)
        self._journal_settle(rec, OP_APPLIED)
        return (vip, switch_name)

    def _landed_rip(self, rip: Optional[str]) -> Optional[tuple[str, str]]:
        """``(vip, switch)`` of a RIP already served where the index says,
        else None: a duplicate (or replayed) wiring returns it as is."""
        existing = self.rip_index.get(rip)
        if existing is not None:
            vip, switch_name = existing
            sw = self.switches.get(switch_name)
            if sw is not None and sw.serves(vip, rip):
                return existing
        return None

    def _rip_selection(self, app: str) -> Selection:
        if self.hosting_lookup is not None:
            vip_map = self.hosting_lookup(app)
        else:
            vip_map = self.registry.get(app, {})
        # A VIP can be mid-transfer (off both switches); only switches
        # actually holding one of the app's VIPs can take the RIP.  Under
        # sharding the lookup may name switches owned by other shards —
        # those are simply not candidates here.
        hosting = [
            s
            for s in (self.switches.get(name) for name in vip_map.values())
            if s is not None and s.vips_of_app(app) and s.name not in self.failed
        ]
        return self.selector.select_for_rip(hosting, exclude=self.failed)

    def _intend_new_rip(self, req: VipRipRequest, switch: LBSwitch):
        """Put the RIP under the least-loaded of the app's VIPs on the
        chosen *switch* (it hosts at least one) and journal the intent;
        returns ``(vip, record)``."""
        vips = switch.vips_of_app(req.app)
        vip = min(vips, key=lambda v: len(switch.entry(v).rips))
        rec = self._journal_append(
            "new_rip",
            req.app,
            vip=vip,
            rip=req.rip,
            weight=req.weight,
            switch=switch.name,
        )
        return vip, rec

    def _settle_new_rip(self, req: VipRipRequest, vip: str, switch_name: str, rec):
        self._apply_new_rip(vip, req.rip, req.weight, switch_name)
        self._journal_settle(rec, OP_APPLIED)
        return (vip, switch_name)

    def _do_new_vip(self, req: VipRipRequest):
        selection = self._vip_selection()
        yield from self._charge(selection)
        if selection.switch is None:
            self.rejected += 1
            req.result = None
            return
        vip, rec = self._intend_new_vip(req.app, selection.switch.name)
        yield self.env.timeout(self.reconfig_s)
        req.result = self._settle_new_vip(req.app, vip, selection.switch.name, rec)

    def _do_new_rip(self, req: VipRipRequest):
        landed = self._landed_rip(req.rip)
        if landed is not None:
            req.result = landed
            return
        selection = self._rip_selection(req.app)
        yield from self._charge(selection)
        if selection.switch is None or req.rip is None:
            self.rejected += 1
            req.result = None
            return
        vip, rec = self._intend_new_rip(req, selection.switch)
        yield self.env.timeout(self.reconfig_s)
        req.result = self._settle_new_rip(req, vip, selection.switch.name, rec)

    def _do_del_rip(self, req: VipRipRequest):
        if req.rip is None or req.rip not in self.rip_index:
            self.rejected += 1
            return
        vip, switch_name = self.rip_index[req.rip]
        rec = self._journal_append(
            "del_rip", req.app, vip=vip, rip=req.rip, switch=switch_name
        )
        yield self.env.timeout(self.reconfig_s)
        self._apply_del_rip(vip, req.rip, switch_name)
        self._journal_settle(rec, OP_APPLIED)
        req.result = (vip, switch_name)

    def _do_move_vip(self, req: VipRipRequest):
        """Re-home one VIP onto a healthy switch (K2 transfer path used as
        a recovery mechanism).

        Each attempt picks the best healthy target and pays one
        reconfiguration; an attempt that lands on a switch that failed
        meanwhile (flapping) is retried with exponential backoff, and the
        whole request is bounded by :attr:`rehome_timeout_s` so a fault
        storm cannot wedge the serialized queue behind one hopeless move.

        With a journal attached, the move is journaled before the entry
        leaves the source switch (phase PREPARED, entry pinned in the
        payload) and the cutover pays :attr:`cutover_s` — a crash inside
        that window leaves the VIP off both switches, and recovery
        finishes the move from the journal.
        """
        vip = req.vip
        src_name = req.switch
        if src_name is None:
            src_name = self.registry.get(req.app, {}).get(vip)
        src = self.switches.get(src_name) if src_name is not None else None
        if src is None or not src.has_vip(vip):
            self.rejected += 1
            req.result = None
            return
        rec = self._journal_append("move_vip", req.app, vip=vip, src=src.name)
        deadline = self.env.now + self.rehome_timeout_s
        backoff = self.rehome_backoff_s
        while True:
            selection = self.selector.select_for_vip(
                exclude=self.failed | {src.name}
            )
            yield from self._charge(selection)
            target = selection.switch
            if target is not None:
                yield self.env.timeout(self.reconfig_s)
                # The target may have failed while we were reconfiguring.
                if (
                    target.name not in self.failed
                    and target.vip_slots_free > 0
                    and target.rip_slots_free >= len(src.entry(vip).rips)
                    and src.has_vip(vip)
                ):
                    self._journal_mark(
                        rec,
                        OP_PREPARED,
                        dst=target.name,
                        entry_app=src.entry(vip).app,
                        entry_rips=dict(src.entry(vip).rips),
                    )
                    entry = src.remove_vip(vip)
                    if self.cutover_s > 0:
                        # Half-configured window: the VIP is on neither
                        # switch until the target write completes.
                        yield self.env.timeout(self.cutover_s)
                        if (
                            target.name in self.failed
                            or target.vip_slots_free <= 0
                            or target.rip_slots_free < len(entry.rips)
                        ):
                            # Target died inside the cutover: put the
                            # entry back and retry the whole attempt.
                            src.install_entry(entry)
                            self._journal_mark(rec, OP_INTENT)
                            target = None
                    if target is not None:
                        target.install_entry(entry)
                        self._apply_move_bookkeeping(
                            req.app, vip, target.name, entry.rips
                        )
                        self._journal_settle(rec, OP_APPLIED)
                        if self.on_vip_moved is not None:
                            self.on_vip_moved(vip, target.name)
                        req.result = target.name
                        return
            if not src.has_vip(vip):
                # Deleted (or moved by someone else) while we retried.
                self.rejected += 1
                self._journal_settle(rec, OP_ABORTED)
                req.result = None
                return
            self.retries += 1
            if self.env.now + backoff > deadline:
                self.rejected += 1
                self._journal_settle(rec, OP_ABORTED)
                req.result = None
                return
            yield self.env.timeout(backoff)
            backoff *= 2.0

    # -- idempotent applies (shared by live path and journal replay) --------
    def _apply_new_vip(self, app: str, vip: str, switch_name: str) -> None:
        sw = self.switches[switch_name]
        if not sw.has_vip(vip):
            sw.add_vip(vip, app)
        self.registry.setdefault(app, {})[vip] = switch_name

    def _apply_new_rip(self, vip: str, rip: str, weight: float, switch_name: str) -> None:
        sw = self.switches[switch_name]
        if sw.has_vip(vip) and rip not in sw.entry(vip).rips:
            sw.add_rip(vip, rip, weight)
        self.rip_index[rip] = (vip, switch_name)

    def _apply_del_rip(self, vip: str, rip: str, switch_name: str) -> None:
        sw = self.switches[switch_name]
        if sw.serves(vip, rip):
            sw.remove_rip(vip, rip)
        self.rip_index.pop(rip, None)

    def _apply_move_bookkeeping(
        self, app: str, vip: str, dst: str, rips
    ) -> None:
        if vip in self.registry.get(app, {}):
            self.registry[app][vip] = dst
        for rip in rips:
            if rip in self.rip_index:
                self.rip_index[rip] = (vip, dst)

    # -- journal replay -----------------------------------------------------
    def _replay_record(self, rec: "JournalRecord"):
        if self.replay_record_s > 0:
            yield self.env.timeout(self.replay_record_s)
        if rec.phase is OP_ABORTED:
            return
        if rec.phase is OP_APPLIED:
            self._replay_bookkeeping(rec)
            return
        yield from self._complete(rec)

    def _replay_bookkeeping(self, rec: "JournalRecord") -> None:
        """Rebuild the volatile registry effects of an already-applied
        record.  Never touches switch tables or the address pool — those
        are durable and already hold the operation's outcome."""
        p = rec.payload
        if rec.kind == "new_vip":
            self.registry.setdefault(rec.app, {})[p["vip"]] = p["switch"]
        elif rec.kind == "new_rip":
            self.rip_index[p["rip"]] = (p["vip"], p["switch"])
        elif rec.kind == "del_vip":
            # Written only by a shard rollback, already applied.
            self.registry.get(rec.app, {}).pop(p["vip"], None)
            for rip in p["rips"]:
                self.rip_index.pop(rip, None)
        elif rec.kind == "del_rip":
            self.rip_index.pop(p["rip"], None)
        elif rec.kind == "move_vip":
            if rec.app in self.registry and p["vip"] in self.registry[rec.app]:
                self.registry[rec.app][p["vip"]] = p["dst"]
            for rip in p.get("entry_rips", {}):
                if rip in self.rip_index:
                    self.rip_index[rip] = (p["vip"], p["dst"])

    def _complete(self, rec: "JournalRecord"):
        """Finish an unsettled (INTENT/PREPARED) record after a crash."""
        p = rec.payload
        kind = rec.kind
        if kind == "new_vip":
            sw = self.switches.get(p["switch"])
            if sw is None or sw.name in self.failed:
                if self.vip_pool.is_allocated(p["vip"]):
                    self.vip_pool.release(p["vip"])
                self.rejected += 1
                self._journal_settle(rec, OP_ABORTED)
                return
            yield self.env.timeout(self.reconfig_s)
            self._apply_new_vip(rec.app, p["vip"], sw.name)
            self._journal_settle(rec, OP_APPLIED)
        elif kind == "new_rip":
            sw = self.switches.get(p["switch"])
            if sw is None or sw.name in self.failed or not sw.has_vip(p["vip"]):
                self.rejected += 1
                self._journal_settle(rec, OP_ABORTED)
                return
            yield self.env.timeout(self.reconfig_s)
            self._apply_new_rip(p["vip"], p["rip"], p.get("weight", 1.0), sw.name)
            self._journal_settle(rec, OP_APPLIED)
        elif kind == "del_rip":
            yield self.env.timeout(self.reconfig_s)
            self._apply_del_rip(p["vip"], p["rip"], p["switch"])
            self._journal_settle(rec, OP_APPLIED)
        elif kind == "move_vip":
            yield from self._complete_move(rec)
        else:
            raise UnknownRequestKind(kind)

    def _complete_move(self, rec: "JournalRecord"):
        p = rec.payload
        vip = p["vip"]
        src = self.switches.get(p["src"])
        # Idempotence first: if the VIP already sits on some switch (the
        # move finished another way, or a repair landed it), adopt that
        # placement instead of installing a duplicate.
        landed = next(
            (sw for sw in holders_of(self.switches, vip) if sw is not src), None
        )
        if rec.phase is OP_PREPARED:
            # The entry left the source before the crash; the VIP is on
            # neither switch unless someone re-landed it meanwhile.
            entry = VipEntry(vip=vip, app=p["entry_app"], rips=dict(p["entry_rips"]))
            if src is not None and src.has_vip(vip):
                landed = src
            if landed is not None:
                # Merge the journaled RIPs the re-landed entry may lack.
                existing = landed.entry(vip)
                for rip, weight in sorted(entry.rips.items()):
                    if rip not in existing.rips and landed.rip_slots_free > 0:
                        landed.add_rip(vip, rip, weight)
                self._apply_move_bookkeeping(rec.app, vip, landed.name, entry.rips)
                self._journal_settle(rec, OP_APPLIED, dst=landed.name)
                if self.on_vip_moved is not None:
                    self.on_vip_moved(vip, landed.name)
                return
            # Honor the decision pinned at journal time; re-decide only if
            # the chosen target can no longer take the entry.
            target = self.switches.get(p.get("dst"))
            if target is not None and (
                target.name in self.failed
                or target.vip_slots_free <= 0
                or target.rip_slots_free < len(entry.rips)
            ):
                target = None
            if target is None:
                exclude = {src.name} if src is not None else set()
                target = self.pick_install_target(entry, exclude=exclude)
            if target is None and src is not None:
                target = src  # better half-alive than stranded
            if target is None:
                self.rejected += 1
                self._journal_settle(rec, OP_ABORTED)
                return
            yield self.env.timeout(self.reconfig_s)
            target.install_entry(entry)
            self._apply_move_bookkeeping(rec.app, vip, target.name, entry.rips)
            self._journal_settle(rec, OP_APPLIED, dst=target.name)
            if self.on_vip_moved is not None:
                self.on_vip_moved(vip, target.name)
            return
        # INTENT: the destructive half never ran.  Already moved elsewhere?
        if landed is not None and (src is None or not src.has_vip(vip)):
            self._apply_move_bookkeeping(
                rec.app, vip, landed.name, landed.entry(vip).rips
            )
            self._journal_settle(rec, OP_APPLIED, dst=landed.name)
            if self.on_vip_moved is not None:
                self.on_vip_moved(vip, landed.name)
            return
        # Otherwise the source must still hold it; redo the whole move.
        if src is None or not src.has_vip(vip):
            self.rejected += 1
            self._journal_settle(rec, OP_ABORTED)
            return
        entry = src.entry(vip)
        target = self.pick_install_target(entry, exclude={src.name})
        if target is None:
            self.rejected += 1
            self._journal_settle(rec, OP_ABORTED)
            return
        yield self.env.timeout(self.reconfig_s)
        moved = src.remove_vip(vip)
        target.install_entry(moved)
        self._apply_move_bookkeeping(rec.app, vip, target.name, moved.rips)
        self._journal_settle(rec, OP_APPLIED, dst=target.name)
        if self.on_vip_moved is not None:
            self.on_vip_moved(vip, target.name)

    def pick_install_target(self, entry: VipEntry, exclude: set[str]):
        """The least-utilized healthy switch outside *exclude* with a free
        VIP slot and room for *entry*'s RIPs (ties by name), else None."""
        candidates = [
            s
            for s in self.switches.values()
            if s.name not in self.failed
            and s.name not in exclude
            and s.vip_slots_free > 0
            and s.rip_slots_free >= len(entry.rips)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: (s.utilization, s.name))

    #: Explicit dispatch table — an unknown kind raises
    #: :class:`UnknownRequestKind` instead of an opaque ``AttributeError``
    #: from a ``getattr`` probe.
    _HANDLERS = {
        "new_vip": _do_new_vip,
        "new_rip": _do_new_rip,
        "del_rip": _do_del_rip,
        "move_vip": _do_move_vip,
    }
