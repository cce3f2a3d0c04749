"""Fault schedules: *what* breaks *when*.

A schedule is an immutable, time-ordered list of :class:`FaultEvent`.  Two
builders cover the interesting cases: :meth:`FaultSchedule.from_events`
validates a scripted scenario (every recovery must follow a failure of the
same target), and :meth:`FaultSchedule.random` samples fail/repair cycles
from seeded per-fault-class streams so the same seed always yields the
same schedule regardless of how many classes are enabled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Container, Iterable, Sequence

from repro.sim.rng import RngHub


class FaultKind(str, enum.Enum):
    """The fault classes the injector knows how to inflict."""

    SERVER_CRASH = "server_crash"
    SERVER_RECOVER = "server_recover"
    SWITCH_FAIL = "switch_fail"
    SWITCH_RECOVER = "switch_recover"
    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    #: The control plane itself dies: the serialized VIP/RIP manager loses
    #: its queue and volatile registries mid-operation.  Recovery is
    #: journal replay (``repro.controlplane``), not hardware repair.
    MANAGER_CRASH = "manager_crash"
    MANAGER_RECOVER = "manager_recover"
    #: A sharded control plane loses the coordination path between two
    #: shards (target: ``"shard-i:shard-j"``).  Requests keep flowing —
    #: stale reads and conflicting claims are tolerated — and healing
    #: lets the gossip rounds converge the divergence away.
    SHARD_PARTITION = "shard_partition"
    SHARD_HEAL = "shard_heal"
    #: An entire pod goes dark at mega scale: every VM it hosted is lost
    #: and its share of demand spills to the surviving pods covering the
    #: same apps (K3 across columnar shards).  Restore brings the pod
    #: back empty; the next epoch re-places into it.
    POD_LOSS = "pod_loss"
    POD_RESTORE = "pod_restore"

    @property
    def is_failure(self) -> bool:
        return self in (
            FaultKind.SERVER_CRASH,
            FaultKind.SWITCH_FAIL,
            FaultKind.LINK_DOWN,
            FaultKind.MANAGER_CRASH,
            FaultKind.SHARD_PARTITION,
            FaultKind.POD_LOSS,
        )

    @property
    def recovery(self) -> "FaultKind":
        """The event kind that undoes this failure."""
        return _RECOVERY_OF[self]

    @property
    def fault_class(self) -> str:
        """Metric bucket: ``server`` / ``switch`` / ``link`` / ``manager``."""
        return self.value.split("_")[0]


_RECOVERY_OF = {
    FaultKind.SERVER_CRASH: FaultKind.SERVER_RECOVER,
    FaultKind.SWITCH_FAIL: FaultKind.SWITCH_RECOVER,
    FaultKind.LINK_DOWN: FaultKind.LINK_UP,
    FaultKind.MANAGER_CRASH: FaultKind.MANAGER_RECOVER,
    FaultKind.SHARD_PARTITION: FaultKind.SHARD_HEAL,
    FaultKind.POD_LOSS: FaultKind.POD_RESTORE,
}


class UnknownFaultTarget(LookupError):
    """A schedule names a target the platform cannot resolve.

    Historically the facade handlers silently succeeded on a missing
    target (``crash_server("no-such-server")`` was a no-op), which let a
    typo'd scenario — or a target existing in only one of the object /
    columnar representations — run green while injecting nothing.
    :meth:`FaultSchedule.validate_targets` turns that into a hard error.
    """


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault or repair: *target* suffers *kind* at time *t*."""

    t: float
    kind: FaultKind
    target: str

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"fault time must be non-negative, got {self.t}")


class FaultSchedule:
    """An ordered, validated sequence of fault events."""

    def __init__(self, events: Iterable[FaultEvent]):
        self.events: list[FaultEvent] = sorted(events)
        self._validate()

    def _validate(self) -> None:
        """Failures and recoveries of one target must alternate: a second
        crash of an already-down server (or a repair of a healthy one) is
        a script bug, not a scenario."""
        down: set[tuple[str, str]] = set()  # (fault_class, target)
        for ev in self.events:
            key = (ev.kind.fault_class, ev.target)
            if ev.kind.is_failure:
                if key in down:
                    raise ValueError(
                        f"{ev.target} fails at t={ev.t} but is already down"
                    )
                down.add(key)
            else:
                if key not in down:
                    raise ValueError(
                        f"{ev.target} recovers at t={ev.t} but never failed"
                    )
                down.discard(key)

    def validate_targets(self, known: dict[str, Container[str]]) -> None:
        """Reject events whose target the platform cannot resolve.

        *known* maps a fault class (``server`` / ``switch`` / ``link`` /
        ``manager`` / ``shard`` / ``pod``) to a container of the valid
        target names of that class, tested with ``in`` only — the output
        of ``fault_targets()`` on the facade or the mega driver.  Classes
        absent from *known* are not injectable there at all, so naming
        one is an error too.  Raises
        :class:`UnknownFaultTarget` naming every bad event; a platform
        that cannot resolve a target must fail the schedule up front
        instead of silently no-oping at injection time.
        """
        bad = [
            ev
            for ev in self.events
            if ev.target not in known.get(ev.kind.fault_class, ())
        ]
        if bad:
            shown = ", ".join(
                f"{ev.kind.value}({ev.target!r}) at t={ev.t}" for ev in bad[:5]
            )
            more = f" (+{len(bad) - 5} more)" if len(bad) > 5 else ""
            raise UnknownFaultTarget(
                f"{len(bad)} fault event(s) name unknown targets: {shown}{more}"
            )

    @classmethod
    def from_events(
        cls, events: Sequence[tuple[float, str, str]]
    ) -> "FaultSchedule":
        """Build from ``(t, kind, target)`` triples (kind as string)."""
        return cls(FaultEvent(t, FaultKind(kind), target) for t, kind, target in events)

    @classmethod
    def random(
        cls,
        seed: int,
        duration_s: float,
        servers: Sequence[str] = (),
        switches: Sequence[str] = (),
        links: Sequence[str] = (),
        pods: Sequence[str] = (),
        mtbf_s: float = 1800.0,
        mttr_s: float = 300.0,
    ) -> "FaultSchedule":
        """Sample independent fail/repair cycles per component.

        Each component alternates exponential up-times (mean *mtbf_s*) and
        exponential down-times (mean *mttr_s*), drawn from its own named
        stream of *seed* — so adding a switch to the fleet never perturbs
        the servers' fault times.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if mtbf_s <= 0 or mttr_s <= 0:
            raise ValueError("mtbf_s and mttr_s must be positive")
        hub = RngHub(seed)
        events: list[FaultEvent] = []
        groups = (
            (FaultKind.SERVER_CRASH, servers),
            (FaultKind.SWITCH_FAIL, switches),
            (FaultKind.LINK_DOWN, links),
            (FaultKind.POD_LOSS, pods),
        )
        for fail_kind, targets in groups:
            for target in targets:
                rng = hub.stream("faults", fail_kind.value, target)
                t = float(rng.exponential(mtbf_s))
                while t < duration_s:
                    events.append(FaultEvent(t, fail_kind, target))
                    t += float(rng.exponential(mttr_s))
                    if t >= duration_s:
                        break  # stays down past the horizon
                    events.append(FaultEvent(t, fail_kind.recovery, target))
                    t += float(rng.exponential(mtbf_s))
        return cls(events)

    @classmethod
    def scripted_basic(
        cls,
        switch: str,
        servers: Sequence[str],
        t0: float = 300.0,
        outage_s: float = 600.0,
    ) -> "FaultSchedule":
        """The acceptance scenario: one LB-switch failure plus crashes of
        *servers* during steady load, everything repaired after
        *outage_s*."""
        if len(servers) < 1:
            raise ValueError("need at least one server to crash")
        events = [(t0, FaultKind.SWITCH_FAIL.value, switch)]
        for i, srv in enumerate(servers):
            events.append((t0 + 30.0 * (i + 1), FaultKind.SERVER_CRASH.value, srv))
        events.append((t0 + outage_s, FaultKind.SWITCH_RECOVER.value, switch))
        for i, srv in enumerate(servers):
            events.append(
                (t0 + outage_s + 30.0 * (i + 1), FaultKind.SERVER_RECOVER.value, srv)
            )
        return cls.from_events(events)

    # -- views ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
