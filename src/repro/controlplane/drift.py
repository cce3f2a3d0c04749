"""One drift scan and one repair rule per drift kind, for both control planes.

The reconciler and each shard of the sharded plane compare an intended
:class:`DriftView` with the LB-switch tables in scope.  :func:`scan`
lazily yields one :class:`Finding` per drifted row, of one kind per
:attr:`TableDriftReport.DIMENSIONS` entry: a report counts them, a repair
applies :func:`repair` to each before the scan reads on.  Its three parts,
:func:`scan_vip_rows`, :func:`scan_rip_rows` and :func:`scan_tables`, also
run alone, for a report whose RIP rows live in more than one index.
"""

from __future__ import annotations

from collections.abc import (
    Callable, Container, Iterable, Iterator, Mapping, MutableMapping,
)
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar, Optional

from repro.lbswitch.switch import (
    LBSwitch, VipEntry, holders_of, keep_one_holder, landing_target,
)


@dataclass
class TableDriftReport:
    """Counts of the seven table drift kinds at one instant."""

    t: float
    #: Intended VIPs present on no switch table.
    vip_missing: int = 0
    #: Intended VIPs on exactly one switch, but not the recorded one.
    vip_misplaced: int = 0
    #: Intended VIPs present on more than one switch table.
    vip_duplicate: int = 0
    #: Intended or indexed RIPs absent from the switch tables.
    rip_missing: int = 0
    #: Table RIPs nothing accounts for.
    rip_orphaned: int = 0
    #: Registry/index rows contradicting ownership or the tables.
    index_stale: int = 0
    #: Indexed RIPs whose table weight is not the recorded one.
    weight_stale: int = 0

    #: The table dimensions above, in order.
    DIMENSIONS: ClassVar[tuple[str, ...]] = (
        "vip_missing", "vip_misplaced", "vip_duplicate",
        "rip_missing", "rip_orphaned", "index_stale", "weight_stale",
    )

    @property
    def detected(self) -> int:
        return sum(self.as_dict().values())

    @property
    def clean(self) -> bool:
        return self.detected == 0

    def as_dict(self) -> dict:
        return {dim: getattr(self, dim) for dim in self.DIMENSIONS}

    def count(self, findings: Iterable[Finding]) -> TableDriftReport:
        """Add one to each finding's dimension; returns this report."""
        for f in findings:
            setattr(self, f.kind, getattr(self, f.kind) + 1)
        return self


@dataclass(frozen=True)
class Finding:
    """One drifted row, with what its repair needs."""

    #: One of :attr:`TableDriftReport.DIMENSIONS`.
    kind: str
    vip: str
    #: None for a VIP row.
    rip: Optional[str] = None
    #: The VIP's app (VIP rows).
    app: Optional[str] = None
    #: Where the repair acts: a duplicated VIP's recorded switch; the
    #: holder of a misplaced or unbooked VIP; the holder, else the recorded
    #: switch, of a missing RIP's VIP (None: nothing intends the VIP, drop
    #: the row); the switch serving a mis-indexed RIP; an orphan's table.
    switch: Optional[str] = None
    #: The recorded weight (RIP rows), if any.
    weight: Optional[float] = None


@dataclass
class DriftView:
    """What a plane intends, and the tables it compares that with."""

    #: vip -> (app, recorded switch).
    vips: Mapping[str, tuple[str, str]]
    #: rip -> (vip, indexed switch); :func:`repair` writes index rows here.
    rips: MutableMapping[str, tuple[str, str]]
    #: (vip, rip) -> recorded weight.
    weights: Mapping[tuple[str, str], float]
    #: The switches in scope, by name; only these are scanned and repaired.
    switches: dict[str, LBSwitch]
    #: Every switch; what is held outside scope is not this view's drift.
    fleet: dict[str, LBSwitch]
    #: VIPs an operation in motion owns.
    busy: Container[str]
    #: Table VIPs another record accounts for.
    vip_accounted: Container[str]
    #: Table RIPs another record accounts for.
    rip_accounted: Container[str]


def scan(view: DriftView) -> Iterator[Finding]:
    """The drift of *view*: VIP rows, then RIP rows, then table entries
    and RIPs nothing records, each in name order."""
    return chain(scan_vip_rows(view), scan_rip_rows(view), scan_tables(view))


def scan_vip_rows(view: DriftView) -> Iterator[Finding]:
    """Each VIP row held by no switch, by another one or by several."""
    switches, busy = view.switches, view.busy
    for vip in sorted(view.vips):
        app, recorded = view.vips[vip]
        holders = [sw.name for sw in holders_of(switches, vip)]
        if vip in busy or holders == [recorded]:
            continue
        if len(holders) > 1:
            yield Finding("vip_duplicate", vip, app=app, switch=recorded)
        elif holders:
            yield Finding("vip_misplaced", vip, app=app, switch=holders[0])
        elif not holders_of(view.fleet, vip):
            yield Finding("vip_missing", vip, app=app)


def scan_rip_rows(view: DriftView) -> Iterator[Finding]:
    """Each RIP row its indexed switch does not serve, or serves at a
    weight other than the recorded one."""
    switches, busy = view.switches, view.busy
    for rip in sorted(view.rips):
        row = view.rips.get(rip)  # None: an earlier repair dropped it
        if row is None or row[0] in busy:
            continue
        vip, indexed = row
        weight = view.weights.get((vip, rip))
        sw = switches.get(indexed)
        if sw is not None and sw.serves(vip, rip):
            if weight is not None and weight != sw.entry(vip).rips[rip]:
                yield Finding("weight_stale", vip, rip, switch=indexed, weight=weight)
            continue
        holders = holders_of(switches, vip)
        serving = next((h.name for h in holders if h.serves(vip, rip)), None)
        if serving is not None:
            yield Finding("index_stale", vip, rip, switch=serving)
        elif holders or not holders_of(view.fleet, vip):
            where = holders[0].name if holders else view.vips.get(vip, ("", None))[1]
            yield Finding("rip_missing", vip, rip, switch=where, weight=weight)


def scan_tables(view: DriftView) -> Iterator[Finding]:
    """Each table entry and table RIP no row of *view* nor another record
    accounts for."""
    for name, sw in sorted(view.switches.items()):
        for vip in sorted(sw.vips()):
            if vip in view.busy:
                continue
            if vip not in view.vips and vip not in view.vip_accounted:
                yield Finding("index_stale", vip, app=sw.entry(vip).app, switch=name)
            for rip in sorted(sw.entry(vip).rips):
                if rip not in view.rips and rip not in view.rip_accounted:
                    yield Finding("rip_orphaned", vip, rip, switch=name)


def readd_weight(rips: Mapping[str, float], recorded: Optional[float]) -> float:
    """The weight a RIP is put back (or a new one joins) at: its recorded
    weight, else the mean of its entry's current weights *rips*, else 1.0."""
    if recorded is not None:
        return recorded
    return max(sum(rips.values()) / len(rips), 1e-6) if rips else 1.0


@dataclass
class RepairHooks:
    """A plane's bookkeeping for what :func:`repair` does to the tables."""

    #: ``(app, vip, switch)``: the VIP's registry row follows its table.
    rehome: Callable[[str, str, str], None]
    #: ``(app, vip, switch, rips)``: book a table entry no registry
    #: records; returns None once booked, else why it cannot be.
    book: Callable[[str, str, str, Mapping[str, float]], Optional[str]]
    #: A table RIP was added, removed or re-weighted.
    edited: Callable[[], None] = lambda: None


def repair(
    f: Finding, view: DriftView, is_up: Callable[[str], bool], hooks: RepairHooks
) -> Optional[str]:
    """Apply *f*'s rule to *view*'s switches and RIP rows; returns None
    once repaired, else why not."""
    switches, index = view.switches, view.rips
    if f.kind == "vip_duplicate":
        keep = keep_one_holder(holders_of(switches, f.vip), f.vip, f.switch)
        if keep != f.switch:
            hooks.rehome(f.app, f.vip, keep)
    elif f.kind == "vip_misplaced":
        hooks.rehome(f.app, f.vip, f.switch)
    elif f.kind == "vip_missing":  # recreate it with the RIPs the view names
        rips = {
            rip: readd_weight({}, view.weights.get((f.vip, rip)))
            for rip, (vip, _) in sorted(index.items()) if vip == f.vip
        }
        target = landing_target(switches, is_up, len(rips))
        if target is None:
            return f"no healthy switch for stranded {f.vip}"
        target.install_entry(VipEntry(vip=f.vip, app=f.app, rips=rips))
        hooks.rehome(f.app, f.vip, target.name)
        for rip in rips:
            index[rip] = (f.vip, target.name)
    elif f.kind == "rip_missing":
        if f.switch is None:
            index.pop(f.rip, None)  # its VIP is gone and nothing intends it
            return None
        sw = switches.get(f.switch)
        if sw is None or not sw.has_vip(f.vip):
            return f"{f.rip} waits for {f.vip}"
        if sw.rip_slots_free <= 0:
            return f"no RIP slot on {sw.name} for {f.rip}"
        sw.add_rip(f.vip, f.rip, readd_weight(sw.entry(f.vip).rips, f.weight))
        index[f.rip] = (f.vip, sw.name)
        hooks.edited()
    elif f.kind == "index_stale":
        if f.rip is None:
            entry = switches[f.switch].entry(f.vip)
            return hooks.book(f.app, f.vip, f.switch, entry.rips)
        index[f.rip] = (f.vip, f.switch)
    elif f.kind == "rip_orphaned":
        switches[f.switch].remove_rip(f.vip, f.rip)
        hooks.edited()
    elif f.kind == "weight_stale":
        switches[f.switch].set_rip_weight(f.vip, f.rip, f.weight)
        hooks.edited()
    return None
