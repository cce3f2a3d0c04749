"""The drift report and the repair agree, for both control planes.

Hypothesis corrupts the switch tables and the bookkeeping of a settled
plane: it removes a VIP or a RIP, adds a stray RIP, duplicates an entry,
drops a registry row, drops or moves a RIP index row, or changes a
weight; on the sharded plane it may also hand an app to the other shard
or re-add a RIP at a new weight through the owner, before or after a
corruption.  Whatever it did, the
report must count each drift dimension as defined, the repair must bring
the plane back to a clean report, and a repair round after that must find
nothing left to do.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.drift import TableDriftReport
from repro.controlplane.sharding import _recorded_weights
from repro.core.viprip import VipRipRequest
from repro.lbswitch.switch import VipEntry
from tests.controlplane.test_landing_paths import small_dc
from tests.controlplane.test_sharding_repair import A0, A1, seeded

CORRUPTIONS = (
    "remove_vip", "remove_rip", "stray_rip", "duplicate",
    "drop_row", "drop_index", "move_index", "weight", "handoff", "reweight",
)
RECONCILER_CORRUPTIONS = (
    "remove_vip", "remove_rip", "stray_rip", "duplicate", "drop_index", "move_index",
)
STEPS = st.lists(
    st.tuples(st.sampled_from(CORRUPTIONS), st.integers(0, 15)), min_size=1, max_size=4
)


def pick(seq, k):
    seq = sorted(seq)
    return seq[k % len(seq)] if seq else None


def table_rips(switches):
    return [
        (name, vip, rip)
        for name, sw in switches.items() for vip in sw.vips() for rip in sw.entry(vip).rips
    ]


def corrupt_tables(switches, op, k):
    """Apply a table corruption; returns False for a bookkeeping one."""
    held = [(name, vip) for name, sw in switches.items() for vip in sw.vips()]
    if op == "remove_vip" and held:
        name, vip = pick(held, k)
        switches[name].remove_vip(vip)
    elif op == "remove_rip" and table_rips(switches):
        name, vip, rip = pick(table_rips(switches), k)
        switches[name].remove_rip(vip, rip)
    elif op == "stray_rip" and held:
        name, vip = pick(held, k)
        if f"stray-{k}" not in switches[name].entry(vip).rips:
            switches[name].add_rip(vip, f"stray-{k}", 1.0)
    elif op == "duplicate" and held:
        name, vip = pick(held, k)
        entry = switches[name].entry(vip)
        other = pick([n for n, sw in switches.items() if not sw.has_vip(vip)], k)
        if other is not None:
            switches[other].install_entry(VipEntry(vip, entry.app, dict(entry.rips)))
    elif op == "weight" and table_rips(switches):
        name, vip, rip = pick(table_rips(switches), k)
        switches[name].set_rip_weight(vip, rip, 2.0 + k)
    else:
        return op in ("remove_vip", "remove_rip", "stray_rip", "duplicate", "weight")
    return True


def corrupt_index(index, switch_names, op, k):
    if op == "drop_index" and len(index):
        del index[pick(index, k)]
    elif op == "move_index" and len(index):
        rip = pick(index, k)
        index[rip] = (index[rip][0], pick(switch_names, k // 2))


# -- sharded plane -------------------------------------------------------------
def expected_report(plane) -> dict:
    """Each drift dimension counted from its definition: the owner rows
    under the newest claims and the other shards' rows, each shard's RIP
    index against that shard's own recorded weights, then the table
    entries and RIPs no registry or index records."""
    busy = plane.vips_in_flight()
    switches = plane.all_switches
    counts = Counter()
    for shard in plane.shards:
        for app, row in shard.manager.registry.items():
            for vip, recorded in row.items():
                holders = [name for name, sw in switches.items() if sw.has_vip(vip)]
                if vip in busy:
                    continue
                if plane.ownership.owner_of(app) != shard.id:
                    counts["index_stale"] += 1
                elif holders == [recorded]:
                    continue
                elif len(holders) > 1:
                    counts["vip_duplicate"] += 1
                elif holders:
                    counts["vip_misplaced"] += 1
                else:
                    counts["vip_missing"] += 1
        weights = _recorded_weights(shard)
        for rip, (vip, name) in shard.manager.rip_index.items():
            if vip in busy:
                continue
            if switches[name].serves(vip, rip):
                weight = weights.get((vip, rip))
                table = switches[name].entry(vip).rips[rip]
                counts["weight_stale"] += weight is not None and weight != table
            elif any(sw.serves(vip, rip) for sw in switches.values()):
                counts["index_stale"] += 1
            else:
                counts["rip_missing"] += 1
    booked = {v for s in plane.shards for row in s.manager.registry.values() for v in row}
    indexed = {rip for s in plane.shards for rip in s.manager.rip_index}
    for sw in switches.values():
        for vip in set(sw.vips()) - busy:
            counts["index_stale"] += vip not in booked
            counts["rip_orphaned"] += len(set(sw.entry(vip).rips) - indexed)
    return {dim: counts[dim] for dim in TableDriftReport.DIMENSIONS}


@settings(max_examples=150, deadline=None)
@given(STEPS)
def test_sharded_report_counts_the_findings_and_the_repair_clears_them(steps):
    switches, plane, _ = seeded()
    # Hand-offs and re-weights run in the drawn order, so a hand-off may
    # move an app whose tables or bookkeeping a corruption already changed.
    for op, k in steps:
        app = pick((A0, A1), k)
        if op == "handoff":
            plane._handoff(app, 1 - plane.ownership.owner_of(app), "test")
        elif op == "reweight":
            rip = f"{app}/r{k % 2}"
            plane.submit(VipRipRequest("del_rip", app, rip=rip))
            plane.env.run()
            plane.submit(VipRipRequest("new_rip", app, rip=rip, weight=2.0 + k))
            plane.env.run()
        elif not corrupt_tables(switches, op, k):
            shard = plane.shards[k % 2]
            if op == "drop_row":
                registry = shard.manager.registry
                if registry:
                    app = pick(registry, k)
                    del registry[app][pick(registry[app], k)]
                    if not registry[app]:
                        del registry[app]
            else:
                corrupt_index(shard.manager.rip_index, sorted(switches), op, k)
    report = plane.drift_report()
    assert report.as_dict() == expected_report(plane)
    if report.clean and not plane.vips_in_conflict():
        assert plane.gossip_round() == 0  # nothing reported, nothing repaired
    # Every switch is up with room, so the repair must converge.
    assert plane.converge() is not None, plane.drift_report().as_dict()
    assert plane.gossip_round() == 0
    assert plane.drift_report().clean


# -- reconciler ----------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(STEPS.map(lambda steps: [s for s in steps if s[0] in RECONCILER_CORRUPTIONS]))
def test_reconciler_pass_leaves_a_clean_report(steps):
    """The platform registry is the reconciler's intent and it records no
    weights, so its corruptions are the table and RIP-index ones."""
    dc = small_dc(crash_safe_manager=True)
    dc.run(100.0)
    assert dc.reconciler.run_pass().clean
    for op, k in steps:
        if not corrupt_tables(dc.switches, op, k):
            corrupt_index(dc.viprip.rip_index, sorted(dc.switches), op, k)
    first = dc.reconciler.run_pass()
    assert first.repaired == first.detected, first.notes
    assert dc.reconciler.run_pass().clean
    dc.close()
