"""Unit tests for fault schedules: ordering, validation, determinism."""

import pytest

from repro.faults import FaultEvent, FaultKind, FaultSchedule


def test_events_sorted_by_time():
    sched = FaultSchedule.from_events(
        [
            (100.0, "server_crash", "s1"),
            (50.0, "switch_fail", "lb-0"),
            (200.0, "server_recover", "s1"),
        ]
    )
    assert [e.t for e in sched] == [50.0, 100.0, 200.0]
    assert len(sched) == 3


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        FaultEvent(-1.0, FaultKind.SERVER_CRASH, "s1")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        FaultSchedule.from_events([(0.0, "meteor_strike", "earth")])


def test_double_failure_rejected():
    with pytest.raises(ValueError, match="already down"):
        FaultSchedule.from_events(
            [
                (10.0, "server_crash", "s1"),
                (20.0, "server_crash", "s1"),
            ]
        )


def test_recovery_without_failure_rejected():
    with pytest.raises(ValueError, match="never failed"):
        FaultSchedule.from_events([(10.0, "switch_recover", "lb-0")])


def test_fail_recover_cycles_allowed():
    sched = FaultSchedule.from_events(
        [
            (10.0, "link_down", "link-a"),
            (20.0, "link_up", "link-a"),
            (30.0, "link_down", "link-a"),
        ]
    )
    assert sum(e.kind.is_failure for e in sched) == 2
    assert sum(e.target == "link-a" for e in sched) == 3


def test_distinct_classes_do_not_collide():
    # A server and a switch may share a name without tripping validation.
    sched = FaultSchedule.from_events(
        [
            (10.0, "server_crash", "x"),
            (20.0, "switch_fail", "x"),
        ]
    )
    assert len(sched) == 2


def test_recovery_kinds():
    assert FaultKind.SERVER_CRASH.recovery is FaultKind.SERVER_RECOVER
    assert FaultKind.SWITCH_FAIL.recovery is FaultKind.SWITCH_RECOVER
    assert FaultKind.LINK_DOWN.recovery is FaultKind.LINK_UP
    assert FaultKind.SWITCH_FAIL.fault_class == "switch"
    assert not FaultKind.LINK_UP.is_failure


def test_random_schedule_deterministic():
    kwargs = dict(
        duration_s=7200.0,
        servers=["s1", "s2"],
        switches=["lb-0"],
        links=["link-a"],
        mtbf_s=1800.0,
        mttr_s=300.0,
    )
    a = FaultSchedule.random(seed=42, **kwargs)
    b = FaultSchedule.random(seed=42, **kwargs)
    c = FaultSchedule.random(seed=43, **kwargs)
    assert a.events == b.events
    assert a.events != c.events


def test_random_schedule_per_target_streams_independent():
    # Adding a switch must not perturb the servers' fault times.
    base = FaultSchedule.random(seed=1, duration_s=7200.0, servers=["s1", "s2"])
    more = FaultSchedule.random(
        seed=1, duration_s=7200.0, servers=["s1", "s2"], switches=["lb-0"]
    )
    server_events = [e for e in more if e.kind.fault_class == "server"]
    assert server_events == base.events


def test_random_schedule_alternates_and_validates():
    sched = FaultSchedule.random(
        seed=3,
        duration_s=36000.0,
        servers=[f"s{i}" for i in range(5)],
        mtbf_s=600.0,
        mttr_s=60.0,
    )
    assert len(sched) > 0
    for target in {e.target for e in sched}:
        kinds = [e.kind for e in sched if e.target == target]
        assert kinds[0] is FaultKind.SERVER_CRASH
        for prev, cur in zip(kinds, kinds[1:]):
            assert prev.is_failure != cur.is_failure


def test_random_schedule_rejects_bad_params():
    with pytest.raises(ValueError):
        FaultSchedule.random(seed=0, duration_s=0.0)
    with pytest.raises(ValueError):
        FaultSchedule.random(seed=0, duration_s=100.0, mtbf_s=-1.0)


def test_scripted_basic_shape():
    sched = FaultSchedule.scripted_basic(
        "lb-1", ["pod-0-s0", "pod-1-s0"], t0=300.0, outage_s=600.0
    )
    kinds = [e.kind for e in sched]
    assert kinds.count(FaultKind.SWITCH_FAIL) == 1
    assert kinds.count(FaultKind.SERVER_CRASH) == 2
    assert kinds.count(FaultKind.SWITCH_RECOVER) == 1
    assert kinds.count(FaultKind.SERVER_RECOVER) == 2
    assert sched.events[0].t == 300.0
    with pytest.raises(ValueError):
        FaultSchedule.scripted_basic("lb-1", [])


# -- the manager_crash fault class (control-plane crash safety) ------------
def test_manager_crash_is_a_failure_with_manager_class():
    assert FaultKind.MANAGER_CRASH.is_failure
    assert not FaultKind.MANAGER_RECOVER.is_failure
    assert FaultKind.MANAGER_CRASH.fault_class == "manager"
    assert FaultKind.MANAGER_CRASH.recovery is FaultKind.MANAGER_RECOVER


def test_manager_crash_recover_cycle_validates():
    sched = FaultSchedule.from_events(
        [
            (10.0, "manager_crash", "viprip"),
            (40.0, "manager_recover", "viprip"),
            (80.0, "manager_crash", "viprip"),
        ]
    )
    assert [e.kind for e in sched] == [
        FaultKind.MANAGER_CRASH,
        FaultKind.MANAGER_RECOVER,
        FaultKind.MANAGER_CRASH,
    ]


def test_manager_recover_without_crash_rejected():
    with pytest.raises(ValueError, match="never failed"):
        FaultSchedule.from_events([(10.0, "manager_recover", "viprip")])


def test_double_manager_crash_rejected():
    with pytest.raises(ValueError, match="already down"):
        FaultSchedule.from_events(
            [
                (10.0, "manager_crash", "viprip"),
                (20.0, "manager_crash", "viprip"),
            ]
        )


# -- mega pod kinds ---------------------------------------------------------
def test_pod_loss_is_a_failure_with_pod_class():
    assert FaultKind.POD_LOSS.is_failure
    assert not FaultKind.POD_RESTORE.is_failure
    assert FaultKind.POD_LOSS.fault_class == "pod"
    assert FaultKind.POD_LOSS.recovery is FaultKind.POD_RESTORE


def test_pod_cycle_validates_and_random_accepts_pods():
    FaultSchedule(
        [
            FaultEvent(1.0, FaultKind.POD_LOSS, "pod-000"),
            FaultEvent(2.0, FaultKind.POD_RESTORE, "pod-000"),
            FaultEvent(3.0, FaultKind.POD_LOSS, "pod-000"),
        ]
    )
    sched = FaultSchedule.random(
        7, 10_000.0, pods=["pod-000", "pod-001"], mtbf_s=500.0, mttr_s=100.0
    )
    kinds = {ev.kind for ev in sched.events}
    assert kinds <= {FaultKind.POD_LOSS, FaultKind.POD_RESTORE}
    assert len(sched.events) > 0


# -- target validation ------------------------------------------------------
def test_validate_targets_accepts_known_names():
    from repro.faults import UnknownFaultTarget

    sched = FaultSchedule(
        [
            FaultEvent(1.0, FaultKind.SERVER_CRASH, "s0"),
            FaultEvent(2.0, FaultKind.POD_LOSS, "pod-000"),
        ]
    )
    sched.validate_targets({"server": {"s0", "s1"}, "pod": {"pod-000"}})
    with pytest.raises(UnknownFaultTarget, match="s0"):
        sched.validate_targets({"server": {"s9"}, "pod": {"pod-000"}})


def test_validate_targets_only_tests_membership():
    """The inventory may be any container: a platform can answer ``in``
    by parsing a name instead of listing every target."""
    from repro.faults import UnknownFaultTarget

    class Canonical:
        def __contains__(self, name):
            head, _, num = name.partition("-")
            return head == "s" and num.isdigit() and f"s-{int(num):03d}" == name

    good = FaultSchedule([FaultEvent(1.0, FaultKind.SERVER_CRASH, "s-007")])
    good.validate_targets({"server": Canonical()})
    for name in ("s-7", "s-0007", "s-abc", "s-"):
        bad = FaultSchedule([FaultEvent(1.0, FaultKind.SERVER_CRASH, name)])
        with pytest.raises(UnknownFaultTarget, match=repr(name)):
            bad.validate_targets({"server": Canonical()})


def test_validate_targets_rejects_uninjectable_class():
    """A class absent from the inventory is not injectable there at all —
    naming it is an error, not a silent no-op."""
    from repro.faults import UnknownFaultTarget

    sched = FaultSchedule([FaultEvent(1.0, FaultKind.POD_LOSS, "pod-000")])
    with pytest.raises(UnknownFaultTarget, match="pod_loss"):
        sched.validate_targets({"server": {"s0"}})


def test_validate_targets_reports_at_most_five_and_counts_rest():
    from repro.faults import UnknownFaultTarget

    sched = FaultSchedule(
        [
            FaultEvent(float(i), FaultKind.SERVER_CRASH, f"ghost-{i}")
            for i in range(8)
        ]
    )
    with pytest.raises(UnknownFaultTarget, match=r"\(\+3 more\)"):
        sched.validate_targets({"server": {"real"}})


def test_injector_validates_against_facade_inventory():
    """FaultInjector refuses a schedule naming targets the facade cannot
    resolve (the historical silent-no-op bug)."""
    from repro.faults import FaultInjector, UnknownFaultTarget
    from repro.sim import Environment

    class FakeDC:
        def __init__(self):
            self.env = Environment()

        def fault_targets(self):
            return {"server": {"srv-0"}}

    dc = FakeDC()
    FaultInjector(
        dc, FaultSchedule([FaultEvent(1.0, FaultKind.SERVER_CRASH, "srv-0")])
    )
    with pytest.raises(UnknownFaultTarget):
        FaultInjector(
            dc,
            FaultSchedule([FaultEvent(1.0, FaultKind.SERVER_CRASH, "typo")]),
        )
