"""Property tests for the InvariantAuditor.

Two directions: randomized-but-legitimate activity (knob churn, fault
schedules) must never produce a violation, and randomly chosen deliberate
corruptions must always be caught by the matching invariant.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.datacenter import MegaDataCenter
from repro.faults import FaultInjector, FaultSchedule
from repro.obs import InvariantAuditor, TraceBus
from repro.sim.rng import RngHub
from repro.workload.generator import WorkloadBuilder

# ------------------------------------------------- event-level properties


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=30))
def test_journal_flags_exactly_the_nonincreasing_steps(epochs):
    bus = TraceBus(keep_events=False)
    auditor = InvariantAuditor().attach(bus)
    for i, epoch in enumerate(epochs):
        bus.emit("journal.commit", t=float(i), epoch=epoch, op="op", app="a")
    expected = sum(1 for a, b in zip(epochs, epochs[1:]) if b <= a)
    assert len(auditor.violations) == expected
    assert all(v.invariant == "journal-monotonic" for v in auditor.violations)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),  # vms_before
            st.integers(min_value=0, max_value=10),  # stopped
            st.integers(min_value=-3, max_value=3),  # conservation error
        ),
        max_size=20,
    )
)
def test_k3_flags_exactly_the_nonconserving_vacates(vacates):
    bus = TraceBus(keep_events=False)
    auditor = InvariantAuditor().attach(bus)
    for i, (before, stopped, err) in enumerate(vacates):
        bus.emit(
            "k3.vacate", t=float(i), pod="pod-00", requested=stopped,
            vacated=stopped, migrations=0, stopped=stopped,
            vms_before=before, vms_after=before - stopped + err,
        )
    expected = sum(1 for _, _, err in vacates if err != 0)
    assert len(auditor.violations) == expected
    assert all(v.invariant == "k3-conservation" for v in auditor.violations)


# ------------------------------------------- whole-system no-false-positive


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**16), data=st.data())
def test_random_fault_sequences_no_false_positives(seed, data):
    """Legitimate (if chaotic) operation — random workload plus random
    server/switch fail-recover cycles — must never trip the auditor:
    every invariant it checks is one the control loops preserve even
    under faults."""
    apps = WorkloadBuilder(
        n_apps=8, total_gbps=4.0, rng_hub=RngHub(seed)
    ).build()
    dc = MegaDataCenter(
        apps, n_pods=2, servers_per_pod=8, n_switches=3,
        trace=TraceBus(keep_events=False), audit=True,
    )
    duration = 600.0
    n_server_faults = data.draw(st.integers(min_value=0, max_value=2))
    servers = sorted(dc.state.servers)[:n_server_faults]
    n_switch_faults = data.draw(st.integers(min_value=0, max_value=1))
    switches = sorted(dc.switches)[: n_switch_faults]
    schedule = FaultSchedule.random(
        seed=seed, duration_s=duration, servers=servers, switches=switches,
        mtbf_s=400.0, mttr_s=120.0,
    )
    FaultInjector(dc, schedule)
    dc.run(duration)
    violations = dc.auditor.violations
    dc.close()
    assert violations == []


# --------------------------------------------- corruption-is-always-caught

CORRUPTIONS = ["double-vip", "orphan-rip", "overfull-switch"]


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(CORRUPTIONS),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_injected_corruption_is_always_caught(kind, seed):
    apps = WorkloadBuilder(
        n_apps=8, total_gbps=4.0, rng_hub=RngHub(seed)
    ).build()
    dc = MegaDataCenter(
        apps, n_pods=2, servers_per_pod=8, n_switches=3,
        trace=TraceBus(keep_events=False), audit=True,
    )
    dc.run(120.0)
    assert dc.auditor.ok  # clean before the tampering

    if kind == "double-vip":
        names = sorted(dc.switches)
        src = next(s for s in names if dc.switches[s].num_vips > 0)
        dst = next(n for n in names if n != src)
        vip = sorted(dc.switches[src].vips())[0]
        dc.switches[dst].install_entry(dc.switches[src].entry(vip))
        expect = "vip-single-home"
    elif kind == "orphan-rip":
        rip = sorted(dc.state.rips)[0]
        dc.state.rips[rip].vm.host = None
        expect = "rip-pod"
    else:  # overfull-switch: force the table over its configured limit
        import dataclasses

        name = next(
            s for s in sorted(dc.switches) if dc.switches[s].num_rips > 0
        )
        sw = dc.switches[name]
        sw.limits = dataclasses.replace(sw.limits, max_rips=sw.num_rips - 1)
        expect = "switch-caps"

    found = dc.auditor.audit_now(dc.env.now)
    dc.close()
    assert any(v.invariant == expect for v in found), (kind, found)
