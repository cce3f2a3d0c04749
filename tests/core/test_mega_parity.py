"""Differential parity: the object-model platform vs the columnar loop.

Identical request/fault sequences replay through both platforms via the
:mod:`repro.testing.differential` oracle; end states must agree field by
field (placements, RIP homing, satisfied demand, drop counters).  The
seed matrix widens under ``REPRO_CHAOS_SEEDS`` (comma-separated ints) —
CI's chaos lane runs ten seeds, the default keeps local runs quick.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mega import MegaConfig, MegaControlPlaneConfig
from repro.core.viprip import VipRipRequest
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.testing import run_differential

CHAOS_SEEDS = [
    int(s)
    for s in os.environ.get("REPRO_CHAOS_SEEDS", "7,23").split(",")
    if s.strip()
]

#: MegaConfig.tiny geometry: 4 pods x 12 servers.
PODS = [f"pod-{p:03d}" for p in range(4)]
SERVERS = [f"pod-{p:03d}-s{i:06d}" for p in range(4) for i in range(12)]
WIRED = MegaControlPlaneConfig(wired_apps=8)


def test_no_fault_parity():
    run_differential(epochs=3).raise_for_divergence()


def test_scripted_fault_parity_with_control_plane():
    schedule = FaultSchedule(
        [
            FaultEvent(60.0, FaultKind.POD_LOSS, "pod-001"),
            FaultEvent(120.0, FaultKind.SERVER_CRASH, "pod-000-s000003"),
            FaultEvent(180.0, FaultKind.POD_RESTORE, "pod-001"),
            FaultEvent(240.0, FaultKind.SERVER_RECOVER, "pod-000-s000003"),
        ]
    )
    result = run_differential(
        schedule=schedule, epochs=6, control_plane=WIRED
    )
    result.raise_for_divergence()
    assert result.faults_injected == 4


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_matrix_parity(seed):
    """Seeded fail/repair cycles across pods and servers, with the
    control plane wired so RIP homing churns under the faults too."""
    cfg = MegaConfig.tiny(seed=seed)
    epochs = 6
    schedule = FaultSchedule.random(
        seed,
        epochs * cfg.epoch_s,
        servers=SERVERS[::5],
        pods=PODS[:3],
        mtbf_s=150.0,
        mttr_s=90.0,
    )
    result = run_differential(
        cfg, schedule=schedule, epochs=epochs, control_plane=WIRED
    )
    result.raise_for_divergence()


@st.composite
def fault_schedules(draw):
    """Alternation-valid random sequences over the tiny geometry.

    Event *i* lands at ``t = (i + 1) * 30`` — two per epoch.  Same-time
    fail/recover pairs of one target stay ordered because the failure
    kind sorts before its recovery kind.
    """
    n = draw(st.integers(min_value=0, max_value=12))
    down: set[str] = set()
    events = []
    for i in range(n):
        if draw(st.booleans()):
            target = PODS[draw(st.integers(0, len(PODS) - 1))]
            fail, recover = FaultKind.POD_LOSS, FaultKind.POD_RESTORE
        else:
            target = SERVERS[draw(st.integers(0, len(SERVERS) - 1))]
            fail, recover = FaultKind.SERVER_CRASH, FaultKind.SERVER_RECOVER
        kind = recover if target in down else fail
        down.symmetric_difference_update({target})
        events.append(FaultEvent((i + 1) * 30.0, kind, target))
    return FaultSchedule(events)


@settings(max_examples=10, deadline=None)
@given(schedule=fault_schedules(), seed=st.integers(0, 99))
def test_property_fault_sequences(schedule, seed):
    run_differential(
        MegaConfig.tiny(seed=seed), schedule=schedule, epochs=5
    ).raise_for_divergence()


@st.composite
def request_sequences(draw):
    """Random VIP/RIP request batches over the wired app subset.

    Requests may legitimately fail (deleting a RIP twice, re-adding an
    existing one); failed requests journal nothing, so authority and
    mirror must agree either way.
    """
    apps = [f"app-{g:06d}" for g in range(WIRED.wired_apps)]
    batches: dict[int, list] = {}
    for _ in range(draw(st.integers(0, 8))):
        epoch = draw(st.integers(0, 3))
        app = apps[draw(st.integers(0, len(apps) - 1))]
        op = draw(st.sampled_from(["new_rip", "del_rip"]))
        rip = f"{app}@{PODS[draw(st.integers(0, len(PODS) - 1))]}"
        if op == "new_rip":
            req = VipRipRequest(
                "new_rip", app, rip=rip,
                weight=draw(st.floats(0.25, 4.0, allow_nan=False)),
            )
        else:
            req = VipRipRequest(op, app, rip=rip)
        batches.setdefault(epoch, []).append(req)
    return batches


@settings(max_examples=6, deadline=None)
@given(requests=request_sequences(), schedule=fault_schedules())
def test_property_request_and_fault_sequences(requests, schedule):
    """The headline oracle: random VIP/RIP requests interleaved with
    random faults; placements AND RIP homing must match at the end."""
    run_differential(
        schedule=schedule,
        epochs=4,
        control_plane=WIRED,
        requests=requests,
    ).raise_for_divergence()
