"""Retry policy determinism and the manager's transient-failure path."""

import pytest

from repro.controlplane import RetryPolicy, TransientError
from repro.controlplane.retry import _JITTER_STEPS
from repro.core.viprip import VipRipManager, VipRipRequest
from repro.lbswitch.addresses import PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits
from repro.sim import Environment


# -- policy ----------------------------------------------------------------
def test_backoff_is_deterministic_and_jitter_bounded():
    p = RetryPolicy(base_backoff_s=0.5, multiplier=2.0, max_backoff_s=8.0)
    for attempt in range(1, p.max_attempts):
        raw = min(0.5 * 2.0 ** (attempt - 1), 8.0)
        a = p.backoff_s(attempt, "new_vip", "app-x")
        b = p.backoff_s(attempt, "new_vip", "app-x")
        assert a == b  # pure function of (attempt, *key)
        assert raw * (1 - p.jitter_fraction) <= a <= raw * (1 + p.jitter_fraction)


def test_distinct_keys_desynchronize():
    p = RetryPolicy()
    delays = {p.backoff_s(1, "new_vip", f"app-{i}") for i in range(20)}
    assert len(delays) > 1  # no thundering herd


def test_backoff_clamps_at_max():
    p = RetryPolicy(
        max_attempts=10, base_backoff_s=1.0, multiplier=4.0,
        max_backoff_s=6.0, jitter_fraction=0.0,
    )
    assert p.backoff_s(1, "k") == 1.0
    assert p.backoff_s(2, "k") == 4.0
    assert p.backoff_s(9, "k") == 6.0  # clamped, not 4**8


def test_should_retry_budget_counts_the_first_try():
    p = RetryPolicy(max_attempts=3)
    assert p.should_retry(1) and p.should_retry(2)
    assert not p.should_retry(3)  # third attempt was the last


def test_schedule_and_worst_case_bound():
    p = RetryPolicy(max_attempts=4)
    steps = range(1, p.max_attempts)
    sched = [p.backoff_s(k, "kind", "app") for k in steps]
    worst = sum(
        min(p.base_backoff_s * p.multiplier ** (k - 1), p.max_backoff_s)
        * (1.0 + p.jitter_fraction)
        for k in steps
    )
    assert len(sched) == 3
    assert sum(sched) <= worst


def test_zero_jitter_is_exactly_exponential():
    p = RetryPolicy(jitter_fraction=0.0, base_backoff_s=0.5)
    assert [p.backoff_s(k, "any") for k in (1, 2, 3)] == [0.5, 1.0, 2.0]


def test_jitter_resolution_covers_the_band():
    p = RetryPolicy(jitter_fraction=0.25, base_backoff_s=1.0, multiplier=1.0,
                    max_backoff_s=1.0, max_attempts=2)
    delays = [p.backoff_s(1, "k", i) for i in range(200)]
    assert len(set(delays)) > 150  # the hash actually spreads...
    spread = max(delays) - min(delays)
    assert spread > 0.25  # ...across most of the +/-25% band
    assert _JITTER_STEPS >= 1_000_000  # fine enough to not quantize visibly


def test_invalid_policies_rejected():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff_s=2.0, max_backoff_s=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter_fraction=1.0)
    with pytest.raises(ValueError):
        RetryPolicy().backoff_s(0, "k")


# -- manager integration ---------------------------------------------------
def build(policy=None):
    env = Environment()
    switches = [
        LBSwitch(f"lb-{i}", env, SwitchLimits(max_vips=10, max_rips=40))
        for i in range(2)
    ]
    mgr = VipRipManager(
        env, switches, PUBLIC_VIP_POOL(100), reconfig_s=1.0, retry_policy=policy
    )
    return env, switches, mgr


def flaky_handler(fail_times):
    """A handler that raises TransientError the first *fail_times* calls,
    then behaves like the real new_vip handler."""
    calls = {"n": 0}

    def handler(mgr, req):
        calls["n"] += 1
        if calls["n"] <= fail_times:
            raise TransientError(f"hiccup {calls['n']}")
            yield  # pragma: no cover - marks this a generator
        yield from VipRipManager._do_new_vip(mgr, req)

    return handler, calls


def test_transient_failures_are_requeued_not_failed():
    env, _, mgr = build(RetryPolicy(max_attempts=4, base_backoff_s=0.25))
    handler, calls = flaky_handler(fail_times=2)
    mgr._HANDLERS = {**VipRipManager._HANDLERS, "new_vip": handler}
    d = mgr.submit(VipRipRequest("new_vip", "app"))
    env.run()
    assert d.triggered and d.value is not None  # eventually succeeded
    assert calls["n"] == 3
    assert mgr.transient_retries == 2
    assert mgr.errored == 0 and mgr.processed == 1
    assert mgr.registry["app"]


def test_exhausted_transient_budget_fails_the_request():
    env, _, mgr = build(RetryPolicy(max_attempts=2, base_backoff_s=0.25))
    handler, calls = flaky_handler(fail_times=10)
    mgr._HANDLERS = {**VipRipManager._HANDLERS, "new_vip": handler}
    d = mgr.submit(VipRipRequest("new_vip", "app"))
    env.run()
    assert d.triggered and isinstance(d.value, TransientError)
    assert calls["n"] == 2  # first try + the single retry in budget
    assert mgr.transient_retries == 1 and mgr.errored == 1
    assert mgr.processed == 0


def test_retry_backoff_times_are_reproducible():
    def timeline(seed_irrelevant):
        env, _, mgr = build(RetryPolicy(max_attempts=4, base_backoff_s=0.5))
        handler, _ = flaky_handler(fail_times=2)
        mgr._HANDLERS = {**VipRipManager._HANDLERS, "new_vip": handler}
        d = mgr.submit(VipRipRequest("new_vip", "app"))
        env.run()
        return env.now, d.value

    assert timeline(0) == timeline(1)  # no RNG state anywhere in the path


def test_crash_during_backoff_drops_the_retrying_request():
    env, _, mgr = build(RetryPolicy(max_attempts=4, base_backoff_s=5.0))
    handler, _ = flaky_handler(fail_times=1)
    mgr._HANDLERS = {**VipRipManager._HANDLERS, "new_vip": handler}
    d = mgr.submit(VipRipRequest("new_vip", "app"))
    env.run(until=2.0)  # inside the first backoff window
    assert mgr._retrying
    mgr.crash()
    env.run()
    assert d.triggered and d.value is None  # dropped like queued work
    assert mgr.lost >= 1 and not mgr._retrying
