"""Tests for the serialized VIP/RIP manager."""

import pytest

from repro.core.switch_pods import SwitchPodManager
from repro.core.viprip import VipRipManager, VipRipRequest
from repro.lbswitch.addresses import PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits
from repro.sim import Environment


def build(n_switches=3, max_vips=10, max_rips=40, reconfig_s=3.0, selector=None):
    env = Environment()
    switches = [
        LBSwitch(f"lb-{i}", env, SwitchLimits(max_vips=max_vips, max_rips=max_rips))
        for i in range(n_switches)
    ]
    mgr = VipRipManager(
        env, switches, PUBLIC_VIP_POOL(1000), selector=selector, reconfig_s=reconfig_s
    )
    return env, switches, mgr


def test_new_vip_allocates_and_configures():
    env, switches, mgr = build()
    done = mgr.submit(VipRipRequest("new_vip", "foo.com"))
    env.run(until=done)
    vip, switch_name = done.value
    assert vip.startswith("203.")
    assert mgr.switches[switch_name].has_vip(vip)
    assert mgr.vips_of("foo.com") == {vip: switch_name}
    assert mgr.processed == 1


def test_requests_are_serialized():
    env, switches, mgr = build(reconfig_s=3.0)
    d1 = mgr.submit(VipRipRequest("new_vip", "a"))
    d2 = mgr.submit(VipRipRequest("new_vip", "b"))
    env.run(until=d2)
    # each request: selection cost (~1.5e-4) + 3s reconfig, strictly serial
    assert env.now >= 6.0


def test_priority_ordering():
    env, switches, mgr = build()
    order = []
    low = mgr.submit(VipRipRequest("new_vip", "low", priority=20))
    high = mgr.submit(VipRipRequest("new_vip", "high", priority=1))
    low.callbacks.append(lambda ev: order.append("low"))
    high.callbacks.append(lambda ev: order.append("high"))
    env.run()
    assert order == ["high", "low"]


def test_new_rip_goes_to_hosting_switch():
    env, switches, mgr = build()
    d1 = mgr.submit(VipRipRequest("new_vip", "app"))
    env.run(until=d1)
    vip, switch_name = d1.value
    d2 = mgr.submit(VipRipRequest("new_rip", "app", rip="10.0.0.1"))
    env.run(until=d2)
    rip_vip, rip_switch = d2.value
    assert rip_switch == switch_name
    assert rip_vip == vip
    assert mgr.switches[switch_name].entry(vip).rips == {"10.0.0.1": 1.0}
    assert mgr.rip_index["10.0.0.1"] == (vip, switch_name)


def test_new_rip_without_vip_rejected():
    env, switches, mgr = build()
    done = mgr.submit(VipRipRequest("new_rip", "ghost", rip="10.0.0.1"))
    env.run(until=done)
    assert done.value is None
    assert mgr.rejected == 1


def test_vip_balancing_across_switches():
    env, switches, mgr = build(n_switches=3)
    events = [mgr.submit(VipRipRequest("new_vip", f"app-{i}")) for i in range(6)]
    env.run(until=events[-1])
    counts = [s.num_vips for s in switches]
    assert counts == [2, 2, 2]  # spread evenly


def test_del_rip():
    env, switches, mgr = build()
    d1 = mgr.submit(VipRipRequest("new_vip", "app"))
    env.run(until=d1)
    vip, sw = d1.value
    d2 = mgr.submit(VipRipRequest("new_rip", "app", rip="10.0.0.5", weight=4.0))
    env.run(until=d2)
    assert mgr.switches[sw].entry(vip).rips["10.0.0.5"] == 4.0
    d3 = mgr.submit(VipRipRequest("del_rip", "app", rip="10.0.0.5"))
    env.run(until=d3)
    assert mgr.switches[sw].entry(vip).rips == {}


def test_del_rip_unknown_rip_rejected():
    env, switches, mgr = build()
    done = mgr.submit(VipRipRequest("del_rip", "app", rip="10.9.9.9"))
    env.run(until=done)
    assert mgr.rejected == 1


def test_exhausted_switches_reject_new_vip():
    env, switches, mgr = build(n_switches=1, max_vips=1)
    d1 = mgr.submit(VipRipRequest("new_vip", "a"))
    d2 = mgr.submit(VipRipRequest("new_vip", "b"))
    env.run(until=d2)
    assert d2.value is None
    assert mgr.rejected == 1


def test_hierarchical_selector_works_end_to_end():
    env = Environment()
    switches = [
        LBSwitch(f"lb-{i}", env, SwitchLimits(max_vips=10, max_rips=40))
        for i in range(8)
    ]
    mgr = VipRipManager(
        env,
        switches,
        PUBLIC_VIP_POOL(1000),
        selector=SwitchPodManager(switches, pod_size=4),
        reconfig_s=1.0,
    )
    done = mgr.submit(VipRipRequest("new_vip", "app"))
    env.run(until=done)
    assert done.value is not None


def test_invalid_request_kind():
    with pytest.raises(ValueError):
        VipRipRequest("bogus", "app")


def test_busy_time_accounted():
    env, switches, mgr = build(reconfig_s=2.0)
    done = mgr.submit(VipRipRequest("new_vip", "a"))
    env.run(until=done)
    assert mgr.busy_s >= 2.0


# -- error containment (the queue-wedge regression) ------------------------
def test_handler_exception_does_not_wedge_the_queue():
    """A request whose handler blows up must fail its own done event and
    leave the serialized processor alive for everyone queued behind it."""
    env, switches, mgr = build(reconfig_s=1.0)

    def exploding_handler(self, req):
        yield self.env.timeout(0.1)
        raise RuntimeError("boom")

    mgr._HANDLERS = {**VipRipManager._HANDLERS, "new_vip": exploding_handler}
    bad = mgr.submit(VipRipRequest("new_vip", "doomed"))
    good = mgr.submit(VipRipRequest("new_rip", "doomed", rip="10.0.0.1"))
    env.run(until=good)
    assert bad.triggered and not bad.ok
    assert isinstance(bad.value, RuntimeError) and "boom" in str(bad.value)
    assert mgr.errored == 1
    assert good.triggered  # the queue kept draining past the bad request
    assert mgr.processed == 1


def test_unknown_kind_raises_typed_error_not_attribute_error():
    from repro.core.viprip import UnknownRequestKind

    env, switches, mgr = build()
    req = VipRipRequest("new_vip", "app")
    req.kind = "frobnicate"  # bypasses construction-time validation
    done = mgr.submit(req)
    env.run()
    assert done.triggered and not done.ok
    assert isinstance(done.value, UnknownRequestKind)
    assert "frobnicate" in str(done.value)
    # and the processor survived the poison request
    ok = mgr.submit(VipRipRequest("new_vip", "app"))
    env.run(until=ok)
    assert ok.value is not None


def test_switch_of_vip_raises_typed_error():
    from repro.core.viprip import UnknownVipError

    env, switches, mgr = build()
    done = mgr.submit(VipRipRequest("new_vip", "app"))
    env.run(until=done)
    vip, switch_name = done.value
    assert mgr.switch_of_vip("app", vip).name == switch_name
    with pytest.raises(UnknownVipError, match="no VIP"):
        mgr.switch_of_vip("app", "198.51.100.99")
    with pytest.raises(UnknownVipError, match="unknown-app"):
        mgr.switch_of_vip("unknown-app", vip)
    # UnknownVipError subclasses KeyError so legacy except-clauses hold
    assert issubclass(UnknownVipError, KeyError)
