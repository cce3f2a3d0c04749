"""Randomized stress test: the VIP/RIP manager's registries never drift
from the switch tables under arbitrary request interleavings."""

import numpy as np
import pytest

from repro.core.viprip import VipRipManager, VipRipRequest
from repro.lbswitch.addresses import PUBLIC_VIP_POOL
from repro.lbswitch.switch import LBSwitch, SwitchLimits
from repro.sim import Environment

pytestmark = pytest.mark.slow


def consistency_check(mgr: VipRipManager):
    # 1. every registered VIP is on exactly the switch the registry says
    for app, vips in mgr.registry.items():
        for vip, switch_name in vips.items():
            switch = mgr.switches[switch_name]
            assert switch.has_vip(vip), (app, vip, switch_name)
            assert switch.entry(vip).app == app
    # 2. every rip_index entry matches a real table entry
    for rip, (vip, switch_name) in mgr.rip_index.items():
        switch = mgr.switches[switch_name]
        assert switch.has_vip(vip)
        assert rip in switch.entry(vip).rips
    # 3. no switch exceeds its limits
    for switch in mgr.switches.values():
        assert switch.num_vips <= switch.limits.max_vips
        assert switch.num_rips <= switch.limits.max_rips
    # 4. every configured VIP is in the registry (no orphans)
    registered = {
        vip for vips in mgr.registry.values() for vip in vips
    }
    for switch in mgr.switches.values():
        for vip in switch.vips():
            assert vip in registered


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_request_storms_stay_consistent(seed):
    rng = np.random.default_rng(seed)
    env = Environment()
    switches = [
        LBSwitch(f"lb-{i}", env, SwitchLimits(max_vips=6, max_rips=20))
        for i in range(4)
    ]
    mgr = VipRipManager(env, switches, PUBLIC_VIP_POOL(1000), reconfig_s=0.5)

    apps = [f"app-{i}" for i in range(6)]
    live_rips: list[str] = []
    next_rip = [0]
    events = []
    for _ in range(120):
        kind = rng.choice(["new_vip", "new_rip", "del_rip"])
        app = str(rng.choice(apps))
        if kind == "new_vip":
            req = VipRipRequest("new_vip", app)
        elif kind == "new_rip":
            rip = f"10.0.0.{next_rip[0]}"
            next_rip[0] += 1
            live_rips.append(rip)
            req = VipRipRequest("new_rip", app, rip=rip)
        else:
            rip = str(rng.choice(live_rips)) if live_rips else "none"
            req = VipRipRequest("del_rip", app, rip=rip)
        events.append(mgr.submit(req))
    env.run(until=events[-1])
    # let the queue drain fully
    env.run()
    assert not mgr._heap
    assert mgr.processed == 120
    consistency_check(mgr)


def test_storm_beyond_capacity_rejects_cleanly():
    env = Environment()
    switches = [LBSwitch("lb-0", env, SwitchLimits(max_vips=3, max_rips=5))]
    mgr = VipRipManager(env, switches, PUBLIC_VIP_POOL(100), reconfig_s=0.1)
    dones = [mgr.submit(VipRipRequest("new_vip", f"a{i}")) for i in range(8)]
    env.run(until=dones[-1])
    assert switches[0].num_vips == 3
    assert mgr.rejected == 5
    consistency_check(mgr)
