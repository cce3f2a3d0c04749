"""Tests for address pools, LB switch tables, conntrack, selection, reconfig."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lbswitch import (
    AddressPool,
    ConnectionTable,
    LBSwitch,
    PRIVATE_RIP_POOL,
    PUBLIC_VIP_POOL,
    SmoothWeightedRR,
    SwitchLimits,
)
from repro.sim import Environment


# ------------------------------------------------------------- address pool


def test_pool_sequential_allocation():
    pool = AddressPool("10.0.0.0", 300, "rip")
    ips = [pool.allocate() for _ in range(258)]
    assert ips[0] == "10.0.0.0"
    assert ips[255] == "10.0.0.255"
    assert ips[256] == "10.0.1.0"
    assert len(pool._allocated) == 258


def test_pool_release_and_recycle():
    pool = AddressPool("10.0.0.0", 4, "t")
    a = pool.allocate()
    b = pool.allocate()
    pool.release(a)
    assert not pool.is_allocated(a)
    assert pool.is_allocated(b)
    c = pool.allocate()  # recycled FIFO
    assert c == a


def test_pool_exhaustion_and_errors():
    pool = AddressPool("10.0.0.0", 2, "t")
    pool.allocate()
    pool.allocate()
    with pytest.raises(RuntimeError, match="exhausted"):
        pool.allocate()
    with pytest.raises(KeyError):
        pool.release("1.2.3.4")
    with pytest.raises(ValueError):
        AddressPool("300.0.0.0", 10)
    with pytest.raises(ValueError):
        AddressPool("10.0.0.0", 0)


def test_pool_factories():
    assert PUBLIC_VIP_POOL(10).allocate().startswith("203.")
    assert PRIVATE_RIP_POOL(10).allocate().startswith("10.")


# ------------------------------------------------------------------ switch


def small_switch(env=None):
    return LBSwitch("lb-0", env, SwitchLimits(max_vips=3, max_rips=5, throughput_gbps=4.0))


def test_switch_vip_limit_enforced():
    sw = small_switch()
    for i in range(3):
        sw.add_vip(f"v{i}", f"app{i}")
    assert sw.vip_slots_free == 0
    with pytest.raises(RuntimeError, match="VIP table full"):
        sw.add_vip("v3", "app3")


def test_switch_rip_limit_enforced():
    sw = small_switch()
    sw.add_vip("v0", "a")
    for i in range(5):
        sw.add_rip("v0", f"10.0.0.{i}")
    with pytest.raises(RuntimeError, match="RIP table full"):
        sw.add_rip("v0", "10.0.0.9")


def test_switch_duplicate_and_missing():
    sw = small_switch()
    sw.add_vip("v0", "a")
    with pytest.raises(ValueError):
        sw.add_vip("v0", "a")
    sw.add_rip("v0", "r1")
    with pytest.raises(ValueError):
        sw.add_rip("v0", "r1")
    with pytest.raises(KeyError):
        sw.add_rip("nope", "r2")
    with pytest.raises(KeyError):
        sw.remove_rip("v0", "r9")
    with pytest.raises(KeyError):
        sw.remove_vip("vX")


def test_switch_remove_vip_frees_rips():
    sw = small_switch()
    sw.add_vip("v0", "a")
    sw.add_rip("v0", "r1")
    sw.add_rip("v0", "r2")
    assert sw.num_rips == 2
    entry = sw.remove_vip("v0")
    assert sw.num_rips == 0 and sw.num_vips == 0
    assert set(entry.rips) == {"r1", "r2"}


def test_switch_transfer_roundtrip():
    env = Environment()
    src, dst = small_switch(env), LBSwitch("lb-1", env, SwitchLimits(max_vips=3, max_rips=5))
    src.add_vip("v0", "a")
    src.add_rip("v0", "r1", weight=2.0)
    src.set_vip_traffic("v0", 1.5)
    entry = src.remove_vip("v0")
    dst.install_entry(entry)
    assert dst.has_vip("v0")
    assert dst.entry("v0").rips == {"r1": 2.0}
    assert dst.traffic_gbps == 1.5
    assert src.traffic_gbps == 0.0
    with pytest.raises(ValueError):
        dst.install_entry(entry)


def test_switch_install_entry_respects_limits():
    sw = LBSwitch("lb", None, SwitchLimits(max_vips=1, max_rips=1))
    from repro.lbswitch.switch import VipEntry

    with pytest.raises(RuntimeError, match="RIP table would overflow"):
        sw.install_entry(VipEntry("v", "a", {"r1": 1.0, "r2": 1.0}))


def test_switch_weights_and_traffic_split():
    sw = small_switch()
    sw.add_vip("v0", "a")
    sw.add_rip("v0", "r1", weight=1.0)
    sw.add_rip("v0", "r2", weight=3.0)
    sw.set_vip_traffic("v0", 8.0)
    entry = sw.entry("v0")
    assert entry.traffic_gbps == pytest.approx(8.0)
    assert entry.normalized_weights() == pytest.approx({"r1": 0.25, "r2": 0.75})
    sw.set_rip_weight("v0", "r2", 1.0)
    assert sw.entry("v0").normalized_weights()["r2"] == pytest.approx(0.5)


def test_switch_weight_validation():
    sw = small_switch()
    sw.add_vip("v0", "a")
    with pytest.raises(ValueError):
        sw.add_rip("v0", "r1", weight=0.0)
    sw.add_rip("v0", "r1")
    with pytest.raises(ValueError):
        sw.set_rip_weight("v0", "r1", -1.0)
    with pytest.raises(ValueError):
        sw.set_vip_traffic("v0", -1.0)


def test_switch_utilization_and_monitor():
    env = Environment()
    sw = small_switch(env)
    sw.add_vip("v0", "a")
    sw.add_vip("v1", "b")
    sw.set_vip_traffic("v0", 1.0)
    sw.set_vip_traffic("v1", 2.0)
    assert sw.utilization == pytest.approx(0.75)
    assert sw.monitor.load == pytest.approx(3.0)


def test_switch_vips_of_app():
    sw = small_switch()
    sw.add_vip("v0", "a")
    sw.add_vip("v1", "b")
    sw.add_vip("v2", "a")
    assert sw.vips_of_app("a") == ["v0", "v2"]
    assert sw.vips() == ["v0", "v1", "v2"]


# Traffic values whose sums round differently in different orders.
_GBPS = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1e-17, 1.0, 3.3, 1e16])
_SWITCH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5)),
        st.tuples(st.just("remove"), st.integers(0, 5)),
        st.tuples(st.just("install"), st.integers(0, 5), _GBPS),
        st.tuples(st.just("traffic"), st.integers(0, 5), _GBPS),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=_SWITCH_OPS)
def test_switch_traffic_memo_is_a_fresh_sum(ops):
    """After any interleaving of the mutations that change the table's
    traffic, ``traffic_gbps`` is bit for bit the left-to-right sum over
    the VIPs in insertion order (kept here as an independent model)."""
    from repro.lbswitch.switch import VipEntry

    sw = LBSwitch("lb", None, SwitchLimits(max_vips=8, max_rips=64))
    model: dict[str, float] = {}  # vip -> traffic, in table order
    for op, i, *gbps in ops:
        vip = f"v{i}"
        if op in ("add", "install") and vip not in model:
            if op == "add":
                sw.add_vip(vip, "a")
            else:
                sw.install_entry(VipEntry(vip, "a", {"r": 1.0}, gbps[0]))
            model[vip] = gbps[0] if gbps else 0.0
        elif op == "remove" and vip in model:
            sw.remove_vip(vip)
            del model[vip]
        elif op == "traffic" and vip in model:
            sw.set_vip_traffic(vip, gbps[0])
            model[vip] = gbps[0]
        fresh = sum(model.values())
        assert sw.vips() == sorted(model)
        assert repr(sw.traffic_gbps) == repr(fresh)
        # The same sum read off the table itself, in insertion order.
        table = sum(e.traffic_gbps for e in sw._vips.values())
        assert repr(sw.traffic_gbps) == repr(table)


# ---------------------------------------------------------------- conntrack


def test_conntrack_open_close_and_affinity():
    ct = ConnectionTable(max_connections=10)
    assert ct.open(1, "v1", "r1", now=0.0)
    assert ct.open(2, "v1", "r2", now=1.0)
    assert ct.count_for_vip("v1") == 2
    assert ct.rip_of(1) == "r1"
    ct.close(1)
    assert ct.count_for_vip("v1") == 1
    assert not ct.is_paused("v1")
    ct.close(2)
    assert ct.is_paused("v1")


def test_conntrack_limit_rejects():
    ct = ConnectionTable(max_connections=1)
    assert ct.open(1, "v", "r", 0.0)
    assert not ct.open(2, "v", "r", 0.0)
    assert ct.rejected == 1


def test_conntrack_errors():
    ct = ConnectionTable()
    ct.open(1, "v", "r", 0.0)
    with pytest.raises(ValueError):
        ct.open(1, "v", "r", 0.0)
    with pytest.raises(KeyError):
        ct.close(99)
    with pytest.raises(ValueError):
        ConnectionTable(0)


def test_conntrack_drop_vip():
    ct = ConnectionTable()
    for i in range(5):
        ct.open(i, "v1" if i < 3 else "v2", "r", 0.0)
    assert ct.drop_vip("v1") == 3
    assert ct.is_paused("v1")
    assert ct.count_for_vip("v2") == 2


# ---------------------------------------------------------------- selection


def test_swrr_proportional():
    wrr = SmoothWeightedRR({"a": 3.0, "b": 1.0})
    picks = [wrr.pick() for _ in range(400)]
    assert picks.count("a") == 300
    assert picks.count("b") == 100


def test_swrr_smoothness():
    # weights 1/1 alternate perfectly
    wrr = SmoothWeightedRR({"a": 1.0, "b": 1.0})
    picks = [wrr.pick() for _ in range(6)]
    assert picks[0] != picks[1] and picks[1] != picks[2]


def test_swrr_update_weights():
    wrr = SmoothWeightedRR({"a": 1.0, "b": 1.0})
    wrr.update_weights({"a": 1.0, "c": 1.0})
    picks = {wrr.pick() for _ in range(10)}
    assert picks == {"a", "c"}


def test_swrr_validation():
    with pytest.raises(ValueError):
        SmoothWeightedRR({})
    with pytest.raises(ValueError):
        SmoothWeightedRR({"a": -1.0})
    with pytest.raises(ValueError):
        SmoothWeightedRR({"a": 0.0})
    wrr = SmoothWeightedRR({"a": 1.0})
    wrr.update_weights({"a": 0.0})
    with pytest.raises(RuntimeError):
        wrr.pick()


@settings(max_examples=50, deadline=None)
@given(
    weights=st.dictionaries(
        st.sampled_from(["r1", "r2", "r3", "r4"]),
        st.integers(1, 5),
        min_size=1,
    )
)
def test_swrr_exact_proportionality_over_cycle(weights):
    wrr = SmoothWeightedRR({k: float(v) for k, v in weights.items()})
    total = sum(weights.values())
    picks = [wrr.pick() for _ in range(total * 10)]
    for rip, w in weights.items():
        assert picks.count(rip) == w * 10
