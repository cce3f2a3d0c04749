"""VipRipRequest field-combination validation (fails at construction,
not deep inside the serialized processor)."""

import pytest

from repro.core.viprip import VipRipRequest


def test_valid_combinations_construct():
    VipRipRequest("new_vip", "app")
    VipRipRequest("new_rip", "app", rip="10.0.0.1")
    VipRipRequest("new_rip", "app", rip="10.0.0.1", weight=2.5)
    VipRipRequest("del_rip", "app", rip="10.0.0.1")
    VipRipRequest("move_vip", "app", vip="203.0.113.1")
    VipRipRequest("move_vip", "app", vip="203.0.113.1", switch="lb-0")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown request kind"):
        VipRipRequest("teleport_vip", "app")


@pytest.mark.parametrize(
    "kind, kwargs",
    [
        pytest.param("del_vip", {"vip": "203.0.113.1"}, id="del_vip"),
        pytest.param("set_weight", {"rip": "10.0.0.1"}, id="set_weight"),
    ],
)
def test_kinds_the_platform_never_submits_rejected(kind, kwargs):
    with pytest.raises(ValueError, match="unknown request kind"):
        VipRipRequest(kind, "app", **kwargs)


@pytest.mark.parametrize("kind", ["move_vip"])
def test_vip_kinds_require_vip(kind):
    with pytest.raises(ValueError, match="needs a vip"):
        VipRipRequest(kind, "app")


@pytest.mark.parametrize("kind", ["new_rip", "del_rip"])
def test_rip_kinds_require_rip(kind):
    with pytest.raises(ValueError, match="needs a rip"):
        VipRipRequest(kind, "app")


@pytest.mark.parametrize("kind", ["new_vip", "new_rip", "del_rip"])
def test_stray_vip_rejected(kind):
    kwargs = {"rip": "10.0.0.1"} if kind != "new_vip" else {}
    with pytest.raises(ValueError, match="must not carry a vip"):
        VipRipRequest(kind, "app", vip="203.0.113.1", **kwargs)


@pytest.mark.parametrize("kind", ["new_vip", "move_vip"])
def test_stray_rip_rejected(kind):
    kwargs = {"vip": "203.0.113.1"} if kind != "new_vip" else {}
    with pytest.raises(ValueError, match="must not carry a rip"):
        VipRipRequest(kind, "app", rip="10.0.0.1", **kwargs)


def test_new_rip_weight_must_be_positive():
    with pytest.raises(ValueError, match="weight must be positive"):
        VipRipRequest("new_rip", "app", rip="10.0.0.1", weight=0.0)
    with pytest.raises(ValueError, match="weight must be positive"):
        VipRipRequest("new_rip", "app", rip="10.0.0.1", weight=-1.0)


def test_switch_only_on_move_vip():
    with pytest.raises(ValueError, match="source switch"):
        VipRipRequest("new_vip", "app", switch="lb-0")
    with pytest.raises(ValueError, match="source switch"):
        VipRipRequest("del_rip", "app", rip="10.0.0.1", switch="lb-0")
