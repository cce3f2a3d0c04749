"""Tests for the energy extension (PowerModel, EnergyAccountant)."""

import pytest

from repro.core.energy import EnergyAccountant, PowerModel
from repro.hosts.server import PhysicalServer, ServerSpec
from repro.hosts.vm import VM
from repro.sim import Environment


def test_power_model_linear_curve():
    model = PowerModel(idle_w=100, peak_w=200)
    s = PhysicalServer("s", ServerSpec(cpu_capacity=1.0))
    assert model.server_power_w(s) == 100
    s.attach(VM("v", "a", 0.5, 4.0))
    assert model.server_power_w(s) == 150
    s.resize("v", 1.0)
    assert model.server_power_w(s) == 200
    assert model.server_power_w(s, parked=False) == 200


def test_power_model_parked():
    model = PowerModel(parked_w=5)
    s = PhysicalServer("s")
    assert model.server_power_w(s, parked=True) == 5


def test_power_model_validation():
    with pytest.raises(ValueError):
        PowerModel(idle_w=300, peak_w=200)
    with pytest.raises(ValueError):
        PowerModel(idle_w=-1)


def test_accountant_integrates_energy():
    env = Environment()
    model = PowerModel(idle_w=100, peak_w=200)
    acct = EnergyAccountant(env, model)
    servers = [PhysicalServer(f"s{i}") for i in range(2)]
    acct.sample(servers)  # 2 idle servers at 100 W

    def proc():
        yield env.timeout(3600.0)

    env.process(proc())
    env.run()
    acct.sample(servers)
    assert acct.energy_wh == pytest.approx(200.0)  # 200 W x 1 h
    assert acct.energy_kwh == pytest.approx(0.2)


def test_accountant_park_all_empty_wakes_loaded():
    env = Environment()
    acct = EnergyAccountant(env)
    empty = PhysicalServer("empty")
    busy = PhysicalServer("busy")
    busy.attach(VM("v", "a", 0.1, 1.0))
    n = acct.park_all_empty([empty, busy])
    assert n == 1
    assert acct._parked == {"empty"}
    # busy server drains, empty one fills: parking flips
    busy.detach("v")
    empty.attach(VM("v2", "b", 0.1, 1.0))
    acct.park_all_empty([empty, busy])
    assert acct._parked == {"busy"}


def test_parked_server_uses_parked_power():
    env = Environment()
    model = PowerModel(idle_w=100, peak_w=200, parked_w=10)
    acct = EnergyAccountant(env, model)
    s = PhysicalServer("s")
    acct.park_all_empty([s])
    power = acct.sample([s])
    assert power == 10


def test_greedy_packing_flag_consolidates_starts():
    import numpy as np

    from repro.placement import GreedyController, PlacementProblem, evaluate_solution

    problem = PlacementProblem(
        server_cpu=np.ones(4),
        server_mem=np.full(4, 32.0),
        app_cpu_demand=np.array([0.3, 0.3, 0.3]),
        app_mem=np.full(3, 4.0),
        current=np.zeros((4, 3), dtype=bool),
    )
    packed = GreedyController(packing=True).solve(problem)
    spread = GreedyController(packing=False).solve(problem)
    evaluate_solution(problem, packed)
    evaluate_solution(problem, spread)
    servers_used_packed = int((packed.placement.any(axis=1)).sum())
    servers_used_spread = int((spread.placement.any(axis=1)).sum())
    assert servers_used_packed < servers_used_spread
    assert servers_used_packed == 1  # 3 x 0.3 fits one server
