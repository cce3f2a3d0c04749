"""The acceptance scenario (E13): 1 switch failure + 2 server crashes
during steady load, as reproduced by ``python -m repro faults --seed 42``."""

from repro.experiments.e13_failure_recovery import run


def test_scripted_scenario_recovers():
    result = run(seed=42, duration_s=3600.0)
    # zero VIPs on failed switches, all displaced VMs re-placed
    assert result.vips_on_failed_mid == 0
    assert result.rips_on_crashed_mid == 0
    # MTTR > 0 for both exercised fault classes
    assert result.mttr_by_class["server"] > 0
    assert result.mttr_by_class["switch"] > 0
    assert result.invariants_ok
    assert result.recovered
    # the blackout cost demand (traffic black-holed until re-homed)
    assert result.monitor.dropped_gb > 0
    # steady state restored after repair
    assert result.satisfied_end > 0.99
    # the table renders (CLI path)
    assert "failure recovery" in result.table().render()


def test_scenario_is_deterministic():
    a = run(seed=42, duration_s=1800.0)
    b = run(seed=42, duration_s=1800.0)
    assert a.monitor.records == b.monitor.records
    assert a.crashed_servers == b.crashed_servers
    assert a.failed_switch == b.failed_switch
    assert a.monitor.dropped_gb == b.monitor.dropped_gb


def test_scenario_with_serialized_reconfig_and_link():
    result = run(
        seed=5, duration_s=2400.0, serialized_reconfig=True, fail_link=True
    )
    assert result.vips_on_failed_mid == 0
    assert result.mttr_by_class["link"] > 0
    assert result.recovered
