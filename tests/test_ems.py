import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmtwin.ems import (
    CHARGE,
    DISCHARGE,
    IDLE,
    NONE,
    START,
    STOP,
    ActionSet,
    EmsConfig,
    Measurements,
    charge_viable,
    discharge_viable,
    ems_tick,
    turbine_convenient,
)

CFG = EmsConfig()


def measure(solar=0.0, load=0.0, level=50.0, running=False) -> Measurements:
    return Measurements(solar_generation_kw=solar, total_consumption_kw=load,
                        storage_level_pct=level, turbine_running=running)


class TestBranchExamples:
    def test_surplus_charges_and_stops_turbine(self):
        actions = ems_tick(CFG, measure(solar=60, load=30, level=50))
        assert actions == ActionSet(CHARGE, STOP, False, 0.0)

    def test_surplus_at_ceiling_dissipates(self):
        actions = ems_tick(CFG, measure(solar=60, load=30, level=90))
        assert actions == ActionSet(IDLE, STOP, True, 0.0)

    def test_deficit_discharges(self):
        actions = ems_tick(CFG, measure(solar=10, load=40, level=50))
        assert actions == ActionSet(DISCHARGE, NONE, False, 0.0)

    def test_small_deficit_with_empty_storage_goes_to_grid(self):
        actions = ems_tick(CFG, measure(solar=10, load=40, level=10))
        assert actions == ActionSet(IDLE, STOP, False, 30.0)

    def test_large_deficit_with_empty_storage_starts_turbine(self):
        actions = ems_tick(CFG, measure(solar=10, load=110, level=10))
        assert actions == ActionSet(IDLE, START, False, 35.0)


class TestBoundaries:
    def test_charge_ceiling_is_strict(self):
        assert charge_viable(CFG, 89.999)
        assert not charge_viable(CFG, 90.0)
        assert not charge_viable(CFG, 100.0)

    def test_discharge_floor_is_strict(self):
        assert discharge_viable(CFG, 10.001)
        assert not discharge_viable(CFG, 10.0)
        assert not discharge_viable(CFG, 0.0)

    def test_turbine_threshold_is_strict(self):
        assert turbine_convenient(CFG, 65.001)
        assert not turbine_convenient(CFG, 65.0)

    def test_zero_balance_is_surplus_branch(self):
        actions = ems_tick(CFG, measure(solar=30, load=30, level=50))
        assert actions.storage_mode == CHARGE

    def test_exact_threshold_deficit_goes_to_grid(self):
        actions = ems_tick(CFG, measure(solar=0, load=65, level=10))
        assert actions == ActionSet(IDLE, STOP, False, 65.0)


class TestValidation:
    def test_config_ordering(self):
        with pytest.raises(ValueError):
            EmsConfig(charge_ceiling=10, discharge_floor=90)
        with pytest.raises(ValueError):
            EmsConfig(turbine_threshold_kw=0)

    def test_measurement_ranges(self):
        with pytest.raises(ValueError):
            measure(solar=-1)
        with pytest.raises(ValueError):
            measure(level=101)


@given(
    solar=st.floats(min_value=0, max_value=500),
    load=st.floats(min_value=0, max_value=500),
    level=st.floats(min_value=0, max_value=100),
    running=st.booleans(),
)
@settings(max_examples=100000, deadline=None)
@pytest.mark.slow
def test_every_input_is_handled_and_consistent(solar, load, level, running):
    actions = ems_tick(CFG, measure(solar, load, level, running))
    assert actions.storage_mode in (CHARGE, DISCHARGE, IDLE)
    assert actions.turbine_command in (START, STOP, NONE)
    # charging and starting the turbine together never makes sense
    assert not (actions.storage_mode == CHARGE and actions.turbine_command == START)
    # dissipation only on the surplus branch with a full store
    if actions.dissipate_surplus:
        assert solar >= load and level >= CFG.charge_ceiling
    # grid import expected only when nothing else covers the deficit
    if actions.grid_import_expected_kw > 0:
        assert load > solar
        assert actions.storage_mode != CHARGE
    assert actions.grid_import_expected_kw >= 0


@given(scale=st.floats(min_value=0.001, max_value=1000))
@settings(max_examples=200)
def test_branch_choice_is_power_scale_invariant(scale):
    # thresholds on the storage level are percentages, so scaling every
    # power by the same factor above the turbine threshold keeps the branch
    a = ems_tick(CFG, measure(solar=20 * scale, load=10 * scale, level=50))
    assert a.storage_mode == CHARGE
    b = ems_tick(CFG, measure(solar=10 * scale, load=20 * scale, level=50))
    assert b.storage_mode == DISCHARGE
