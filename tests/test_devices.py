import pytest

from spmtwin.devices import (
    CONSUMPTION_REGISTER,
    MASTER_COIL,
    MAX_CONSUMPTION_REGISTER,
    TRIP_COIL,
    CommandError,
    SmartCabinet,
    SolarController,
    StorageController,
    TripPlc,
    TurbineController,
)
from spmtwin.simcore import (
    InterpolationTable,
    LinearStateSpace,
)

STORAGE = dict(A=[[0.0]], B=[[0.12667, -0.14]])
TURBINE = dict(A=[[-0.3076, 0.0], [0.0008, -0.2]],
               B=[[4750.0, 29993.0, -0.1], [1.0, 45.0, 0.2]])


def storage() -> StorageController:
    return StorageController(LinearStateSpace(x=[50.0], **STORAGE))


def turbine() -> TurbineController:
    return TurbineController(LinearStateSpace(x=[0.0, 15.0], **TURBINE))


class TestSmartCabinet:
    def test_registers_seeded_on_creation(self):
        cab = SmartCabinet("a", 1500, 10000)
        rf = cab.register_file
        assert rf.get_input(CONSUMPTION_REGISTER) == 1500
        assert rf.get_input(MAX_CONSUMPTION_REGISTER) == 10000
        assert rf.get_coil(TRIP_COIL) is False
        assert rf.get_coil(MASTER_COIL) is True

    def test_sample_sums_base_and_clients(self):
        cab = SmartCabinet("a", 1500, 10000)
        assert cab.sample([250.0, 250.0, 300.0]) == 2300
        assert cab.register_file.get_input(CONSUMPTION_REGISTER) == 2300

    def test_sample_adds_loads_left_to_right(self):
        # a compensated sum, as sum() of floats is from Python 3.12 on,
        # gives 5198 here: the sample must not depend on the interpreter
        cab = SmartCabinet("a", 1500.1060993773144, 10000)
        assert cab.sample([
            297.44701861078903, 233.87684785165362, 338.54972256119584,
            277.7211410986529, 304.8823031384013, 286.8610477116769,
            279.3163166725016, 231.3187436940116, 294.6324322328312,
            276.7553608026137, 253.71018285153406, 313.1697929281453,
            310.15299046867864]) == 5199

    def test_master_off_reads_zero(self):
        cab = SmartCabinet("a", 1500, 10000)
        cab.register_file.set_coil(MASTER_COIL, False)
        assert cab.sample([500.0]) == 0

    def test_sample_saturates_u16(self):
        cab = SmartCabinet("a", 1500, 10000)
        assert cab.sample([100000.0]) == 0xFFFF


class TestTripPlc:
    def test_trips_above_max_and_latches(self):
        cab = SmartCabinet("a", 1500, 10000)
        trips, resets = [], []
        plc = TripPlc(on_trip=lambda: trips.append(1),
                      on_reset=lambda: resets.append(1))
        cab.sample([9000.0])
        assert plc.scan(cab.register_file) is True
        assert trips == [1]
        # load drops but the coil latches
        cab.sample([])
        assert plc.scan(cab.register_file) is True
        assert trips == [1] and resets == []

    def test_reset_requires_explicit_coil_write(self):
        cab = SmartCabinet("a", 1500, 10000)
        resets = []
        plc = TripPlc(on_reset=lambda: resets.append(1))
        cab.sample([9000.0])
        plc.scan(cab.register_file)
        cab.sample([])
        cab.register_file.set_coil(TRIP_COIL, False)
        assert plc.scan(cab.register_file) is False
        assert resets == [1]

    def test_guard_maxcons_zero_never_trips(self):
        cab = SmartCabinet("a", 1500, 0)
        plc = TripPlc()
        cab.sample([60000.0])
        assert plc.scan(cab.register_file) is False

    def test_exact_max_does_not_trip(self):
        cab = SmartCabinet("a", 0, 10000)
        plc = TripPlc()
        cab.sample([10000.0])
        assert plc.scan(cab.register_file) is False
        cab.sample([10001.0])
        assert plc.scan(cab.register_file) is True


class TestStorageController:
    def test_charge_100s_closed_form(self):
        ctl = storage()
        ctl.apply_command("charge")
        ctl.advance(100.0)
        assert ctl.level_pct == pytest.approx(62.667, abs=1e-6)

    def test_discharge_100s_closed_form(self):
        ctl = storage()
        ctl.apply_command("discharge")
        ctl.advance(100.0)
        assert ctl.level_pct == pytest.approx(36.0, abs=1e-6)

    def test_inputs_are_mutually_exclusive(self):
        ctl = storage()
        for mode in ("charge", "discharge", "idle"):
            ctl.apply_command(mode)
            assert ctl.u[0] * ctl.u[1] == 0.0

    def test_clamps_at_full_and_forces_idle(self):
        ctl = storage()
        ctl.apply_command("charge")
        ctl.advance(1000.0)  # would exceed 100%
        assert ctl.level_pct == 100.0
        assert ctl.mode == "idle"

    def test_clamps_at_empty(self):
        ctl = storage()
        ctl.apply_command("discharge")
        ctl.advance(1000.0)
        assert ctl.level_pct == 0.0
        assert ctl.mode == "idle"

    def test_unknown_mode_rejected_without_state_change(self):
        ctl = storage()
        ctl.apply_command("charge")
        with pytest.raises(CommandError):
            ctl.apply_command("boost")
        assert ctl.mode == "charge"

    def test_telemetry_shape(self):
        assert storage().telemetry() == {"level": 50.0, "mode": "idle"}


class TestTurbineController:
    def test_nominal_rpm_matches_closed_form(self):
        ctl = turbine()
        assert ctl.nominal_rpm == pytest.approx(34741.5 / 0.3076)

    def test_start_reaches_rated_power(self):
        ctl = turbine()
        ctl.apply_command("start")
        ctl.advance(60.0)
        assert ctl.running
        assert ctl.power_kw() == pytest.approx(65.0, rel=0.01)

    def test_stop_decays_and_power_clamps_at_zero(self):
        ctl = turbine()
        ctl.apply_command("start")
        ctl.advance(60.0)
        ctl.apply_command("stop")
        ctl.advance(120.0)
        assert not ctl.running
        assert ctl.power_kw() >= 0.0
        assert ctl.power_kw() < 1.0

    def test_unknown_command_rejected(self):
        with pytest.raises(CommandError):
            turbine().apply_command("reverse")

    def test_telemetry_keys(self):
        assert set(turbine().telemetry()) == {"rpm", "power", "exhaust-temp"}


class TestSolarController:
    def make(self) -> SolarController:
        table = InterpolationTable([0.0, 43200.0, 86400.0],
                                   [0.0, 1000.0, 0.0], mode="linear-bracketing")
        return SolarController(table, "getSolarSurfaceInterpolant",
                               surface_m2=504.0, efficiency=0.16,
                               year_offset_s=0.0, year_len_s=86400.0)

    def test_peak_power_matches_rating(self):
        assert self.make().power_w(43200.0) == pytest.approx(80640.0)

    def test_zero_radiance_zero_power(self):
        assert self.make().power_w(0.0) == 0.0

    def test_year_wraparound(self):
        ctl = self.make()
        assert ctl.power_w(86400.0 + 43200.0) == pytest.approx(80640.0)

    def test_unknown_callback_rejected(self):
        table = InterpolationTable([0.0], [0.0])
        with pytest.raises(ValueError):
            SolarController(table, "nope", 1.0, 1.0)
