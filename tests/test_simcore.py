import csv
import math
import os
import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmtwin import simcore
from spmtwin.simcore import (
    LINEAR,
    NEAREST,
    CALLBACKS,
    ConfigurationError,
    InterpolationTable,
    LinearStateSpace,
    SimClock,
    interpolate,
    load_radiance_csv,
    solar_surface,
    year_seconds,
)

STORAGE_A = [[0.0]]
STORAGE_B = [[0.12667, -0.14]]
TURBINE_A = [[-0.3076, 0.0], [0.0008, -0.2]]
TURBINE_B = [[4750.0, 29993.0, -0.1], [1.0, 45.0, 0.2]]


def euler_reference(A, B, x0, u, horizon, h=0.001):
    """Independent fixed-step explicit-Euler integrator used as an oracle."""
    A = np.array(A, float)
    B = np.array(B, float)
    x = np.array(x0, float)
    u = np.array(u, float)
    steps = int(round(horizon / h))
    for _ in range(steps):
        x = x + h * (A @ x + B @ u)
    return x


def rk4_reference(A, B, x0, u, dt, h):
    """The fixed-step RK4 sub-step loop that ``LinearStateSpace.step``
    composes into one propagator, kept as an independent oracle."""
    n, m = len(A), len(u)

    def deriv(x):
        return [sum(A[i][j] * x[j] for j in range(n))
                + sum(B[i][k] * u[k] for k in range(m)) for i in range(n)]

    x = [float(v) for v in x0]
    remaining = dt
    while remaining > 1e-12:
        s = min(h, remaining)
        k1 = deriv(x)
        k2 = deriv([x[i] + 0.5 * s * k1[i] for i in range(n)])
        k3 = deriv([x[i] + 0.5 * s * k2[i] for i in range(n)])
        k4 = deriv([x[i] + s * k3[i] for i in range(n)])
        x = [x[i] + s * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) / 6.0
             for i in range(n)]
        remaining -= s
    return x


def assert_matches_rk4(got, want):
    # relative, with a 1-unit floor for states crossing zero (rpm, deg C, %)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(abs(w), 1.0), (got, want)


# ── clock ────────────────────────────────────────────────────────────


class TestSimClock:
    def test_advance_to_is_monotonic(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now() == 5.0
        with pytest.raises(ValueError):
            clock.advance_to(4.9)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SimClock(scale=0.5)


# ── interpolation ────────────────────────────────────────────────────


class TestInterpolation:
    def test_linear_bracketing_midpoint(self):
        table = InterpolationTable([0.0, 10.0], [0.0, 100.0], mode=LINEAR)
        assert interpolate(table, 5.0) == pytest.approx(50.0)
        assert interpolate(table, 2.5) == pytest.approx(25.0)

    def test_nearest_record(self):
        table = InterpolationTable([0.0, 10.0], [1.0, 2.0], mode=NEAREST)
        assert interpolate(table, 4.0) == 1.0
        assert interpolate(table, 6.0) == 2.0
        # ties resolve to the earlier record
        assert interpolate(table, 5.0) == 1.0

    def test_out_of_range_clamps(self):
        table = InterpolationTable([0.0, 1.0], [3.0, 7.0], mode=LINEAR)
        assert interpolate(table, -100.0) == 3.0
        assert interpolate(table, 100.0) == 7.0

    def test_rejects_bad_tables(self):
        with pytest.raises(ConfigurationError):
            InterpolationTable([], [])
        with pytest.raises(ConfigurationError):
            InterpolationTable([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            InterpolationTable([0.0], [1.0], mode="cubic")

    @given(
        ys=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2,
                    max_size=20),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_linear_stays_within_bracket(self, ys, frac):
        table = InterpolationTable([float(i) for i in range(len(ys))], ys,
                                   mode=LINEAR)
        i = min(len(ys) - 2, int(frac * (len(ys) - 1)))
        x = i + (frac * (len(ys) - 1) - i)
        x = min(max(x, float(i)), float(i + 1))
        y = interpolate(table, x)
        lo, hi = sorted((ys[i], ys[i + 1]))
        assert lo - 1e-9 <= y <= hi + 1e-9

    @given(ys=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                       max_size=20))
    @settings(max_examples=200)
    def test_both_modes_exact_at_nodes(self, ys):
        xs = [float(i) for i in range(len(ys))]
        for mode in (LINEAR, NEAREST):
            table = InterpolationTable(xs, ys, mode=mode)
            for x, y in zip(xs, ys):
                assert interpolate(table, x) == y


# ── linear state-space ───────────────────────────────────────────────


class TestLinearStateSpace:
    def test_zero_a_is_exact_integration(self):
        sys = LinearStateSpace(A=STORAGE_A, B=STORAGE_B, x=[50.0])
        sys.step((1.0, 0.0), 100.0)
        assert sys.x[0] == pytest.approx(50.0 + 0.12667 * 100.0, abs=1e-9)

    def test_zero_a_discharge_exact(self):
        sys = LinearStateSpace(A=STORAGE_A, B=STORAGE_B, x=[50.0])
        sys.step((0.0, 1.0), 100.0)
        assert sys.x[0] == pytest.approx(36.0, abs=1e-9)

    def test_rk4_matches_fine_euler_oracle(self):
        u = (1.0, 1.0, 15.0)
        sys = LinearStateSpace(A=TURBINE_A, B=TURBINE_B, x=[0.0, 15.0], dt=1.0)
        sys.step(u, 30.0)
        oracle = euler_reference(TURBINE_A, TURBINE_B, [0.0, 15.0], u, 30.0)
        for got, want in zip(sys.x, oracle):
            assert abs(got - want) <= 0.001 * abs(want)

    def test_steady_state_matches_independent_solve(self):
        sys = LinearStateSpace(A=TURBINE_A, B=TURBINE_B, x=[0.0, 15.0])
        u = (1.0, 1.0, 15.0)
        got = sys.steady_state(u)
        want = np.linalg.solve(np.array(TURBINE_A),
                               -np.array(TURBINE_B) @ np.array(u))
        assert got == pytest.approx(list(want))
        # closed form of the first state: (4750 + 29993 - 0.1*15) / 0.3076
        assert got[0] == pytest.approx(34741.5 / 0.3076)

    def test_settles_within_one_percent_in_30s(self):
        sys = LinearStateSpace(A=TURBINE_A, B=TURBINE_B, x=[0.0, 15.0], dt=1.0)
        u = (1.0, 1.0, 15.0)
        target = sys.steady_state(u)
        sys.step(u, 30.0)
        for got, want in zip(sys.x, target):
            assert abs(got - want) <= 0.01 * abs(want)

    def test_singular_a_has_no_steady_state(self):
        sys = LinearStateSpace(A=STORAGE_A, B=STORAGE_B, x=[50.0])
        with pytest.raises(ConfigurationError):
            sys.steady_state((1.0, 0.0))

    def test_dimension_validation(self):
        with pytest.raises(ConfigurationError):
            LinearStateSpace(A=[[1.0, 0.0]], B=[[1.0]], x=[0.0])
        with pytest.raises(ConfigurationError):
            LinearStateSpace(A=[[1.0]], B=[[1.0], [2.0]], x=[0.0])
        with pytest.raises(ConfigurationError):
            LinearStateSpace(A=[[1.0]], B=[[1.0]], x=[0.0, 1.0])
        sys = LinearStateSpace(A=[[1.0]], B=[[1.0]], x=[0.0])
        with pytest.raises(ConfigurationError):
            sys.step((1.0, 2.0), 1.0)

    @pytest.mark.parametrize("A, B, inputs", [
        (TURBINE_A, TURBINE_B, [(0.0, 0.0, 15.0), (1.0, 1.0, 15.0),
                                (1.0, 1.0, 32.0)]),
        (STORAGE_A, STORAGE_B, [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]),
    ], ids=["turbine", "storage"])
    def test_closed_form_matches_rk4_loop_under_switching(self, A, B, inputs):
        rng = random.Random(7)
        sys = LinearStateSpace(A=A, B=B, x=[50.0] * len(A), dt=1.0)
        want = list(sys.x)
        for _ in range(1000):
            u = rng.choice(inputs)
            got = sys.step(u, 10.0)
            want = rk4_reference(A, B, want, u, 10.0, 1.0)
            assert_matches_rk4(got, want)

    @pytest.mark.parametrize("sub, dt", [(1.0, 7.3), (0.3, 5.0), (1.0, 0.4),
                                         (0.1, 0.3)],
                             ids=["7.3-by-1", "5-by-0.3", "below-sub-step",
                                  "0.3-by-0.1"])
    def test_closed_form_matches_rk4_loop_for_any_horizon(self, sub, dt):
        sys = LinearStateSpace(A=TURBINE_A, B=TURBINE_B, x=[0.0, 15.0], dt=sub)
        want = list(sys.x)
        for u in [(1.0, 1.0, 15.0)] * 20 + [(0.0, 0.0, 15.0)] * 20:
            sys.step(u, dt)
            want = rk4_reference(TURBINE_A, TURBINE_B, want, u, dt, sub)
            assert_matches_rk4(sys.x, want)

    def test_written_state_is_the_next_start(self):
        # StorageController clamps the level by writing x[0] between steps
        sys = LinearStateSpace(A=STORAGE_A, B=STORAGE_B, x=[95.0])
        sys.step((1.0, 0.0), 100.0)
        sys.x[0] = 100.0
        sys.step((0.0, 1.0), 10.0)
        assert_matches_rk4(
            sys.x, rk4_reference(STORAGE_A, STORAGE_B, [100.0], (0.0, 1.0),
                                 10.0, 1.0))

    def test_propagator_cached_per_horizon_and_bounded(self):
        sys = LinearStateSpace(A=TURBINE_A, B=TURBINE_B, x=[0.0, 15.0])
        sys.step((1.0, 1.0, 15.0), 10.0)
        first = sys._propagator(10.0)
        sys.step((0.0, 0.0, 15.0), 10.0)
        assert sys._propagator(10.0) is first
        assert list(sys._propagators) == [10.0]
        for dt in range(1, 20):
            sys.step((1.0, 1.0, 15.0), float(dt))
        assert 0 < len(sys._propagators) <= 4

    def test_step_returns_a_copy_of_python_floats(self):
        sys = LinearStateSpace(A=TURBINE_A, B=TURBINE_B, x=[0, 15])
        out = sys.step((1, 1, 15), 10.0)
        assert out == sys.x and out is not sys.x
        out[0] = -1.0
        assert sys.x[0] != -1.0
        assert all(type(v) is float for v in sys.x)

    def test_sums_fold_left_to_right_on_every_python(self):
        # naively 1e16 + 1.0 rounds back to 1e16, so the fold reads 0.0;
        # the compensated sum() of Python 3.12+ would read 1.0
        assert simcore._dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]) == 0.0
        sys = LinearStateSpace(A=[[-1.0]], B=[[1.0, 1.0]], x=[1.0])
        sys._propagators[10.0] = [[1e16, 1.0, -1e16]]   # over [x, u0, u1]
        assert sys.step((1.0, 1.0), 10.0) == [0.0]

    @given(
        a=st.floats(min_value=-2.0, max_value=-0.01),
        b=st.floats(min_value=-10.0, max_value=10.0),
        x0=st.floats(min_value=-100.0, max_value=100.0),
        u=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scalar_rk4_tracks_closed_form(self, a, b, x0, u):
        # x(t) = (x0 + bu/a) e^{at} - bu/a for the 1-D system
        sys = LinearStateSpace(A=[[a]], B=[[b]], x=[x0], dt=0.1)
        sys.step((u,), 5.0)
        want = (x0 + b * u / a) * math.exp(a * 5.0) - b * u / a
        assert sys.x[0] == pytest.approx(want, abs=1e-6 + 1e-4 * abs(want))


def bits(xs):
    return [float.hex(v) for v in xs]


def step_as_fresh(sys, script):
    """Step ``sys`` through ``script``, ``(u, dt, write)`` each, where
    ``write`` is ``(i, v)`` to set ``x[i] = v`` in place before the step, or
    None. Each step must return, and leave in ``x``, the bits a system built
    at the state before it returns, with no history. Returns the horizons of
    the steps that were computed, not skipped at rest."""
    computed = []
    propagator = sys._propagator

    def counted(dt):
        computed.append(dt)
        return propagator(dt)

    sys._propagator = counted
    for u, dt, write in script:
        if write is not None:
            sys.x[write[0]] = write[1]
        fresh = LinearStateSpace(A=sys.A, B=sys.B, x=list(sys.x), dt=sys.dt)
        want = fresh.step(u, dt)
        got = sys.step(u, dt)
        assert bits(got) == bits(want) == bits(sys.x), (u, dt, write)
        assert got is not sys.x
    return computed


IDLE, CHARGE = (0.0, 0.0), (1.0, 0.0)


class TestRest:
    """A step from a state at rest returns the kept copy; each is compared
    bit for bit with a system that has no history."""

    def test_an_idle_storage_is_stepped_once(self):
        sys = LinearStateSpace(A=STORAGE_A, B=STORAGE_B, x=[50.0])
        assert step_as_fresh(sys, [(IDLE, 10.0, None)] * 5) == [10.0]

    def test_a_write_in_place_between_steps_is_stepped(self):
        # the storage clamp writes x[0] after a step that overshot
        sys = LinearStateSpace(A=STORAGE_A, B=STORAGE_B, x=[99.0])
        script = [(IDLE, 10.0, None), (IDLE, 10.0, None),
                  (IDLE, 10.0, (0, 100.0)), (IDLE, 10.0, None),
                  (IDLE, 10.0, (0, 100.0)),     # the value it holds
                  (CHARGE, 10.0, None), (IDLE, 10.0, (0, 100.0)),
                  (IDLE, 10.0, None)]
        assert len(step_as_fresh(sys, script)) == 4

    def test_a_change_of_input_is_stepped(self):
        sys = LinearStateSpace(A=STORAGE_A, B=STORAGE_B, x=[50.0])
        script = [(IDLE, 10.0, None), (IDLE, 10.0, None),
                  ((0.0, 1.0), 10.0, None), (IDLE, 10.0, None),
                  ([0.0, 0.0], 10.0, None)]      # a list equal to IDLE
        assert len(step_as_fresh(sys, script)) == 3

    def test_a_change_of_horizon_is_stepped(self):
        sys = LinearStateSpace(A=STORAGE_A, B=STORAGE_B, x=[50.0])
        script = [(IDLE, 10.0, None), (IDLE, 10.0, None), (IDLE, 5.0, None),
                  (IDLE, 5.0, None), (IDLE, 10.0, None)]
        assert step_as_fresh(sys, script) == [10.0, 5.0, 10.0]

    def test_a_negative_zero_steps_to_positive_zero(self):
        # the fold yields +0.0, so -0.0 in x0, or written in place, is at
        # rest with the +0.0 kept, and the kept copy is what is returned
        sys = LinearStateSpace(A=[[0.0, 0.0], [0.0, -0.5]],
                               B=[[1.0], [1.0]], x=[-0.0, 0.0])
        script = [((0.0,), 10.0, None), ((-0.0,), 10.0, None),
                  ((0.0,), 10.0, (1, -0.0)), ((0.0,), 10.0, (0, -0.0))]
        assert step_as_fresh(sys, script) == [10.0]
        assert bits(sys.x) == bits([0.0, 0.0])

    @pytest.mark.parametrize("x0, write", [
        ([math.nan], None), ([50.0], (0, math.nan))], ids=["x0", "written"])
    def test_a_nan_state_is_always_stepped(self, x0, write):
        sys = LinearStateSpace(A=STORAGE_A, B=STORAGE_B, x=x0)
        script = [(IDLE, 10.0, write)] + [(IDLE, 10.0, None)] * 4
        assert len(step_as_fresh(sys, script)) == 5
        assert math.isnan(sys.x[0])

    def test_the_turbine_at_rest(self):
        # stopped, the rpm decays to an exact fixed point; started, it
        # settles to another; an rpm written at rest moves it again
        stop, start = (0.0, 0.0, 15.0), (1.0, 1.0, 15.0)
        sys = LinearStateSpace(A=TURBINE_A, B=TURBINE_B, x=[0.0, 15.0])
        script = ([(stop, 10.0, None)] * 40 + [(start, 10.0, None)] * 80
                  + [(start, 10.0, (0, 1000.0))] + [(start, 10.0, None)] * 80)
        assert len(step_as_fresh(sys, script)) < 200
        assert sys._rest is not None        # at rest again

    @pytest.mark.parametrize("seed", range(12))
    def test_random_systems_match_a_fresh_system(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        # half of them integrators, as the storage is; the rest stable
        integrator = seed % 2 == 0
        A = [[0.0 if integrator else
              (rng.uniform(-2.0, -0.5) if i == j else rng.uniform(-0.1, 0.1))
              for j in range(n)] for i in range(n)]
        B = [[rng.choice([0.0, rng.uniform(-1.0, 1.0)]) for _ in range(m)]
             for _ in range(n)]
        x0 = [rng.choice([0.0, -0.0, rng.uniform(-50.0, 50.0)])
              for _ in range(n)]
        inputs = [(0.0,) * m] + [
            tuple(rng.choice([0.0, -0.0, rng.uniform(-1.0, 1.0)])
                  for _ in range(m)) for _ in range(2)]
        script = []
        while len(script) < 400:
            u, dt = rng.choice(inputs), rng.choice([2.0, 5.0])
            for _ in range(rng.randint(1, 60)):
                write = None
                if rng.random() < 0.05:
                    write = (rng.randrange(n),
                             rng.choice([0.0, -0.0, rng.uniform(-50, 50)]))
                script.append((u, dt, write))
        sys = LinearStateSpace(A=A, B=B, x=x0, dt=rng.choice([0.5, 1.0]))
        computed = step_as_fresh(sys, script)
        # an integrator under the zero input is at rest from its next step;
        # a stable system may not reach an exact fixed point in 400 steps
        if integrator:
            assert len(computed) < len(script)


# ── callbacks ────────────────────────────────────────────────────────


class TestCallbacks:
    def test_solar_surface_peak(self):
        assert solar_surface(1000.0, 504.0, 0.16) == pytest.approx(80640.0)

    def test_builtin_registry_names(self):
        assert CALLBACKS == {"solar-surface": solar_surface,
                             "getSolarSurfaceInterpolant": solar_surface}
        assert CALLBACKS["getSolarSurfaceInterpolant"](
            1000.0, 504.0, 0.16) == pytest.approx(80640.0)

    def test_unknown_name(self):
        assert "missing" not in CALLBACKS


# ── radiance ingestion ───────────────────────────────────────────────

# (row on line 8, a word of the message naming its fault)
BAD_ROWS = [
    ('"2016-01-01T04:00:00",4.0', "unquoted"),
    ('2016-01-01T04:00:00,"4,5"', "unquoted"),
    ("2016-01-01T04:00:00,4.0,5.0", "timestamp,watt_per_msq"),
    ("2016-01-01T04:00:00", "timestamp,watt_per_msq"),
    # the two rows have two commas, so only a row-by-row count finds it
    ("2016-01-01T04:00:00,4.0,2016-01-01T05:00:00\n5.0",
     "timestamp,watt_per_msq"),
    ("2016-01-01T04:00:00,", "float"),
    ("2016-01-01T04:00:00,4.0W", "float"),
    ("2016-01-01 04h00,4.0", "isoformat"),
    ("2016-01-01T04:00:00+01:00,4.0", "naive"),
    ("2016-01-01T02:30:00,4.0", "not after the row before"),
    ("2016-01-01T03:00:00,4.0", "not after the row before"),
    ("2016-01-01T04:00:00,4.0\u00b5", "ASCII"),
]

OFFSETS = [timezone.utc, timezone(timedelta(hours=1)),
           timezone(timedelta(hours=-5)), timezone(timedelta(hours=5,
                                                             minutes=30))]


def csv_reader_points(path: str) -> list[tuple[float, float]]:
    """The loader as a ``csv.reader`` row loop, the oracle of the columns:
    its rows of (seconds since the start of the year, watt per m^2)."""
    points: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["timestamp", "watt_per_msq"]:
            raise ConfigurationError(
                f"{path}: expected header 'timestamp,watt_per_msq'"
            )
        year_start = None
        for row in reader:
            if not row:
                continue
            ts = datetime.fromisoformat(row[0])
            if year_start is None:
                year_start = datetime(ts.year, 1, 1, tzinfo=ts.tzinfo)
            points.append(((ts - year_start).total_seconds(), float(row[1])))
    return points


def assert_same_columns(table: InterpolationTable,
                        points: list[tuple[float, float]]) -> None:
    """Bit-equal columns: ``float.hex`` tells -0.0 from 0.0 and reads a nan
    as equal to itself."""
    assert [x.hex() for x in table.xs] == [x.hex() for x, _ in points]
    assert [y.hex() for y in table.ys] == [y.hex() for _, y in points]



class TestRadianceCsv:
    def test_load_and_query(self, tmp_path):
        path = tmp_path / "rad.csv"
        path.write_text(
            "timestamp,watt_per_msq\n"
            "2016-01-01T00:00:00,0.0\n"
            "2016-01-01T12:00:00,800.0\n"
        )
        table = load_radiance_csv(str(path))
        assert interpolate(table, 0.0) == 0.0
        assert interpolate(table, 12 * 3600.0) == 800.0

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "rad.csv"
        path.write_text("time,value\n2016-01-01T00:00:00,0\n")
        with pytest.raises(ConfigurationError):
            load_radiance_csv(str(path))

    def test_keeps_two_columns_and_no_pairs(self, scenario_dir):
        table = load_radiance_csv(os.path.join(scenario_dir,
                                               "radiance_2016.csv"))
        assert set(vars(table)) == {"xs", "ys", "mode"}
        assert len(table.xs) == len(table.ys) == 8784

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("row, fault", BAD_ROWS, ids=[
        "quoted", "quoted-comma", "three-fields", "one-field",
        "split-across-two", "empty-value", "bad-value", "bad-timestamp",
        "aware-after-naive", "earlier", "repeated", "not-ascii"])
    def test_a_bad_row_is_named_by_line(self, tmp_path, eol, row, fault):
        # the header, four rows, two blank lines, then the bad row on line 8
        lines = ["timestamp,watt_per_msq", "2016-01-01T00:00:00,0.0",
                 "2016-01-01T01:00:00,1.0", "", "2016-01-01T02:00:00,2.0",
                 "", "2016-01-01T03:00:00,3.0", row,
                 "2016-01-01T09:00:00,9.0"]
        path = tmp_path / "rad.csv"
        path.write_bytes(eol.join(lines).encode() + eol.encode())
        with pytest.raises(ConfigurationError) as info:
            load_radiance_csv(str(path))
        message = str(info.value)
        assert message.startswith(f"{path}:8: ") and fault in message
        assert "\n" not in message

    @pytest.mark.parametrize("tail", [b"\xff", b"\xff\n"],
                             ids=["unterminated", "terminated"])
    def test_a_byte_that_is_not_utf8_is_a_fault_of_its_line(self, tmp_path,
                                                            tail):
        path = tmp_path / "rad.csv"
        path.write_bytes(b"timestamp,watt_per_msq\n2016-01-01T00:00:00,0.0\n"
                         b"2016-01-01T01:00:00,1.0\xff\n"
                         b"2016-01-01T02:00:00,2.0\n" + tail)
        with pytest.raises(ConfigurationError) as info:
            load_radiance_csv(str(path))
        assert str(info.value) == (
            f"{path}:3: '2016-01-01T01:00:00,1.0\ufffd' is not one unquoted "
            "ASCII row timestamp,watt_per_msq")

    def test_aware_then_naive_is_named_too(self, tmp_path):
        path = tmp_path / "rad.csv"
        path.write_text("timestamp,watt_per_msq\n"
                        "2016-01-01T00:00:00+01:00,0.0\n"
                        "2016-01-01T01:00:00,1.0\n")
        with pytest.raises(ConfigurationError, match=r"rad\.csv:3: .*naive"):
            load_radiance_csv(str(path))

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n"])
    def test_a_table_without_rows_is_refused(self, tmp_path, body):
        path = tmp_path / "rad.csv"
        path.write_bytes(b"timestamp,watt_per_msq\n" + body.encode())
        with pytest.raises(ConfigurationError, match=r"rad\.csv: no rows"):
            load_radiance_csv(str(path))

    def test_an_unknown_mode_is_refused_by_the_table(self, tmp_path):
        path = tmp_path / "rad.csv"
        path.write_text("timestamp,watt_per_msq\n2016-01-01T00:00:00,0.0\n")
        with pytest.raises(ConfigurationError,
                           match=r"rad\.csv: unknown interpolation mode"):
            load_radiance_csv(str(path), mode="cubic")

    def test_the_committed_year_equals_the_csv_reader_loop(self,
                                                           scenario_dir):
        path = os.path.join(scenario_dir, "radiance_2016.csv")
        assert_same_columns(load_radiance_csv(path),
                            csv_reader_points(path))

    @given(data=st.data(), rows=st.integers(1, 30),
           aware=st.booleans(), eol=st.sampled_from(["\n", "\r\n"]),
           sep=st.sampled_from(["T", " "]))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_csv_reader_loop(self, tmp_path_factory, data, rows,
                                        aware, eol, sep):
        # strictly increasing instants, at microsecond resolution
        start = data.draw(st.datetimes(datetime(1990, 1, 1),
                                       datetime(2040, 1, 1)), "start")
        steps = data.draw(st.lists(st.integers(1, 10 ** 11), min_size=rows,
                                   max_size=rows), "steps")
        zones = data.draw(st.lists(st.sampled_from(OFFSETS), min_size=rows,
                                   max_size=rows), "zones")
        values = data.draw(st.lists(st.floats(), min_size=rows,
                                    max_size=rows), "values")
        blanks = data.draw(st.sets(st.integers(0, rows)), "blanks")
        lines = ["timestamp,watt_per_msq"]
        instant = start.replace(tzinfo=timezone.utc)
        for i, (step, zone, value) in enumerate(zip(steps, zones, values)):
            if i in blanks:
                lines.append("")
            instant += timedelta(microseconds=step)
            ts = instant.astimezone(zone) if aware else instant.replace(
                tzinfo=None)
            lines.append(f"{ts.isoformat(sep)},{value!r}")
        if rows in blanks:
            lines.append("")
        path = tmp_path_factory.mktemp("rad") / "rad.csv"
        path.write_bytes(eol.join(lines).encode() + eol.encode())
        assert_same_columns(load_radiance_csv(str(path)),
                            csv_reader_points(str(path)))

    def test_year_seconds(self):
        assert year_seconds(2016) == 366 * 86400.0
        assert year_seconds(2015) == 365 * 86400.0
        assert year_seconds(2000) == 366 * 86400.0
        assert year_seconds(1900) == 365 * 86400.0
