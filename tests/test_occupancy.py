import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmtwin.occupancy import (
    ClientPopulation,
    TurnoutModel,
    building_load,
    cluster_count,
    load_schedule_csv,
    turnout_at,
)
from spmtwin.rng import Generator
from spmtwin.simcore import ConfigurationError

SCHEDULE = [(0.0, 0.0), (8.0, 400.0), (12.0, 1200.0), (18.0, 0.0)]


def model(**kwargs) -> TurnoutModel:
    defaults = dict(cluster_size=10, base_load_kw=1.5, mu_w=25.0, sigma_w=5.0,
                    schedule=SCHEDULE)
    defaults.update(kwargs)
    return TurnoutModel(**defaults)


class TestTurnout:
    def test_anchor_values_exact(self):
        m = model()
        assert turnout_at(m, 8.0) == 400.0
        assert turnout_at(m, 12.0) == 1200.0

    def test_linear_between_anchors(self):
        m = model()
        assert turnout_at(m, 10.0) == pytest.approx(800.0)

    def test_weekly_wraparound(self):
        m = model()
        assert turnout_at(m, 8.0 + 168.0) == 400.0
        assert turnout_at(m, 8.0 - 168.0) == 400.0

    def test_interpolates_across_week_boundary(self):
        m = TurnoutModel(schedule=[(1.0, 100.0), (167.0, 300.0)])
        # hour 0 sits between anchor 167 (as -1) and anchor 1
        assert turnout_at(m, 0.0) == pytest.approx(200.0)

    def test_cluster_count_ceiling(self):
        m = model()
        assert cluster_count(m, 0) == 0
        assert cluster_count(m, 1) == 1
        assert cluster_count(m, 10) == 1
        assert cluster_count(m, 11) == 2
        assert cluster_count(m, 100) == 10


class TestBuildingLoad:
    def test_sigma_zero_formula_exact(self):
        # T=100: 10 clusters x 10 persons x 25 W = 2.5 kW variable + 1.5 base
        m = model(sigma_w=0.0)
        rng = Generator(0)
        assert building_load(m, 100, rng) == pytest.approx(4.0, abs=1e-12)

    def test_monte_carlo_mean_within_one_percent(self):
        m = model()
        rng = Generator(7)
        # truncation at 0 is negligible at mu=5 sigma, so the analytic mean
        # is base + clusters * C * mu
        draws = [building_load(m, 100, rng) for _ in range(10000)]
        analytic = 1.5 + 10 * 10 * 25.0 / 1000.0
        assert np.mean(draws) == pytest.approx(analytic, rel=0.01)

    def test_negative_draws_truncate_to_zero(self):
        m = model(mu_w=0.0, sigma_w=5.0)
        rng = Generator(1)
        loads = [building_load(m, 10, rng) - m.base_load_kw for _ in range(1000)]
        assert all(v >= 0.0 for v in loads)

    def test_seeded_reproducibility(self):
        m = model()
        a = [building_load(m, 50, Generator(42)) for _ in range(1)]
        b = [building_load(m, 50, Generator(42)) for _ in range(1)]
        assert a == b

    @given(persons=st.floats(min_value=0, max_value=5000))
    @settings(max_examples=200)
    def test_load_at_least_base(self, persons):
        m = model()
        rng = Generator(3)
        assert building_load(m, persons, rng) >= m.base_load_kw


class TestClientPopulation:
    def make(self, seed=42) -> ClientPopulation:
        return ClientPopulation(model(), ["a", "b", "c"],
                                Generator(seed))

    def test_sync_spawns_ceil_t_over_c(self):
        pop = self.make()
        diff = pop.sync(25)
        assert len(diff.spawned) == 3
        assert pop.active_count() == 3

    def test_round_robin_building_assignment(self):
        pop = self.make()
        diff = pop.sync(60)
        assert [c.cabinet for c in diff.spawned] == ["a", "b", "c"] * 2

    def test_retire_is_lifo(self):
        pop = self.make()
        spawned = pop.sync(50).spawned
        retired = pop.sync(20).retired
        assert [c.id for c in retired] == [c.id for c in reversed(spawned[2:])]

    def test_building_loads_follow_spawn_and_retire(self):
        pop = self.make()
        for persons in (50, 20, 90, 0, 70, 30, 110):
            pop.sync(persons)
            for building in ("a", "b", "c"):
                assert pop.building_loads_w(building) == [
                    c.load_w for c in pop.clients if c.cabinet == building]
        assert pop.building_loads_w("a")

    def test_seeded_ids_and_loads_reproduce(self):
        a, b = self.make(7), self.make(7)
        da, db = a.sync(100), b.sync(100)
        assert [(c.id, c.load_w) for c in da.spawned] == \
               [(c.id, c.load_w) for c in db.spawned]

    def test_tripped_building_contributes_no_load(self):
        pop = self.make()
        pop.sync(90)
        assert pop.building_loads_w("a")
        pop.set_building_tripped("a", True)
        assert pop.building_loads_w("a") == []
        assert pop.building_loads_w("b")
        pop.set_building_tripped("a", False)
        assert pop.building_loads_w("a")

    def test_sync_to_zero_retires_everyone(self):
        pop = self.make()
        pop.sync(100)
        diff = pop.sync(0)
        assert len(diff.retired) == 10
        assert pop.active_count() == 0


class TestScheduleCsv:
    def test_load_schedule(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("day_of_week,hour,persons\n0,8,400\n1,9,500\n")
        assert load_schedule_csv(str(path)) == [(8.0, 400.0), (33.0, 500.0)]

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("day,hour,count\n0,8,400\n")
        with pytest.raises(ValueError):
            load_schedule_csv(str(path))

    def test_rejects_bad_day(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("day_of_week,hour,persons\n7,0,1\n")
        with pytest.raises(ValueError):
            load_schedule_csv(str(path))

    @pytest.mark.parametrize("body, line, fault", [
        ("day,hour,count\n0,8,400\n", 1, "expected header"),
        ("day_of_week,hour,persons\n0,8,400\n7,0,1\n", 3,
         "'7,0,1': day_of_week must be 0..6, got 7"),
        ("day_of_week,hour,persons\n\n0,x,1\n", 3, "'0,x,1': could not convert"),
        ("day_of_week,hour,persons\n0;8;400.0\n", 2,
         "'0;8;400.0': not three fields"),
        ("day_of_week,hour,persons\n0,8,400,1\n", 2,
         "'0,8,400,1': not three fields"),
        ("day_of_week,hour,persons\n1.5,8,400\n", 2, "'1.5,8,400': invalid literal"),
    ])
    def test_a_fault_names_its_file_and_line(self, tmp_path, body, line, fault):
        path = tmp_path / "sched.csv"
        path.write_text(body)
        with pytest.raises(ConfigurationError) as exc:
            load_schedule_csv(str(path))
        assert str(exc.value).startswith(f"{path}:{line}: {fault}")

    def test_a_byte_that_is_not_utf8_is_a_fault_of_its_line(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_bytes(b"day_of_week,hour,persons\r\n0,8,400\r\n0,9,\xff\r\n")
        with pytest.raises(ConfigurationError) as exc:
            load_schedule_csv(str(path))
        assert str(exc.value).startswith(f"{path}:3: '0,9,\ufffd': could not")

    @pytest.mark.parametrize("body, line", [
        # csv.reader refuses a NUL byte before Python 3.11; after, its field
        # does not convert
        ("day_of_week,hour,persons\n0,8,400\n0,9,4\x0000\n", 3),
        # a field past csv.field_size_limit() is refused on every version
        ("day_of_week,hour,persons\n0,8,\"" + "4" * (csv.field_size_limit() + 1)
         + "\"\n", 2),
    ], ids=["nul-byte", "oversized-field"])
    def test_a_row_csv_cannot_read_is_a_fault_of_its_line(self, tmp_path, body, line):
        path = tmp_path / "sched.csv"
        path.write_text(body)
        with pytest.raises(ConfigurationError) as exc:
            load_schedule_csv(str(path))
        assert str(exc.value).startswith(f"{path}:{line}: ")
