"""The committed scenario data is exactly what ``refdata`` generates."""

import os

from spmtwin.refdata import synthesize_radiance_csv, write_default_schedule_csv


def test_radiance_table_regenerates_byte_for_byte(tmp_path, scenario_dir):
    out = tmp_path / "radiance_2016.csv"
    assert synthesize_radiance_csv(str(out)) == 8784  # 2016 is a leap year
    with open(os.path.join(scenario_dir, "radiance_2016.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_schedule_regenerates_byte_for_byte(tmp_path, scenario_dir):
    out = tmp_path / "schedule.csv"
    assert write_default_schedule_csv(str(out)) == 47
    with open(os.path.join(scenario_dir, "schedule.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()
