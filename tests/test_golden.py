"""Behaviour lock: the seed-42 runs must reproduce their digests.

Runs ``scenarios/spm.json`` unpaced for 12 simulated hours and compares the
artifacts with the committed ``spm@43200s`` digest of the benchmark (exact
row counts and categorical columns, floats within 1e-9 relative), and the
fabric's delivery count with the one recorded there. The same check pins
the benchmark's 60-building plant (``campus-x60@14400s``), built into the
test's own directory by the benchmark's generator: the one run of many
cabinets, each polled over Modbus.
"""

import os
import sys
from datetime import datetime

from spmtwin.runner import Runner
from spmtwin.scenario import load_scenario

TWINBENCH = os.path.join(os.path.dirname(__file__), "..", "twinbench")
sys.path.insert(0, os.path.abspath(TWINBENCH))
import campus  # noqa: E402
import digest  # noqa: E402

DURATION_S = 43200.0


def test_seed42_half_day_matches_digest(tmp_path, scenario_path):
    expected = digest.load()[digest.key("spm", DURATION_S)]
    scenario = load_scenario(scenario_path)
    assert scenario.seed == 42
    scenario.duration_s = DURATION_S
    runner = Runner(scenario, pace=False)
    runner.run(out_dir=str(tmp_path))
    assert digest.compare(expected["artifacts"], digest.compute(str(tmp_path))) == []
    assert runner.fabric.delivered_count == expected["delivered"] == 77055


def test_sixty_building_campus_matches_digest(tmp_path, scenario_path):
    duration_s = 14400.0
    expected = digest.load()[digest.key("campus-x60", duration_s)]
    scenario = load_scenario(campus.generate(scenario_path,
                                             str(tmp_path / "plant"), 60))
    assert scenario.seed == 42 and len(scenario.cabinets) == 60
    scenario.start_time = datetime.fromisoformat("2016-06-06T10:00:00")
    scenario.duration_s = duration_s
    runner = Runner(scenario, pace=False)
    out = tmp_path / "out"
    runner.run(out_dir=str(out))
    assert digest.compare(expected["artifacts"], digest.compute(str(out))) == []
    assert runner.fabric.delivered_count == expected["delivered"] == 103449
