"""Behaviour lock: the seed-42 reference run must reproduce its digest.

Runs ``scenarios/spm.json`` unpaced for 12 simulated hours and compares the
artifacts with the committed ``spm@43200s`` digest of the benchmark (exact
row counts and categorical columns, floats within 1e-9 relative), and the
fabric's delivery count with the one recorded there.
"""

import os
import sys

from spmtwin.runner import Runner
from spmtwin.scenario import load_scenario

TWINBENCH = os.path.join(os.path.dirname(__file__), "..", "twinbench")
sys.path.insert(0, os.path.abspath(TWINBENCH))
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
