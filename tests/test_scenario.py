import contextlib
import json
import re
import signal

import pytest

from spmtwin.cli import EXIT_INVALID, main
from spmtwin.scenario import (
    ScenarioError,
    SystemThingSpec,
    load_scenario,
    validate_scenario,
)


SYSTEM = {"name": "FDT:sys", "type": "systemSimulator", "feature": "f",
          "system": {"A": [[0.0, 0.0], [0.0, -1.0]], "B": [[1.0], [1.0]]},
          "x0": [0.0, 0.0]}


CABINET = {"building": "a", "node": "ems", "base_load_w": 1,
           "max_consumption_w": 2}


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the block with TimeoutError instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def minimal(tmp_path, mutate=None) -> str:
    raw = {
        "name": "mini",
        "network": {
            "policy": [],
            "nodes": [
                {"id": "broker", "segment": "control"},
                {"id": "scada", "segment": "control"},
                {"id": "ems", "segment": "control"},
            ],
        },
        "things": [],
        "devices": {},
    }
    if mutate:
        mutate(raw)
    (tmp_path / "schedule.csv").write_text("day_of_week,hour,persons\n")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestLoading:
    def test_shipped_scenario_loads(self, scenario_path):
        scenario = load_scenario(scenario_path)
        assert scenario.name == "savona-campus-microgrid"
        assert scenario.seed == 42
        assert scenario.duration_s == 604800
        assert scenario.clock_scale == 1000
        assert len(scenario.cabinets) == 6
        assert {t.name for t in scenario.things} == {
            "FDT:sun-simulator", "FDT:solar-panel-1",
            "FDT:energy-store-1", "FDT:gas-turbine-1"}

    def test_defaults_applied(self, tmp_path):
        scenario = load_scenario(minimal(tmp_path))
        assert scenario.start_time.isoformat() == "2016-06-06T00:00:00"
        assert scenario.duration_s == 604800

    def test_legacy_setpoint_kw_accepted(self, tmp_path):
        scenario = load_scenario(minimal(
            tmp_path, lambda r: r.update(ems={"setpoint_kw": 5.0})))
        assert scenario.ems.timer_period_s == 60.0

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario("/nonexistent/sc.json")

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",\n  "oops"\n}')
        with pytest.raises(ScenarioError, match=r"bad\.json:\d+:\d+"):
            load_scenario(str(path))

    def test_policy_file_resolved_relative_to_scenario(self, tmp_path):
        (tmp_path / "pol.json").write_text(json.dumps(
            [{"src": "control", "dst": "field", "verdict": "allow"}]))

        def mutate(raw):
            raw["network"].pop("policy")
            raw["network"]["policy_file"] = "pol.json"

        scenario = load_scenario(minimal(tmp_path, mutate))
        assert len(scenario.policy) == 1

    def test_missing_policy_file(self, tmp_path):
        def mutate(raw):
            raw["network"].pop("policy")
            raw["network"]["policy_file"] = "ghost.json"

        with pytest.raises(ScenarioError, match="policy file not found"):
            load_scenario(minimal(tmp_path, mutate))


class TestValidation:
    def test_bad_transport(self, tmp_path):
        with pytest.raises(ScenarioError, match="transport"):
            load_scenario(minimal(
                tmp_path, lambda r: r.update(transport="carrier-pigeon")))

    @pytest.mark.parametrize("section, key", [
        ({"ems": {"setpoint": 5}}, "setpoint"),
        ({"turnout": {"clusters": 4}}, "clusters"),
        ({"ems": 5}, "ems"),
        ({"transport": "tcp"}, "transport"),
        ({"ems": {"charge_ceiling": "90"}}, "charge_ceiling"),
        ({"turnout": {"cluster_size": "10"}}, "cluster_size"),
        ({"historian": {"poll_period": 5}}, "poll_period"),
        ({"durationS": 60}, "durationS"),
        ({"clock": {"scale": 1000, "speed": 2}}, "speed"),
        ({"broker": {"port": 8080}}, "port"),
        ({"ems": {"timer_period_s": 0}}, "timer_period_s"),
        ({"ems": {"charge_ceiling": 150}}, "charge_ceiling"),
        ({"things": [{"name": "FDT:sun", "type": "interpolation",
                      "feature": "sky", "property": "radiance",
                      "mode": "cubic", "source_csv": "r.csv"}]}, "mode"),
        ({"turnout": {"period_s": -60}}, "period_s"),
        ({"turnout": {"cluster_size": 0}}, "cluster_size"),
        ({"clock": {"scale": 0.5}}, "scale"),
        ({"historian": {"poll_period_s": 0}}, "poll_period_s"),
        ({"devices": {"cabinets": [dict(CABINET, plc_scan_period_s=0)]}},
         "plc_scan_period_s"),
        ({"devices": {"cabinets": [dict(CABINET, sample_period_s=0)]}},
         "sample_period_s"),
        ({"things": [SYSTEM], "devices": {"controllers": [
            {"thing": "FDT:sys", "node": "ems", "publish_period_s": 0}]}},
         "publish_period_s"),
    ], ids=["ems-key", "turnout-key", "ems-not-object", "tcp-transport",
            "ems-value-type", "turnout-value-type", "historian-key",
            "top-level-key", "clock-key", "broker-key", "ems-zero-timer",
            "ems-ceiling-range", "interpolation-mode", "turnout-period",
            "turnout-cluster-size", "clock-scale", "poll-period",
            "plc-scan-period", "cabinet-sample-period",
            "controller-publish-period"])
    def test_input_error_exits_2(self, tmp_path, capsys, section, key):
        path = minimal(tmp_path, lambda r: r.update(section))
        # unchecked, a zero period reschedules its task at t = 0 forever
        with deadline(30):
            assert main(["run", path, "--no-pace"]) == EXIT_INVALID
        assert key in capsys.readouterr().err
        with pytest.raises(ScenarioError, match=key):
            load_scenario(path)
        assert main(["validate", path]) == EXIT_INVALID
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, key", [
        (lambda r: r["network"].update(subnets=[]), "subnets"),
        (lambda r: r["devices"].update(controllers=[
            {"thing": "FDT:x", "node": "ems", "period": 10}]), "period"),
        (lambda r: r["devices"].update(cabinets=[
            {"building": "a", "node": "ems", "base_load_w": 1,
             "max_consumption_w": 2, "unitid": 3}]), "unitid"),
        (lambda r: r["things"].append(dict(SYSTEM, system={
            "A": [["fast", 0.0], [0.0, -1.0]], "B": [[1.0], [1.0]]})),
         "A[0][0]"),
        (lambda r: r["things"].append(dict(SYSTEM, system={
            "A": [[0.0, 0.0], [0.0, -1.0]], "B": [[1.0], [None]]})),
         "B[1][0]"),
        (lambda r: r["things"].append(dict(SYSTEM, x0=[0.0, "1"])), "x0[1]"),
        (lambda r: r["things"].append(dict(SYSTEM, x0=[0.0, float("nan")])),
         "x0[1]"),
        (lambda r: r["things"].append(dict(SYSTEM, time_unit_scale="60")),
         "time_unit_scale"),
    ], ids=["network-key", "controller-key", "cabinet-key", "A-entry",
            "B-entry", "x0-entry", "x0-nan", "time-unit-scale"])
    def test_nested_input_error_exits_2(self, tmp_path, capsys, mutate, key):
        path = minimal(tmp_path, mutate)
        with pytest.raises(ScenarioError, match=re.escape(key)):
            load_scenario(path)
        assert main(["validate", path]) == EXIT_INVALID
        assert key in capsys.readouterr().err

    def test_unknown_segment(self, tmp_path):
        def mutate(raw):
            raw["network"]["nodes"].append({"id": "x", "segment": "wifi"})

        with pytest.raises(ScenarioError, match="segment"):
            load_scenario(minimal(tmp_path, mutate))

    def test_duplicate_node(self, tmp_path):
        def mutate(raw):
            raw["network"]["nodes"].append({"id": "ems", "segment": "control"})

        with pytest.raises(ScenarioError, match="duplicate node"):
            load_scenario(minimal(tmp_path, mutate))

    def test_dangling_broker_node(self, tmp_path):
        def mutate(raw):
            raw["broker"] = {"node": "ghost"}

        with pytest.raises(ScenarioError, match="dangling node"):
            load_scenario(minimal(tmp_path, mutate))

    def test_b_row_dimension_mismatch(self, tmp_path):
        def mutate(raw):
            raw["things"] = [{
                "name": "FDT:bad", "type": "systemSimulator", "feature": "f",
                "system": {"A": [[0.0]], "B": [[1.0], [2.0]]},
                "x0": [0.0],
            }]

        with pytest.raises(ScenarioError, match="B rows"):
            load_scenario(minimal(tmp_path, mutate))

    def test_x0_dimension_mismatch(self, tmp_path):
        def mutate(raw):
            raw["things"] = [{
                "name": "FDT:bad", "type": "systemSimulator", "feature": "f",
                "system": {"A": [[0.0]], "B": [[1.0]]},
                "x0": [0.0, 1.0],
            }]

        with pytest.raises(ScenarioError, match="x0"):
            load_scenario(minimal(tmp_path, mutate))

    def test_unknown_callback_name(self, tmp_path):
        def mutate(raw):
            raw["things"] = [
                {"name": "FDT:sun", "type": "interpolation", "feature": "sky",
                 "property": "radiance", "source_csv": "r.csv"},
                {"name": "FDT:panel", "type": "callback", "feature": "panel",
                 "property": "power", "callbackName": "mystery",
                 "source": "FDT:sun",
                 "args": {"surface_m2": 1, "efficiency": 1}},
            ]

        with pytest.raises(ScenarioError, match="callbackName"):
            load_scenario(minimal(tmp_path, mutate))

    def test_dangling_source_thing(self, tmp_path):
        def mutate(raw):
            raw["things"] = [
                {"name": "FDT:panel", "type": "callback", "feature": "panel",
                 "property": "power",
                 "callbackName": "getSolarSurfaceInterpolant",
                 "source": "FDT:ghost",
                 "args": {"surface_m2": 1, "efficiency": 1}},
            ]

        with pytest.raises(ScenarioError, match="dangling source"):
            load_scenario(minimal(tmp_path, mutate))

    def test_dangling_controller_references(self, tmp_path):
        def mutate(raw):
            raw["devices"] = {"controllers": [
                {"thing": "FDT:ghost", "node": "ems"}]}

        with pytest.raises(ScenarioError, match="dangling thing"):
            load_scenario(minimal(tmp_path, mutate))

    def test_duplicate_cabinet_building(self, tmp_path):
        def mutate(raw):
            raw["network"]["nodes"].append({"id": "cab-a", "segment": "field"})
            raw["devices"] = {"cabinets": [
                {"building": "a", "node": "cab-a", "base_load_w": 1,
                 "max_consumption_w": 2},
                {"building": "a", "node": "cab-a", "base_load_w": 1,
                 "max_consumption_w": 2},
            ]}

        with pytest.raises(ScenarioError, match="duplicate cabinet"):
            load_scenario(minimal(tmp_path, mutate))

    def test_negative_duration(self, tmp_path):
        with pytest.raises(ScenarioError, match="duration"):
            load_scenario(minimal(tmp_path, lambda r: r.update(duration_s=-1)))


class TestSystemSpec:
    def test_time_unit_scale_applied(self):
        spec = SystemThingSpec(
            name="FDT:x", feature="f", A=[[-1.0]], B=[[2.0]], x0=[0.0],
            inputs=["u"], time_unit_scale=60.0)
        sys = spec.build_system()
        assert sys.A == [[-60.0]]
        assert sys.B == [[120.0]]

    def test_thing_lookup(self, scenario_path):
        scenario = load_scenario(scenario_path)
        assert scenario.thing("FDT:energy-store-1").capacity_kwh == 6.0
        with pytest.raises(ScenarioError):
            scenario.thing("FDT:ghost")
