import contextlib
import json
import re
import signal

import pytest

from spmtwin.cli import EXIT_INVALID, main
from spmtwin.netfabric import FirewallRule, Node
from spmtwin.scenario import (
    CallbackThingSpec,
    EmsSpec,
    InterpolationThingSpec,
    ScenarioError,
    SystemThingSpec,
    load_scenario,
    parse_policy,
    validate_scenario,
)
from spmtwin.simcore import LINEAR, NEAREST


# a storage: 1 state x 2 inputs
SYSTEM = {"name": "FDT:sys", "type": "systemSimulator", "feature": "f",
          "system": {"A": [[0.0]], "B": [[1.0, -1.0]]}, "x0": [0.0]}

# a turbine: 2 states x 3 inputs
TURBINE = {"name": "FDT:turbine", "type": "systemSimulator",
           "feature": "engine",
           "system": {"A": [[-0.3, 0.0], [0.0008, -0.2]],
                      "B": [[4750.0, 29993.0, -0.1], [1.0, 45.0, 0.2]]},
           "x0": [0.0, 15.0]}

# the file only has to exist: loading does not read it
SUN = {"name": "FDT:sun", "type": "interpolation", "feature": "sky",
       "property": "radiance", "source_csv": "schedule.csv"}


CABINET = {"building": "a", "node": "ems", "base_load_w": 1,
           "max_consumption_w": 2}

NODES = [{"id": "broker", "segment": "control"},
         {"id": "scada", "segment": "control"},
         {"id": "ems", "segment": "control"}]

# a callback thing reading FDT:sys, which is not an interpolation thing
PANEL = {"name": "FDT:panel", "type": "callback", "feature": "panel",
         "property": "power", "callbackName": "getSolarSurfaceInterpolant",
         "source": "FDT:sys", "args": {"surface_m2": 1, "efficiency": 1}}


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
        "network": {"policy": [], "nodes": list(NODES)},
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

    def test_legacy_controller_feature_accepted(self, tmp_path):
        scenario = load_scenario(minimal(tmp_path, lambda r: r.update(
            things=[SYSTEM], devices={"controllers": [
                {"thing": "FDT:sys", "node": "ems", "feature": "f"}]})))
        assert [c.thing for c in scenario.controllers] == ["FDT:sys"]

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

    def test_invalid_policy_json_reports_position(self, tmp_path):
        (tmp_path / "pol.json").write_text('[{"src": "control",\n  "dst"}]')

        def mutate(raw):
            raw["network"].pop("policy")
            raw["network"]["policy_file"] = "pol.json"

        with pytest.raises(ScenarioError, match=r"pol\.json:2:\d+"):
            load_scenario(minimal(tmp_path, mutate))

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
        ({"ems": {"discharge_floor": 95.0}}, "ems: need 0 <= discharge_floor"),
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
        ({"seed": -1}, "seed"),
        ({"things": [{"name": "FDT:sun", "type": "interpolation",
                      "feature": "sky", "property": "radiance",
                      "source_csv": "missing.csv"}]}, "source_csv"),
        ({"turnout": {"schedule_csv": "missing.csv"}}, "schedule_csv"),
        ({"devices": {"cabinets": [dict(CABINET, unit_id=300)]}}, "unit_id"),
        ({"devices": {"cabinets": [dict(CABINET, unit_id=-1)]}}, "unit_id"),
        ({"things": [SYSTEM, PANEL]}, "not an interpolation thing"),
        ({"things": [dict(SYSTEM, name="sun")]}, "namespace:name"),
        ({"things": [dict(SYSTEM, name="FDT:campus-turnout")]},
         "duplicate thing"),
        ({"things": [dict(SYSTEM, system={
            "A": [[0.0, 0.0], [0.0, -1.0]], "B": [[1.0], [1.0]]},
            x0=[0.0, 0.0])]}, "2x1"),
        ({"things": [dict(TURBINE, system=dict(
            TURBINE["system"], A=[[0.0, 0.0], [0.0, -0.2]]))]}, "singular"),
        ({"things": [dict(TURBINE, system=dict(
            TURBINE["system"], B=[[0.0, 0.0, 0.0], [1.0, 45.0, 0.2]]))]},
         "nominal rpm"),
        ({"devices": {"cabinets": [CABINET, dict(CABINET, building="b")]}},
         "already has a cabinet"),
        ({"things": [dict(SYSTEM, name=5)]}, "thing.name"),
        ({"things": [dict(SYSTEM, feature=["f"])]}, "feature"),
        ({"things": [dict(SUN, property=1)]}, "property"),
        ({"things": [dict(SUN, source_csv=7)]}, "source_csv"),
        ({"things": [dict(SUN, mode=1)]}, "mode: expected a string"),
        ({"things": [dict(SYSTEM, inputs="ab")]}, "inputs"),
        ({"network": {"nodes": NODES, "policy": [
            {"src": "control", "verdict": "allow"}]}}, "dst"),
        ({"network": {"nodes": NODES, "policy": [
            {"src": "control", "dst": "field", "verdict": "maybe"}]}},
         "verdict"),
        ({"network": {"nodes": NODES, "policy": {
            "src": "control", "dst": "field", "verdict": "allow"}}},
         "policy"),
        ({"network": {"nodes": NODES, "policy": [
            {"src": "contrl", "dst": "field", "verdict": "allow"}]}},
         "contrl"),
        ({"things": [SYSTEM], "devices": {"controllers": [
            {"thing": "FDT:sys", "node": "ems"},
            {"thing": "FDT:sys", "node": "ems"}]}}, "duplicate controller"),
        ({"things": [SUN, dict(PANEL, source="FDT:sun"),
                     dict(PANEL, name="FDT:panel-2", source="FDT:sun")]},
         "'FDT:panel-2': a second solar field"),
        ({"things": [SYSTEM, dict(SYSTEM, name="FDT:sys-2")]},
         "'FDT:sys-2': a second storage"),
        ({"things": [TURBINE, dict(TURBINE, name="FDT:turbine-2")]},
         "'FDT:turbine-2': a second turbine"),
    ], ids=["ems-key", "turnout-key", "ems-not-object", "tcp-transport",
            "ems-value-type", "turnout-value-type", "historian-key",
            "top-level-key", "clock-key", "broker-key", "ems-zero-timer",
            "ems-ceiling-range", "ems-floor-range",
            "interpolation-mode", "turnout-period",
            "turnout-cluster-size", "clock-scale", "poll-period",
            "plc-scan-period", "cabinet-sample-period",
            "controller-publish-period", "negative-seed", "missing-source-csv",
            "missing-schedule-csv", "cabinet-unit-id-over",
            "cabinet-unit-id-under", "callback-source-kind", "thing-id",
            "turnout-thing-id",
            "system-shape", "turbine-singular", "turbine-zero-nominal-rpm",
            "two-cabinets-one-node", "thing-name-type", "feature-type",
            "property-type", "source-csv-type", "mode-type", "inputs-type",
            "policy-missing-dst", "policy-verdict", "policy-not-list",
            "policy-segment", "duplicate-controller", "second-solar",
            "second-storage", "second-turbine"])
    def test_input_error_exits_2(self, tmp_path, capsys, section, key):
        path = minimal(tmp_path, lambda r: r.update(section))
        out = tmp_path / "out"
        # unchecked, a zero period reschedules its task at t = 0 forever
        with deadline(30):
            assert main(["run", path, "--no-pace", "--out", str(out)]) \
                == EXIT_INVALID
        assert key in capsys.readouterr().err
        assert not out.exists()
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
            "A": [["fast"]], "B": [[1.0, -1.0]]})), "A[0][0]"),
        (lambda r: r["things"].append(dict(SYSTEM, system={
            "A": [[0.0]], "B": [[1.0, None]]})), "B[0][1]"),
        (lambda r: r["things"].append(dict(SYSTEM, x0=["1"])), "x0[0]"),
        (lambda r: r["things"].append(dict(SYSTEM, x0=[float("nan")])),
         "x0[0]"),
        (lambda r: r["things"].append(dict(SYSTEM, time_unit_scale="60")),
         "time_unit_scale"),
        # a nested key is accepted only in its object
        (lambda r: r["things"].append(dict(PANEL, surface_m2=1)),
         "thing 'FDT:panel': unknown keys ['surface_m2']"),
        (lambda r: r["things"].append(dict(SYSTEM, A=[[0.0]])),
         "thing 'FDT:sys': unknown keys ['A']"),
        (lambda r: r["things"].append(dict(SYSTEM, system=dict(
            SYSTEM["system"], x0=[0.0]))),
         "thing 'FDT:sys'.system: unknown keys ['x0']"),
    ], ids=["network-key", "controller-key", "cabinet-key", "A-entry",
            "B-entry", "x0-entry", "x0-nan", "time-unit-scale",
            "surface-beside-args", "A-beside-system", "x0-in-system"])
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


class TestDeclaredSchema:
    """Each record reads its keys from the dataclass it loads to."""

    def test_every_optional_key_of_each_thing_kind(self, tmp_path):
        sun = dict(SUN, mode=LINEAR)
        panel = dict(PANEL, source="FDT:sun",
                     args={"surface_m2": 504, "efficiency": 0.16})
        store = dict(SYSTEM, inputs=["charge", "discharge"],
                     time_unit_scale=60, capacity_kwh=6)
        turbine = dict(TURBINE, inputs=["a", "b", "c"], time_unit_scale=2,
                       rated_kw=80, air_temp_c=20)
        scenario = load_scenario(minimal(tmp_path, lambda r: r.update(
            things=[sun, panel, store, turbine])))
        assert scenario.things == [
            InterpolationThingSpec(
                name="FDT:sun", feature="sky", prop="radiance",
                source_csv="schedule.csv", mode=LINEAR),
            CallbackThingSpec(
                name="FDT:panel", feature="panel", prop="power",
                callback_name="getSolarSurfaceInterpolant",
                surface_m2=504.0, efficiency=0.16, source_thing="FDT:sun"),
            SystemThingSpec(
                name="FDT:sys", feature="f", A=[[0.0]], B=[[1.0, -1.0]],
                x0=[0.0], inputs=["charge", "discharge"],
                time_unit_scale=60.0, capacity_kwh=6.0),
            SystemThingSpec(
                name="FDT:turbine", feature="engine", A=TURBINE["system"]["A"],
                B=TURBINE["system"]["B"], x0=[0.0, 15.0],
                inputs=["a", "b", "c"], time_unit_scale=2.0, rated_kw=80.0,
                air_temp_c=20.0),
        ]
        assert scenario.nodes == [Node(**n) for n in NODES]

    def test_defaults_come_from_the_dataclass(self, tmp_path):
        scenario = load_scenario(minimal(tmp_path, lambda r: r.update(
            things=[SUN, SYSTEM])))
        sun, system = scenario.things
        assert sun.mode == NEAREST
        assert system.inputs == []
        assert system.time_unit_scale == 1.0
        assert system.capacity_kwh is None
        assert scenario.ems == EmsSpec()
        assert parse_policy([{"src": "control", "dst": "field",
                              "verdict": "allow"}]) == [
            FirewallRule("control", "field", "allow", priority=0)]


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
