import json
import os
import threading
import time

import pytest

from spmtwin import netfabric
from spmtwin.cli import EXIT_INVALID, EXIT_OK, main
from spmtwin.devices import TRIP_COIL
from spmtwin.historian import CommandFailure
from spmtwin.runner import RunAbort, Runner, run_scenario
from spmtwin.scenario import load_scenario


def customized(tmp_path, scenario_dir, mutate=None, **top_level) -> str:
    """Copy the shipped scenario with absolute data paths and overrides."""
    with open(os.path.join(scenario_dir, "spm.json")) as fh:
        raw = json.load(fh)
    raw["things"][0]["source_csv"] = os.path.join(scenario_dir,
                                                  "radiance_2016.csv")
    raw.setdefault("turnout", {})["schedule_csv"] = os.path.join(
        scenario_dir, "schedule.csv")
    raw["network"]["policy_file"] = os.path.join(scenario_dir, "policy.json")
    raw.update(top_level)
    if mutate:
        mutate(raw)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return str(path)


def run_short(tmp_path, scenario_dir, duration=600, mutate=None, **kw):
    path = customized(tmp_path, scenario_dir, mutate=mutate,
                      duration_s=duration, **kw)
    scenario = load_scenario(path)
    return run_scenario(scenario, pace=False)


class TestShortRuns:
    def test_zero_duration_produces_empty_artifacts(self, tmp_path, scenario_dir):
        artifacts = run_short(tmp_path, scenario_dir, duration=0)
        assert artifacts.completed
        assert artifacts.historian.log == []
        assert artifacts.ems_ticks == []
        out = tmp_path / "out"
        paths = artifacts.export(str(out))
        assert (out / "datapoints.csv").read_text() == "timestamp,xid,value\n"
        assert len(paths) == 3

    def test_ten_minutes_overnight(self, tmp_path, scenario_dir):
        artifacts = run_short(tmp_path, scenario_dir, duration=600)
        assert artifacts.completed
        assert artifacts.skipped_ems_ticks == 0
        assert artifacts.blocked_count == 0
        hist = artifacts.historian
        # midnight in June: no sun, base load only
        assert hist.get_latest("DP_solar_power")[1] == 0.0
        assert hist.get_latest("DP_campus_consumption")[1] == pytest.approx(9.0)
        # the EMS covers the night deficit from storage first
        first = artifacts.ems_ticks[0]
        assert first.storage_mode == "discharge"
        assert first.grid_import_kw == 0.0
        assert first.discharge_kw == pytest.approx(9.0)

    def test_storage_floor_reached_then_grid(self, tmp_path, scenario_dir):
        # 50% -> 10% at 0.14 %/s takes ~286 s of commanded discharge
        artifacts = run_short(tmp_path, scenario_dir, duration=1800)
        modes = [r.storage_mode for r in artifacts.ems_ticks]
        assert "discharge" in modes and "idle" in modes
        late = artifacts.ems_ticks[-1]
        assert late.storage_mode == "idle"
        assert late.grid_import_kw == pytest.approx(late.consumption_kw)

    def test_energy_balance_residual_zero(self, tmp_path, scenario_dir):
        artifacts = run_short(tmp_path, scenario_dir, duration=1800)
        for r in artifacts.ems_ticks:
            residual = (r.consumption_kw + r.charge_kw + r.dissipated_kw
                        - r.solar_kw - r.discharge_kw - r.turbine_kw
                        - r.grid_import_kw)
            assert abs(residual) <= 0.5

    def test_deterministic_across_runs_and_scales(self, tmp_path, scenario_dir):
        a = run_short(tmp_path, scenario_dir, duration=900)
        b = run_short(tmp_path, scenario_dir, duration=900)
        assert a.historian.log == b.historian.log
        path = customized(tmp_path, scenario_dir, duration_s=900,
                          clock={"scale": 77777, "tick": 0.1})
        c = run_scenario(load_scenario(path), pace=True)
        assert a.historian.log == c.historian.log

    @pytest.mark.parametrize("error, aborts", [
        (netfabric.FabricError("node vanished"), True),
        (netfabric.Blocked("ems", "scada"), False),
    ], ids=["fabric-error-aborts", "blocked-skips"])
    def test_ems_read_errors(self, tmp_path, scenario_dir, error, aborts):
        path = customized(tmp_path, scenario_dir, duration_s=120)
        runner = Runner(load_scenario(path), pace=False)
        deliver = runner.fabric.deliver
        ems_node = runner.scenario.ems.node

        def failing(src, dst, service, payload):
            if src == ems_node:
                raise error
            return deliver(src, dst, service, payload)

        runner.fabric.deliver = failing
        if aborts:
            with pytest.raises(RunAbort, match="node vanished"):
                runner.run()
            assert runner.artifacts.skipped_ems_ticks == 0
        else:
            assert runner.run().skipped_ems_ticks == 2  # ticks at 60 s, 120 s

    def test_seed_changes_the_draws(self, tmp_path, scenario_dir):
        # daytime window so client loads are actually drawn
        a = run_short(tmp_path, scenario_dir, duration=600, seed=1,
                      start_time="2016-06-06T10:00:00")
        b = run_short(tmp_path, scenario_dir, duration=600, seed=2,
                      start_time="2016-06-06T10:00:00")
        assert a.historian.log != b.historian.log

    def test_fabric_holds_only_scenario_nodes(self, tmp_path, scenario_dir):
        # busy hours spawn and retire clients; none of them joins the fabric
        path = customized(tmp_path, scenario_dir, duration_s=7200,
                          start_time="2016-06-06T10:00:00")
        runner = Runner(load_scenario(path), pace=False)
        assert runner.run().completed
        assert runner.population.clients
        assert len(runner.fabric._nodes) == len(runner.scenario.nodes)


def consumption(historian) -> list[float]:
    """Building a's consumption samples in poll order."""
    return [v for _, xid, v in historian.log if xid == "DP_a_consumption"]


class TestTripProtection:
    def test_trip_end_to_end(self, tmp_path, scenario_dir):
        # one building fed by every client with a max just above base load:
        # the first daytime sample trips the PLC and the next sample reads
        # base load only
        def mutate(raw):
            raw["devices"]["cabinets"] = [raw["devices"]["cabinets"][0]]
            raw["devices"]["cabinets"][0]["max_consumption_w"] = 2000
            raw["network"]["nodes"] = [
                n for n in raw["network"]["nodes"]
                if not n["id"].startswith("cab-") or n["id"] == "cab-a"]

        path = customized(tmp_path, scenario_dir, mutate=mutate,
                          duration_s=600,
                          start_time="2016-06-06T12:00:00")
        scenario = load_scenario(path)
        runner = Runner(scenario, pace=False)
        artifacts = runner.run()
        cabinet = runner.cabinets["a"]
        assert cabinet.register_file.get_coil(TRIP_COIL) is True
        values = consumption(artifacts.historian)
        over = [i for i, v in enumerate(values) if v > 2000]
        assert len(over) == 1  # exactly the sample that tripped the PLC
        # every sample after the trip reads base load only
        assert all(v <= 1500 for v in values[over[0] + 1:])

    def test_reset_restores_load(self, tmp_path, scenario_dir):
        def mutate(raw):
            raw["devices"]["cabinets"] = [raw["devices"]["cabinets"][0]]
            raw["devices"]["cabinets"][0]["max_consumption_w"] = 2000
            raw["network"]["nodes"] = [
                n for n in raw["network"]["nodes"]
                if not n["id"].startswith("cab-") or n["id"] == "cab-a"]

        path = customized(tmp_path, scenario_dir, mutate=mutate,
                          duration_s=400,
                          start_time="2016-06-06T12:00:00",
                          clock={"scale": 200, "tick": 0.1})
        # paced at 1:200 the run lasts ~2 wall-seconds, leaving room to
        # inject a reset after the trip (~0.35 s wall)
        runner = Runner(load_scenario(path), pace=True)
        thread = threading.Thread(target=runner.run)
        thread.start()
        time.sleep(0.8)
        ack = runner.inject("modbus:cab-a/coil/100", False)
        thread.join()
        assert ack["ok"]
        # after the reset the clients feed again, so the next sample exceeds
        # the max and re-trips: two over-limit samples, not one
        assert sum(1 for v in consumption(runner.historian) if v > 2000) >= 2


class TestInjectionAndServers:
    def test_inject_on_blocked_path_fails(self, tmp_path, scenario_dir):
        # management -> control is allowed; drop that rule and commands fail
        def mutate(raw):
            raw["network"].pop("policy_file")
            raw["network"]["policy"] = [
                {"src": "control", "dst": "field", "verdict": "allow"},
                {"src": "field", "dst": "control", "verdict": "allow"},
            ]

        path = customized(tmp_path, scenario_dir, mutate=mutate,
                          duration_s=120)
        runner = Runner(load_scenario(path), pace=False)
        # queue the command and drain it directly: deterministic, no run loop
        done = threading.Event()
        box = {}
        with runner._inject_lock:
            runner._injected.append(("modbus:cab-a/coil/100", False, done, box))
        runner._drain_injections()
        assert done.is_set()
        assert "blocked" in box["error"]
        assert runner.fabric.blocked_count >= 1

    def test_inject_after_run_fails_fast(self, tmp_path, scenario_dir):
        path = customized(tmp_path, scenario_dir, duration_s=60)
        runner = Runner(load_scenario(path), pace=False)
        runner.run()
        start = time.monotonic()
        with pytest.raises(CommandFailure, match="run has ended"):
            runner.inject("modbus:cab-a/coil/100", False, timeout=5.0)
        assert time.monotonic() - start < 0.5
        assert runner._injected == []

    def test_historian_http_is_live_during_run(self, tmp_path, scenario_dir):
        import urllib.request

        path = customized(tmp_path, scenario_dir, duration_s=1200,
                          clock={"scale": 600, "tick": 0.1})
        runner = Runner(load_scenario(path), pace=True)
        seen = {}

        def probe():
            time.sleep(0.2)
            url = (f"http://127.0.0.1:{runner.historian_http.port}"
                   "/datapoint/getAll")
            with urllib.request.urlopen(url) as resp:
                seen["points"] = json.load(resp)

        thread = threading.Thread(target=probe)
        thread.start()
        runner.run()
        thread.join()
        xids = {p["xid"] for p in seen["points"]}
        assert {"DP_solar_power", "DP_storage_level",
                "DP_campus_consumption"} <= xids


class TestCli:
    def test_validate_ok(self, scenario_path, capsys):
        assert main(["validate", scenario_path]) == EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_validate_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == EXIT_INVALID
        assert "scenario error" in capsys.readouterr().err

    def test_run_with_overrides_and_export(self, tmp_path, scenario_dir,
                                           scenario_path, capsys):
        out = tmp_path / "out"
        code = main(["run", scenario_path, "--duration", "300",
                     "--no-pace", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "datapoints.csv").read_text().splitlines()
        assert lines[0] == "timestamp,xid,value"
        assert len(lines) > 1
        assert (out / "summary.csv").exists()
        assert (out / "ems_ticks.csv").exists()

    def test_inject_unreachable_historian(self, capsys):
        code = main(["inject", "--url", "http://127.0.0.1:1",
                     "--target", "modbus:cab-a/coil/100", "--value", "false"])
        assert code == 3
