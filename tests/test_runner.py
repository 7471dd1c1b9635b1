import collections
import csv
import functools
import http.client
import json
import logging
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from spmtwin import broker as broker_mod
from spmtwin import ems, modbus, netfabric
from spmtwin import runner as runner_mod
from spmtwin.cli import (EXIT_INTERRUPTED, EXIT_INVALID, EXIT_OK,
                         EXIT_RUNTIME, main)
from spmtwin.devices import CONSUMPTION_REGISTER, MASTER_COIL, TRIP_COIL
from spmtwin.historian import BUFFER_ROWS, CommandFailure, NoData
from spmtwin.runner import (
    PHASE_CABINET,
    PHASE_EMS,
    PHASE_PLC,
    PHASE_POLL,
    SUMMARY_HEADER,
    EmsTickRecord,
    RunAbort,
    Runner,
    StartupError,
    run_scenario,
)
from spmtwin.scenario import TURNOUT_THING, load_scenario

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
TWINBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "twinbench")


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


def run_short(tmp_path, scenario_dir, duration=600, mutate=None, out="out",
              **kw):
    """Run the shipped scenario unpaced, its artifacts in ``tmp_path/out``."""
    path = customized(tmp_path, scenario_dir, mutate=mutate,
                      duration_s=duration, **kw)
    scenario = load_scenario(path)
    return run_scenario(scenario, out_dir=str(tmp_path / out), pace=False)


# ems_ticks.csv's text columns; every other column is a number
EMS_TEXT_COLUMNS = ("storage_mode", "turbine_command")


def ems_ticks(out) -> list[EmsTickRecord]:
    """The EMS tick records of ``out``/ems_ticks.csv."""
    with open(out / "ems_ticks.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == EmsTickRecord._fields
    return [EmsTickRecord(*(v if name in EMS_TEXT_COLUMNS else float(v)
                            for name, v in zip(header, row)))
            for row in rows]


def samples(out) -> list[tuple[float, str, float]]:
    """The ``(t, xid, value)`` samples of ``out``/datapoints.csv."""
    with open(out / "datapoints.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["timestamp", "xid", "value"]
    return [(float(t), xid, float(v)) for t, xid, v in rows]


class TestShortRuns:
    def test_turnout_counts_the_seconds_of_the_start_time(self, tmp_path,
                                                         scenario_dir):
        def turnout(start_time, t):
            path = customized(tmp_path, scenario_dir, start_time=start_time)
            runner = Runner(load_scenario(path), pace=False)
            runner._task_occupancy(t)
            return runner.broker.get_property(TURNOUT_THING, "campus",
                                              "persons")

        # a start 30 s later is 30 s further along the morning's rise
        assert turnout("2016-06-06T09:00:30", 60.0) == pytest.approx(605.0)
        for t in (0.0, 60.0, 1770.0, 86400.0):
            assert turnout("2016-06-06T09:00:30", t) == pytest.approx(
                turnout("2016-06-06T09:00:00", t + 30.0), rel=1e-12)

    def test_zero_duration_produces_empty_artifacts(self, tmp_path, scenario_dir):
        artifacts = run_short(tmp_path, scenario_dir, duration=0)
        assert artifacts.completed
        assert len(artifacts.historian.log) == len(artifacts.ems_ticks) == 0
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == sorted(ARTIFACTS)
        assert (out / "datapoints.csv").read_text() == "timestamp,xid,value\n"
        assert ems_ticks(out) == []
        assert (out / "summary.csv").read_text() == SUMMARY_HEADER + "\n"

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
        first = ems_ticks(tmp_path / "out")[0]
        assert first.storage_mode == "discharge"
        assert first.grid_import_kw == 0.0
        assert first.discharge_kw == pytest.approx(9.0)

    def test_storage_floor_reached_then_grid(self, tmp_path, scenario_dir):
        # 50% -> 10% at 0.14 %/s takes ~286 s of commanded discharge
        run_short(tmp_path, scenario_dir, duration=1800)
        ticks = ems_ticks(tmp_path / "out")
        modes = [r.storage_mode for r in ticks]
        assert "discharge" in modes and "idle" in modes
        late = ticks[-1]
        assert late.storage_mode == "idle"
        assert late.grid_import_kw == pytest.approx(late.consumption_kw)

    def test_energy_balance_residual_zero(self, tmp_path, scenario_dir):
        run_short(tmp_path, scenario_dir, duration=1800)
        ticks = ems_ticks(tmp_path / "out")
        assert ticks
        for r in ticks:
            residual = (r.consumption_kw + r.charge_kw + r.dissipated_kw
                        - r.solar_kw - r.discharge_kw - r.turbine_kw
                        - r.grid_import_kw)
            assert abs(residual) <= 0.5

    def test_deterministic_across_runs_and_scales(self, tmp_path, scenario_dir):
        run_short(tmp_path, scenario_dir, duration=900, out="a")
        run_short(tmp_path, scenario_dir, duration=900, out="b")
        path = customized(tmp_path, scenario_dir, duration_s=900,
                          clock={"scale": 77777, "tick": 0.1})
        run_scenario(load_scenario(path), out_dir=str(tmp_path / "c"),
                     pace=True)
        a = (tmp_path / "a" / "datapoints.csv").read_bytes()
        assert a.count(b"\n") > 1
        assert a == (tmp_path / "b" / "datapoints.csv").read_bytes()
        assert a == (tmp_path / "c" / "datapoints.csv").read_bytes()

    @pytest.mark.parametrize("error, reason", [
        (netfabric.FabricError("node vanished"), None),
        (netfabric.Blocked("ems", "scada"), "blocked"),
        (ems.StaleMeasurements("too old"), "stale"),
        (NoData("no samples yet"), "no data"),
    ], ids=["fabric-error-aborts", "blocked-skips", "stale-skips",
            "no-data-skips"])
    def test_ems_read_errors(self, tmp_path, scenario_dir, error, reason):
        path = customized(tmp_path, scenario_dir, duration_s=120)
        runner = Runner(load_scenario(path), pace=False)
        deliver = runner.fabric.deliver
        ems_node = runner.scenario.ems.node

        def failing(src, dst, service, payload):
            if src == ems_node:
                raise error
            return deliver(src, dst, service, payload)

        runner.fabric.deliver = failing
        if reason is None:
            with pytest.raises(RunAbort, match="node vanished"):
                runner.run()
            assert runner.artifacts.skipped_ems_ticks == 0
            assert set(runner.artifacts.skipped_by_reason.values()) == {0}
        else:
            artifacts = runner.run()
            assert artifacts.skipped_ems_ticks == 2  # ticks at 60 s, 120 s
            assert artifacts.skipped_by_reason == dict(
                {"stale": 0, "no data": 0, "blocked": 0}, **{reason: 2})

    def test_ems_skips_are_logged_once_per_reason(self, tmp_path,
                                                  scenario_dir, caplog):
        caplog.set_level(logging.WARNING, logger="spmtwin.runner")
        path = customized(tmp_path, scenario_dir, duration_s=360)
        runner = Runner(load_scenario(path), pace=False)
        deliver = runner.fabric.deliver
        ems_node = runner.scenario.ems.node
        # by tick time: the EMS's reads are refused, then stale, then fine,
        # then refused again, then find no data
        plan = {60.0: "blocked", 120.0: "blocked", 180.0: "stale",
                300.0: "blocked", 360.0: "no data"}

        def scripted(src, dst, service, payload):
            failure = plan.get(runner.clock.now()) if src == ems_node else None
            if failure == "blocked":
                raise netfabric.Blocked(src, dst)
            if failure == "no data":
                raise NoData("no samples yet")
            reply = deliver(src, dst, service, payload)
            if failure == "stale":
                reply = dict(reply, timestamp=reply["timestamp"] - 3600.0)
            return reply

        runner.fabric.deliver = scripted
        artifacts = runner.run()
        assert artifacts.skipped_ems_ticks == 5
        assert artifacts.skipped_by_reason == {
            "stale": 1, "no data": 1, "blocked": 3}
        assert len(artifacts.ems_ticks) == 1               # the 240 s tick
        skips = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("EMS ticks skipped")]
        assert [m.split(":")[0] for m in skips] == [
            "EMS ticks skipped from t=60.0 (blocked)",
            "EMS ticks skipped from t=180.0 (stale)",
            "EMS ticks skipped from t=300.0 (blocked)",
            "EMS ticks skipped from t=360.0 (no data)",
        ]

    def test_seed_changes_the_draws(self, tmp_path, scenario_dir):
        # daytime window so client loads are actually drawn
        run_short(tmp_path, scenario_dir, duration=600, seed=1, out="a",
                  start_time="2016-06-06T10:00:00")
        run_short(tmp_path, scenario_dir, duration=600, seed=2, out="b",
                  start_time="2016-06-06T10:00:00")
        a, b = samples(tmp_path / "a"), samples(tmp_path / "b")
        # the same polls, but other loads drawn
        assert [(t, xid) for t, xid, _ in a] == [(t, xid) for t, xid, _ in b]
        assert a != b

    def test_fabric_holds_only_scenario_nodes(self, tmp_path, scenario_dir):
        # busy hours spawn and retire clients; none of them joins the fabric
        path = customized(tmp_path, scenario_dir, duration_s=7200,
                          start_time="2016-06-06T10:00:00")
        runner = Runner(load_scenario(path), pace=False)
        assert runner.run().completed
        assert runner.population.clients
        assert len(runner.fabric._nodes) == len(runner.scenario.nodes)

    def test_cabinet_on_the_broker_node_is_polled_once_per_poll(
            self, tmp_path, scenario_dir):
        def mutate(raw):
            raw["devices"]["cabinets"][0]["node"] = raw["broker"]["node"]

        artifacts = run_short(tmp_path, scenario_dir, duration=600,
                              mutate=mutate)
        assert artifacts.completed
        assert artifacts.historian.hosts == (
            "broker", "cab-b", "cab-c", "cab-d", "cab-e", "cab-f")
        polled = [t for t, xid, _ in samples(tmp_path / "out")
                  if xid == "DP_a_consumption"]
        assert polled == [10.0 * i for i in range(1, 61)]

    def test_a_blocked_route_logs_once_per_cause(self, tmp_path,
                                                 scenario_dir, caplog):
        # a field -> control deny blocks every controller's publish all day:
        # the EMS's commands to a device do not open the reverse direction
        def deny(raw):
            with open(raw["network"].pop("policy_file")) as fh:
                raw["network"]["policy"] = json.load(fh) + [
                    {"src": "field", "dst": "control", "verdict": "deny",
                     "priority": 30}]

        caplog.set_level(logging.INFO, logger="spmtwin.netfabric")
        path = customized(tmp_path, scenario_dir, mutate=deny,
                          duration_s=86400)
        runner = Runner(load_scenario(path), pace=False)
        artifacts = runner.run()
        assert artifacts.completed
        assert runner.fabric.blocked_count == 51840
        assert runner.fabric.blocked_by_segment == {
            ("field", "control"): 51840}
        assert artifacts.publish_errors == 51840
        assert [(r.levelno, r.getMessage()) for r in caplog.records
                if r.name == "spmtwin.netfabric"] == [
            (logging.WARNING,
             "blocked delivery fc-solar (field) -> broker (control)"),
            (logging.WARNING,
             "blocked delivery fc-storage (field) -> broker (control)"),
            (logging.WARNING,
             "blocked delivery fc-turbine (field) -> broker (control)"),
        ]

    def test_a_blocked_command_event_logs_once(self, tmp_path, scenario_dir,
                                               caplog):
        # the storage controller publishes from the dmz but cannot be
        # reached: each command event to it is blocked, logged once by the
        # fabric and not by the runner
        def storage_in_dmz(raw):
            with open(raw["network"].pop("policy_file")) as fh:
                raw["network"]["policy"] = json.load(fh) + [
                    {"src": "dmz", "dst": "control", "verdict": "allow",
                     "priority": 10}]
            for n in raw["network"]["nodes"]:
                if n["id"] == "fc-storage":
                    n["segment"] = "dmz"

        caplog.set_level(logging.INFO)
        path = customized(tmp_path, scenario_dir, mutate=storage_in_dmz,
                          duration_s=86400)
        runner = Runner(load_scenario(path), pace=False)
        artifacts = runner.run()
        assert artifacts.completed
        assert artifacts.publish_errors == 0
        assert runner.fabric.blocked_count == 8645
        assert runner.fabric.blocked_by_segment == {("control", "dmz"): 8645}
        assert [(r.name, r.getMessage()) for r in caplog.records
                if r.levelno >= logging.WARNING] == [
            ("spmtwin.netfabric",
             "blocked delivery broker (control) -> fc-storage (dmz)"),
        ]

    def test_thing_order_does_not_matter(self, tmp_path, scenario_dir):
        def panel_first(raw):     # the solar panel before the sun it reads
            assert [t["type"] for t in raw["things"][:2]] == [
                "interpolation", "callback"]
            raw["things"][:2] = raw["things"][1::-1]

        for name, mutate in (("listed", None), ("panel-first", panel_first)):
            (tmp_path / name).mkdir()
            path = customized(tmp_path / name, scenario_dir, mutate=mutate,
                              duration_s=1800,
                              start_time="2016-06-06T10:00:00")
            assert Runner(load_scenario(path), pace=False).run(
                out_dir=str(tmp_path / name / "out")).completed
        for name in ARTIFACTS:
            assert (tmp_path / "panel-first" / "out" / name).read_bytes() \
                == (tmp_path / "listed" / "out" / name).read_bytes()


def consumption(out) -> list[float]:
    """Building a's consumption samples in ``out``/datapoints.csv, in poll
    order."""
    return [v for _, xid, v in samples(out) if xid == "DP_a_consumption"]


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
        runner.run(out_dir=str(tmp_path / "out"))
        cabinet = runner.cabinets["a"]
        assert cabinet.register_file.get_coil(TRIP_COIL) is True
        values = consumption(tmp_path / "out")
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
        out = tmp_path / "out"
        (status, ack), _, _ = during_run(
            runner, lambda: post_command(runner, "modbus:cab-a/coil/100", False),
            delay=0.8, out_dir=str(out))
        assert status == 200
        assert ack["ok"]
        # after the reset the clients feed again, so the next sample exceeds
        # the max and re-trips: two over-limit samples, not one
        assert sum(1 for v in consumption(out) if v > 2000) >= 2


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
        # a built runner makes the command at once: deterministic, no run loop
        with pytest.raises(CommandFailure, match="blocked"):
            runner.inject("modbus:cab-a/coil/100", False)
        assert runner.fabric.blocked_count >= 1

    def test_inject_after_run_fails_fast(self, tmp_path, scenario_dir):
        path = customized(tmp_path, scenario_dir, duration_s=60)
        runner = Runner(load_scenario(path), pace=False)
        runner.run()
        start = time.monotonic()
        with pytest.raises(CommandFailure, match="run has ended"):
            runner.inject("modbus:cab-a/coil/100", False)
        reply = runner.serve_broker_request(broker_mod.BrokerRequest("GET"))
        assert reply["status"] == 503
        assert "run has ended" in reply["body"]["error"]
        assert "thing list" in reply["body"]["error"]
        assert time.monotonic() - start < 0.5

    def test_servers_stop_quickly(self, tmp_path, scenario_dir):
        before = set(threading.enumerate())
        runner = paced(tmp_path, scenario_dir)
        stop_servers = runner._stop_servers
        took = []

        def timed_stop():
            start = time.monotonic()
            stop_servers()
            took.append(time.monotonic() - start)

        runner._stop_servers = timed_stop

        def keep_alive():
            conn = http.client.HTTPConnection(
                "127.0.0.1", runner.historian_http.port, timeout=2)
            conn.request("GET", "/datapoint/getAll")
            assert conn.getresponse().read()
            return conn

        # a keep-alive client, still connected when the servers stop
        conn, _, _ = during_run(runner, keep_alive)
        try:
            assert len(took) == 1 and took[0] < 0.05
            assert conn.sock.recv(1) == b""     # the run closed it
        finally:
            conn.close()
        # the run's thread was the one that served
        assert set(threading.enumerate()) <= before

    def test_a_run_serves_http_on_its_own_thread(self, tmp_path,
                                                 scenario_dir, monkeypatch):
        runner = paced(tmp_path, scenario_dir)
        hooks = []
        for name in ("inject", "serve_broker_request"):
            def recording(*args, hook=getattr(runner, name), **kwargs):
                hooks.append(threading.get_ident())
                return hook(*args, **kwargs)
            setattr(runner, name, recording)
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        clients = []

        def on_listening():
            clients.append(subprocess.Popen(
                [sys.executable, "-c", HTTP_CLIENT,
                 str(runner.broker_http.port), str(runner.historian_http.port),
                 "20"], stdout=subprocess.PIPE, text=True))

        before = threading.active_count()
        runner.run(on_listening=on_listening)
        out, _ = clients[0].communicate(timeout=30)
        assert clients[0].returncode == 0
        # 20 reads, 20 commands and 20 broker PUTs, each answered 2xx
        assert json.loads(out) == [200, 200, 204] * 20
        assert started == [] and threading.active_count() == before
        assert hooks == [threading.get_ident()] * 40

    def test_stalled_clients_hold_up_no_command(self, tmp_path, scenario_dir):
        runner = paced(tmp_path, scenario_dir)
        command = json.dumps({"target": "modbus:cab-a/coil/101",
                              "value": True})

        def stall_then_command():
            port = runner.historian_http.port
            # half a head, then nothing
            half = socket.create_connection(("127.0.0.1", port), timeout=2)
            half.sendall(b"GET /datapoint/getAll HTTP/1.1\r\nHost: x")
            # an idle keep-alive connection
            idle = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
            idle.request("GET", "/datapoint/getAll")
            assert idle.getresponse().read()
            start = time.monotonic()
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
            try:
                conn.request("POST", "/command", body=command)
                resp = conn.getresponse()
                reply = (resp.status, json.loads(resp.read()))
            finally:
                conn.close()
            return half, idle.sock, reply, time.monotonic() - start

        start = time.monotonic()
        (half, idle, reply, took), _, _ = during_run(
            runner, stall_then_command, delay=0.2)
        ran = time.monotonic() - start
        try:
            assert reply == (200, {"ok": True,
                                   "target": "modbus:cab-a/coil/101"})
            assert took < 0.5
            s = runner.scenario
            assert ran < s.duration_s / s.clock_scale + 1.0
            # the run's end closed both
            assert half.recv(1) == b"" and idle.recv(1) == b""
        finally:
            half.close()
            idle.close()

    def test_an_unpaced_run_serves_a_command_made_during_it(
            self, tmp_path, scenario_dir, monkeypatch):
        # a day unpaced: ~8,900 instant boundaries in about a second
        path = customized(tmp_path, scenario_dir, duration_s=86400)
        runner = Runner(load_scenario(path), pace=False)
        timeouts = []
        serve = runner_mod.FrontEnds.serve

        def counted(front_ends, timeout):
            timeouts.append(timeout)
            return serve(front_ends, timeout)

        monkeypatch.setattr(runner_mod.FrontEnds, "serve", counted)
        command = json.dumps({"target": "modbus:cab-a/coil/101",
                              "value": True})

        def command_over_http():
            conn = http.client.HTTPConnection(
                "127.0.0.1", runner.historian_http.port, timeout=10)
            try:
                conn.request("POST", "/command", body=command)
                resp = conn.getresponse()
                return resp.status, json.loads(resp.read())
            finally:
                conn.close()

        start = time.monotonic()
        reply, _, _ = during_run(runner, command_over_http)
        ran_ms = (time.monotonic() - start) * 1000
        # made by the run: after it, a command is 502 "run has ended"
        assert reply == (200, {"ok": True, "target": "modbus:cab-a/coil/101"})
        assert runner.artifacts.completed
        # at most once per millisecond of the run, plus the last serve
        assert 1 < len(timeouts) <= ran_ms + 2
        assert set(timeouts) == {0}

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


STORE = "FDT:energy-store-1"

# Sends N rounds of a historian read, a command and a broker PUT, each over
# one keep-alive connection per server; prints the statuses as JSON
HTTP_CLIENT = """
import http.client, json, sys
broker, historian, rounds = map(int, sys.argv[1:])
conns = {port: http.client.HTTPConnection("127.0.0.1", port, timeout=10)
         for port in (broker, historian)}
note = "/api/2/things/FDT:campus-turnout/features/campus/properties/note"
statuses = []
for _ in range(rounds):
    for port, method, path, body in [
            (historian, "GET", "/datapoint/getAll", None),
            (historian, "POST", "/command",
             {"target": "modbus:cab-a/coil/101", "value": True}),
            (broker, "PUT", note, "drill")]:
        conns[port].request(method, path,
                            body=None if body is None else json.dumps(body))
        resp = conns[port].getresponse()
        resp.read()
        statuses.append(resp.status)
print(json.dumps(statuses))
"""


# Runs the scenario at argv[1] paced, with twinbench's tracer (from argv[2])
# installed, and sends it one command and one broker PUT over HTTP; prints
# whether it completed, the statuses and what the tracer recorded
TRACED_RUN = """
import http.client, json, sys, threading
sys.path.insert(0, sys.argv[2])
import spans
tracer = spans.Tracer()
spans.install(tracer)
from spmtwin.runner import Runner
from spmtwin.scenario import load_scenario
runner = Runner(load_scenario(sys.argv[1]), pace=True)
note = "/api/2/things/FDT:campus-turnout/features/campus/properties/note"
statuses = []

def client():
    for server, method, path, body in [
            (runner.historian_http, "POST", "/command",
             {"target": "modbus:cab-a/coil/101", "value": True}),
            (runner.broker_http, "PUT", note, "drill")]:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request(method, path, body=json.dumps(body))
        resp = conn.getresponse()
        resp.read()
        statuses.append(resp.status)
        conn.close()

sender = threading.Thread(target=client)
artifacts = runner.run(on_listening=sender.start)
sender.join()
print(json.dumps({"completed": artifacts.completed, "statuses": statuses,
                  "durations": {name: len(tracer.durations[name]) for name in
                                ("runner.inject",
                                 "historian.command.injected")}}))
"""


def during_run(runner, action, delay=0.0, out_dir=None):
    """Run ``runner`` in a thread and call ``action()`` ``delay`` s after its
    servers listen. Returns what it returned, how long it took and the ident
    of the run thread, after the run has ended."""
    thread = threading.Thread(target=runner.run, args=(out_dir,))
    thread.start()
    try:
        deadline = time.monotonic() + 10
        while not runner._servers and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(delay)
        start = time.monotonic()
        result = action()
        elapsed = time.monotonic() - start
    finally:
        thread.join(timeout=60)
    assert not thread.is_alive()
    return result, elapsed, thread.ident


def broker_request(runner, method, path, body=None):
    """Send one request to ``runner``'s broker HTTP server; returns its
    status and reply body."""
    conn = http.client.HTTPConnection(
        "127.0.0.1", runner.broker_http.port, timeout=10)
    try:
        conn.request(method, path, body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        raw = resp.read()
    finally:
        conn.close()
    return resp.status, json.loads(raw) if raw else None


def post_command(runner, target, value):
    """Send one operator command to ``runner``'s historian HTTP server;
    returns its status and reply body."""
    conn = http.client.HTTPConnection(
        "127.0.0.1", runner.historian_http.port, timeout=10)
    try:
        conn.request("POST", "/command",
                     body=json.dumps({"target": target, "value": value}))
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def live_broker_request(runner, method, path, body=None):
    """Send one broker request during a run of ``runner``; returns (status,
    reply body, ident of the run thread) after the run has ended."""
    (status, reply), _, ident = during_run(
        runner, lambda: broker_request(runner, method, path, body))
    return status, reply, ident


def paced(tmp_path, scenario_dir, mutate=None) -> Runner:
    # 1,200 sim-s at 1:600 from midnight: ~2 wall-s, and the EMS never
    # charges the storage (no sun)
    path = customized(tmp_path, scenario_dir, mutate=mutate, duration_s=1200,
                      clock={"scale": 600, "tick": 0.1})
    return Runner(load_scenario(path), pace=True)


def property_path(thing, feature, prop):
    return f"/api/2/things/{thing}/features/{feature}/properties/{prop}"


def test_the_benchmark_tracer_hooks_a_live_run(tmp_path, scenario_dir):
    # twinbench/spans.py patches runner and layer names; one that is gone
    # fails here, not only in a traced benchmark run
    path = customized(tmp_path, scenario_dir, duration_s=1200,
                      clock={"scale": 600, "tick": 0.1})
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, path, TWINBENCH],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "completed": True, "statuses": [200, 204],
        "durations": {"runner.inject": 1, "historian.command.injected": 1}}


class TestBrokerHttpThroughFabric:
    def test_put_on_denied_path_is_refused_and_counted(self, tmp_path,
                                                       scenario_dir):
        def mutate(raw):   # the shipped policy without management -> control
            with open(os.path.join(scenario_dir, "policy.json")) as fh:
                rules = json.load(fh)
            raw["network"].pop("policy_file")
            raw["network"]["policy"] = [
                r for r in rules if r["src"] != "management"]

        runner = paced(tmp_path, scenario_dir, mutate)
        modes = []
        feature = runner.scenario.thing(STORE).feature
        runner.broker.subscribe(f"{STORE}/{feature}/mode",
                                callback=lambda ev: modes.append(ev.new))
        status, body, _ = live_broker_request(
            runner, "PUT", property_path(STORE, feature, "mode"), "charge")
        assert status == 403
        assert "blocked" in body["error"]
        assert runner.fabric.blocked_count == 1
        assert runner.artifacts.blocked_count == 1
        assert "charge" not in modes
        assert runner.broker.get_property(STORE, feature, "mode") != "charge"

    def test_put_is_one_management_to_broker_delivery(self, tmp_path,
                                                      scenario_dir):
        path = customized(tmp_path, scenario_dir, duration_s=1200)
        unpaced = Runner(load_scenario(path), pace=False)
        unpaced.run()
        runner = paced(tmp_path, scenario_dir)
        sent = []
        deliver = runner.fabric.deliver

        def recording(src, dst, service, payload):
            sent.append((src, dst, service, payload))
            return deliver(src, dst, service, payload)

        runner.fabric.deliver = recording
        # a property nothing reads, so the run is otherwise the unpaced one
        status, body, _ = live_broker_request(
            runner, "PUT", property_path("FDT:campus-turnout", "campus", "note"),
            "drill")
        assert (status, body) == (204, None)
        assert runner.broker.get_property(
            "FDT:campus-turnout", "campus", "note") == "drill"
        puts = [s[3] for s in sent if s[:3] == ("ops", "broker", "http")]
        assert len(puts) == 1
        # the edge parsed the path; the fabric carries the structured request
        assert puts[0] == broker_mod.BrokerRequest(
            "PUT", "FDT:campus-turnout", "campus", "note", "drill")
        assert runner.fabric.delivered_count \
            == unpaced.fabric.delivered_count + 1
        assert runner.fabric.blocked_count == 0

    def test_bad_paths_are_404_at_the_edge_and_never_delivered(
            self, tmp_path, scenario_dir):
        path = customized(tmp_path, scenario_dir, duration_s=1200)
        unpaced = Runner(load_scenario(path), pace=False)
        unpaced.run()
        runner = paced(tmp_path, scenario_dir)
        replies, _, _ = during_run(runner, lambda: [
            broker_request(runner, "GET", "/nope"),
            broker_request(runner, "PUT", "/api/2/things", "drill")])
        assert [status for status, _ in replies] == [404, 404]
        assert runner.fabric.delivered_count == unpaced.fabric.delivered_count
        assert runner.fabric.blocked_count == 0

    def test_a_run_never_parses_a_path(self, tmp_path, scenario_dir,
                                       monkeypatch):
        class Unmatchable:
            def match(self, path):
                raise AssertionError(f"path {path!r} parsed during a run")

        path = customized(tmp_path, scenario_dir, duration_s=1200)
        plain = Runner(load_scenario(path), pace=False)
        plain.run()
        monkeypatch.setattr(broker_mod, "PROPERTY_PATH_RE", Unmatchable())
        runner = Runner(load_scenario(path), pace=False)
        runner.run()
        assert runner.artifacts.completed
        assert runner.artifacts.publish_errors == 0
        assert runner.fabric.delivered_count == plain.fabric.delivered_count

    def test_command_put_runs_on_the_simulation_thread(self, tmp_path,
                                                       scenario_dir):
        runner = paced(tmp_path, scenario_dir)
        calls = []
        store = runner.storage[STORE]
        apply_command = store.apply_command

        def recording_apply(value):
            calls.append((threading.get_ident(), value))
            return apply_command(value)

        store.apply_command = recording_apply
        sent = []
        deliver = runner.fabric.deliver

        def recording(src, dst, service, payload):
            sent.append((src, dst, service, payload))
            return deliver(src, dst, service, payload)

        runner.fabric.deliver = recording
        status, _, run_thread = live_broker_request(
            runner, "PUT",
            property_path(STORE, runner.scenario.thing(STORE).feature, "mode"),
            "charge")
        assert status == 204
        assert (run_thread, "charge") in calls
        assert {ident for ident, _ in calls} == {run_thread}
        # the PUT is one management -> broker delivery, and the broker's
        # command event one broker -> controller delivery right after it
        hops = [s[:3] for s in sent]
        assert hops.count(("ops", "broker", "http")) == 1
        i = hops.index(("ops", "broker", "http"))
        assert hops[i + 1] == ("broker", "fc-storage", "command")
        assert sent[i + 1][3].new == "charge"


    def test_non_finite_put_is_400_and_the_run_exports(self, tmp_path,
                                                       scenario_dir):
        runner = paced(tmp_path, scenario_dir)
        out = tmp_path / "out"
        (status, body), _, _ = during_run(
            runner, lambda: broker_request(
                runner, "PUT",
                property_path("FDT:solar-panel-1", "panel", "power"),
                float("nan")),
            out_dir=str(out))
        assert status == 400
        assert "finite" in body["error"]
        assert runner.artifacts.completed
        rows = (out / "datapoints.csv").read_text().splitlines()
        assert len(rows) - 1 == len(runner.historian.log) > 0
        assert not any(r.endswith(",nan") for r in rows)


def long_gap(tmp_path, scenario_dir) -> Runner:
    # 12 sim-s at 1:4: the first event, at 10 sim-s, is 2.5 wall-s away
    path = customized(tmp_path, scenario_dir, duration_s=12,
                      clock={"scale": 4, "tick": 0.1})
    return Runner(load_scenario(path), pace=True)


def record_events(runner) -> list[tuple[float, float]]:
    """(sim time, monotonic wall time) of each event ``runner`` runs."""
    events = []
    advance_to = runner.clock.advance_to

    def recording(t):
        events.append((t, time.monotonic()))
        return advance_to(t)

    runner.clock.advance_to = recording
    return events


class TestPacedWake:
    def test_inject_during_a_long_gap_is_made_at_once(self, tmp_path,
                                                      scenario_dir):
        runner = long_gap(tmp_path, scenario_dir)
        (status, reply), elapsed, _ = during_run(runner, lambda: post_command(
            runner, "modbus:cab-a/coil/101", True), delay=0.3)
        assert status == 200
        assert reply["ok"]
        assert elapsed < 0.25

    def test_scan_queued_before_the_next_event_runs_in_order(self, tmp_path,
                                                             scenario_dir):
        runner = long_gap(tmp_path, scenario_dir)
        events = record_events(runner)
        # master off: a write that changes the coil
        during_run(runner, lambda: post_command(
            runner, "modbus:cab-a/coil/101", False), delay=0.3)
        assert runner.artifacts.completed
        times = [t for t, _ in events]
        # the coil write asks for a scan at 0.1 s, before the event at 10 s
        assert times == sorted(times)
        assert times[0] == pytest.approx(0.1)
        assert times[1] == 10.0

    def test_broker_put_during_a_long_gap_is_made_at_once(self, tmp_path,
                                                          scenario_dir):
        runner = long_gap(tmp_path, scenario_dir)
        reply, elapsed, _ = during_run(runner, lambda: broker_request(
            runner, "PUT", property_path("FDT:campus-turnout", "campus", "note"),
            "drill"), delay=0.3)
        assert reply == (204, None)
        assert elapsed < 0.25

    def test_each_boundary_serves_once(self, tmp_path, scenario_dir):
        # no client: every wait runs out, and the event runs with no second
        # serve after it
        runner = paced(tmp_path, scenario_dir)
        events = record_events(runner)
        serves = []
        start_servers, stop_servers = runner._start_servers, runner._stop_servers

        def counting_start():
            start_servers()
            serve = runner._front_ends.serve

            def counting(timeout):
                serves.append(timeout)
                return serve(timeout)

            runner._front_ends.serve = counting

        def counting_stop():
            serves.append("stop")
            stop_servers()

        runner._start_servers, runner._stop_servers = counting_start, counting_stop
        runner.run()
        assert runner.artifacts.completed
        boundaries = len({t for t, _ in events})
        in_loop = serves[:serves.index("stop")]
        assert 0 < len(in_loop) <= boundaries

    def test_waking_never_runs_an_event_early(self, tmp_path, scenario_dir):
        runner = paced(tmp_path, scenario_dir)
        events = record_events(runner)
        start_servers = runner._start_servers
        started = []

        def timed_start():
            start_servers()
            started.append(time.monotonic())   # the loop's clock starts later

        runner._start_servers = timed_start

        def burst():
            replies = []

            def send():     # one HTTP client
                for _ in range(10):
                    replies.append(post_command(
                        runner, "modbus:cab-a/coil/101", True)[1])

            senders = [threading.Thread(target=send) for _ in range(5)]
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(timeout=30)
            return replies

        replies, _, _ = during_run(runner, burst, delay=0.3)
        end = time.monotonic()
        assert len(replies) == 50 and all(r["ok"] for r in replies)
        scale = runner.clock.scale
        assert all(ran >= started[0] + t / scale for t, ran in events)
        assert end - started[0] >= runner.scenario.duration_s / scale


class TestModbusPolls:
    def test_read_request_bytes_are_cached_and_exact(self, scenario_path):
        # each point's request is bound once, and sent as it is every read
        runner = Runner(load_scenario(scenario_path), pace=False)
        cab = runner.scenario.cabinets[0]
        runner.cabinets[cab.building].register_file.set_holding(7, 42)
        sent = []
        deliver = runner.fabric.deliver

        def recording(src, dst, service, payload):
            sent.append(payload)
            return deliver(src, dst, service, payload)

        runner.fabric.deliver = recording
        reads = {}
        for table, fc, addr, value in [
                ("input", modbus.READ_INPUT, CONSUMPTION_REGISTER,
                 int(cab.base_load_w)),
                ("holding", modbus.READ_HOLDING, 7, 42),
                ("coil", modbus.READ_COILS, TRIP_COIL, 0)]:
            expected = modbus.encode_frame(modbus.MbapFrame(
                1, cab.unit_id, modbus.read_request(fc, addr, 1)))
            sent.clear()
            read = reads[table] = runner._bind_modbus(
                cab.node, cab.unit_id, table, addr)
            assert sent == []
            for _ in range(2):
                assert read() == value
            assert sent == [expected, expected]
        # the cabinet still serves each request: a new value reads through
        runner.cabinets[cab.building].register_file.set_holding(7, 43)
        assert reads["holding"]() == 43

    @pytest.mark.parametrize("table", ["input", "holding", "coil"])
    def test_any_other_reply_reads_as_the_general_path(self, scenario_path,
                                                       table):
        runner = Runner(load_scenario(scenario_path), pace=False)
        cab = runner.scenario.cabinets[0]
        unit = cab.unit_id
        fc = {"input": modbus.READ_INPUT, "holding": modbus.READ_HOLDING,
              "coil": modbus.READ_COILS}[table]
        reply = []
        runner.fabric.register_handler(cab.node, "modbus",
                                       lambda data: reply[0])

        def frame(pdu, txn=1, unit=unit, proto=0):
            body = bytes([pdu.function_code]) + pdu.payload
            return modbus.MBAP_HEADER.pack(txn, proto, 1 + len(body),
                                           unit) + body

        replies = [
            frame(modbus.Pdu(fc, b"\x02\x12\x34")),          # the prepared one
            frame(modbus.Pdu(fc, b"\x02\x12\x34"), txn=2),   # another txn
            frame(modbus.Pdu(fc, b"\x02\x12\x34"), unit=unit + 1),
            frame(modbus.Pdu(fc, b"\x02\x12\x34"), proto=3),
            frame(modbus.Pdu(fc ^ 0x07, b"\x02\x12\x34")),   # another fc
            frame(modbus.Pdu(fc, b"\x04\x00\x01\x00\x02")),  # two registers
            frame(modbus.Pdu(fc, b"\x01\x01")),               # one coil
            frame(modbus.Pdu(fc | 0x80, bytes([modbus.EXC_ILLEGAL_ADDRESS]))),
            frame(modbus.Pdu(fc, b"\x02\x12\x34"))[:10],     # cut short
            # 11 bytes, as the prepared reply, but not its header
            frame(modbus.Pdu(fc | 0x80, b"\x02\x12\x34")),
            frame(modbus.Pdu(fc, b"\x04\x12\x34")),
        ]

        def general(raw):
            # the read as it was before prepared replies: decode and parse
            frame, _ = modbus.decode_frame(raw)
            if table == "coil":
                return int(modbus.parse_read_coils_response(frame.pdu, 1)[0])
            return modbus.parse_read_registers_response(frame.pdu)[0]

        def outcome(read, raw):
            reply[:] = [raw]
            try:
                return read()
            except Exception as exc:
                return type(exc), exc.args

        read = runner._bind_modbus(cab.node, unit, table, 100)
        for raw in replies:
            assert outcome(read, raw) == outcome(lambda: general(raw), raw), \
                raw.hex()
        raised = outcome(read, replies[7])
        assert raised[0] is modbus.ModbusExceptionResponse
        if table != "coil":
            assert outcome(read, replies[0]) == 0x1234

    def test_coil_write_takes_the_echo_and_rejects_an_exception(
            self, scenario_path):
        runner = Runner(load_scenario(scenario_path), pace=False)
        cab = runner.scenario.cabinets[0]
        rf = runner.cabinets[cab.building].register_file
        runner._write_modbus_coil(cab.node, cab.unit_id, TRIP_COIL, True)
        assert rf.get_coil(TRIP_COIL) is True
        # the cabinet's own reply to an unmapped coil
        with pytest.raises(CommandFailure, match="exception 2"):
            runner._write_modbus_coil(cab.node, cab.unit_id, 999, True)
        # the same reply from a handler, after the write it answers
        illegal = modbus.encode_frame(modbus.MbapFrame(1, cab.unit_id, modbus.Pdu(
            modbus.WRITE_COIL | 0x80, bytes([modbus.EXC_ILLEGAL_ADDRESS]))))
        runner.fabric.register_handler(cab.node, "modbus",
                                       lambda data: illegal)
        with pytest.raises(CommandFailure, match="exception 2"):
            runner._write_modbus_coil(cab.node, cab.unit_id, TRIP_COIL, False)

    def test_a_coil_write_kept_after_its_echo_still_checks_each_reply(
            self, scenario_path):
        runner = Runner(load_scenario(scenario_path), pace=False)
        first, second = runner.scenario.cabinets[:2]
        assert first.unit_id == second.unit_id
        sent = []
        deliver = runner.fabric.deliver

        def recording(src, dst, service, payload):
            sent.append(payload)
            return deliver(src, dst, service, payload)

        runner.fabric.deliver = recording
        expected = modbus.encode_frame(modbus.MbapFrame(
            1, first.unit_id, modbus.write_coil_request(TRIP_COIL, True)))
        for _ in range(2):
            runner._write_modbus_coil(first.node, first.unit_id, TRIP_COIL,
                                      True)
        assert runner.cabinets[first.building].register_file.get_coil(
            TRIP_COIL) is True
        # the second device does not map the coil: its reply is an exception
        del runner.cabinets[second.building].register_file.coils[TRIP_COIL]
        with pytest.raises(CommandFailure, match="exception 2"):
            runner._write_modbus_coil(second.node, second.unit_id, TRIP_COIL,
                                      True)
        # nor does a handler that answers the same bytes with an exception
        illegal = modbus.encode_frame(modbus.MbapFrame(1, first.unit_id, modbus.Pdu(
            modbus.WRITE_COIL | 0x80, bytes([modbus.EXC_ILLEGAL_ADDRESS]))))
        runner.fabric.register_handler(first.node, "modbus",
                                       lambda data: illegal)
        with pytest.raises(CommandFailure, match="exception 2"):
            runner._write_modbus_coil(first.node, first.unit_id, TRIP_COIL,
                                      True)
        assert sent == [expected] * 4
        # only echoed writes are kept: the map is bounded by the plant's coils
        with pytest.raises(CommandFailure, match="exception 2"):
            runner._write_modbus_coil(second.node, second.unit_id, 999, True)
        assert list(runner._coil_requests) == [(first.unit_id, TRIP_COIL, True)]


class EverySampleRunner(Runner):
    """The sampling that change-driven sampling replaced, kept as the
    oracle: every period samples each of its buildings, marked or not, and
    every sample sums its building's loads and asks for a PLC scan."""

    def _task_cabinets(self, buildings, t):
        for building in buildings:
            self.cabinets[building].sample(
                self.population.building_loads_w(building))
            self._schedule_plc_scan(building, t)


class PerTaskRunner(EverySampleRunner):
    """The scheduling that grouping replaced, kept as the oracle: one heap
    event per periodic task, pushed in registration order, a poll task per
    host, and one event per PLC scan."""

    def _schedule_periodic(self, tasks):
        for period, phase, fn in tasks:
            if phase == PHASE_CABINET:     # one task per cabinet
                for building in fn.args[0]:
                    self._schedule_task(period, phase, functools.partial(
                        self._task_cabinets, (building,)))
            elif phase == PHASE_POLL:      # one task per host
                for host in self.historian.hosts:
                    self._schedule_task(period, phase, functools.partial(
                        self.historian.poll_host, host))
            else:
                self._schedule_task(period, phase, fn)

    def _schedule_task(self, period, phase, fn):
        def wrapper(t):
            fn(t)
            self._schedule(t + period, phase, wrapper)
        self._schedule(period, phase, wrapper)

    def __init__(self, *args, **kwargs):
        self._scan_scheduled = {}     # building -> its next scan instant
        super().__init__(*args, **kwargs)

    def _schedule_plc_scan(self, building, now):
        plc = self.plcs[building]
        t = (int(now / plc.scan_period_s) + 1) * plc.scan_period_s
        if self._scan_scheduled.get(building) == t:
            return
        self._scan_scheduled[building] = t
        self._schedule(t, PHASE_PLC,
                       lambda _t, b=building: self.plcs[b].scan(
                           self.cabinets[b].register_file))


# per cabinet a..f: periods that share some instants and not others, and
# limits under the busy-hour peak (~5.5 kW) on four of them, so PLCs trip
SAMPLE_PERIODS = [2.5, 5.0, 10.0, 15.0, 5.0, 7.5]
SCAN_PERIODS = [0.05, 0.1, 0.3, 0.1, 0.2, 0.15]
MAX_CONSUMPTION_W = [5000, 5200, 10000, 5300, 5100, 10000]
PUBLISH_PERIODS = [5.0, 10.0, 20.0]


def mixed_periods(raw):
    for cab, sample, scan, limit in zip(raw["devices"]["cabinets"],
                                        SAMPLE_PERIODS, SCAN_PERIODS,
                                        MAX_CONSUMPTION_W):
        cab.update(sample_period_s=sample, plc_scan_period_s=scan,
                   max_consumption_w=limit)
    for ctrl, period in zip(raw["devices"]["controllers"], PUBLISH_PERIODS):
        ctrl["publish_period_s"] = period


ARTIFACTS = ("datapoints.csv", "ems_ticks.csv", "summary.csv")


def effects_run(runner_cls, path, out_dir, commands=()):
    """Run unpaced into ``out_dir``, delivering each ``(t, target, value)``
    of ``commands`` management -> historian API at sim ``t`` after the EMS
    phase, as the run loop delivers an injection. The runner returned keeps
    what it did in ``callbacks``: every PLC callback as ``(t, "on_trip" |
    "on_reset", building)``; ``polls``: at every poll of a cabinet, ``(t,
    building, consumption, trip coil)``; ``replies``: each command's reply;
    and ``calls``: every cabinet sample and PLC scan as ``(t, "sample" |
    "scan", building)``."""
    runner = runner_cls(load_scenario(path), pace=False)
    now = runner.clock.now
    runner.out = out_dir
    runner.callbacks, runner.polls, runner.replies, runner.calls = \
        [], [], [], []

    def recording(log, entry, fn):
        def record(*args):
            log.append((now(),) + entry)
            return fn(*args)
        return record

    for b, plc in runner.plcs.items():
        runner.cabinets[b].sample = recording(
            runner.calls, ("sample", b), runner.cabinets[b].sample)
        plc.scan = recording(runner.calls, ("scan", b), plc.scan)
        for kind in ("on_trip", "on_reset"):
            setattr(plc, kind, recording(runner.callbacks, (kind, b),
                                         getattr(plc, kind)))
    buildings = {cab.node: cab.building for cab in runner.scenario.cabinets}
    poll = runner.historian.poll

    def polled(dp, t):
        host = dp.source.host if dp.source is not None else None
        if host in buildings:
            rf = runner.cabinets[buildings[host]].register_file
            runner.polls.append((t, buildings[host],
                                 rf.get_input(CONSUMPTION_REGISTER),
                                 rf.get_coil(TRIP_COIL)))
        return poll(dp, t)

    runner.historian.poll = polled

    def command(target, value):
        runner.replies.append(runner.fabric.deliver(
            runner._mgmt_node, runner.scenario.historian_node, "api",
            {"type": "command", "target": target, "value": value}))

    for t, target, value in commands:
        runner._schedule(t, PHASE_EMS + 1,
                         lambda _t, a=(target, value): command(*a))
    assert runner.run(out_dir=str(out_dir)).completed
    return runner


def assert_same_effects(runner, oracle):
    """Equal artifacts, deliveries, command replies, PLC callback instants,
    and cabinet registers at every poll."""
    for name in ARTIFACTS:
        assert (runner.out / name).read_bytes() == (oracle.out / name).read_bytes()
    assert runner.fabric.delivered_count == oracle.fabric.delivered_count
    assert runner.replies == oracle.replies
    assert runner.callbacks == oracle.callbacks
    assert runner.polls and runner.polls == oracle.polls


def campus(buildings):
    """Mutate the reference plant into ``buildings`` cabinets, each on its
    own field node, as the benchmark's campus generator does."""
    def mutate(raw):
        template = raw["devices"]["cabinets"][0]
        cabinet_nodes = {c["node"] for c in raw["devices"]["cabinets"]}
        raw["network"]["nodes"] = [
            n for n in raw["network"]["nodes"] if n["id"] not in cabinet_nodes]
        raw["devices"]["cabinets"] = []
        for i in range(buildings):
            node = f"cab-{i:03d}"
            raw["network"]["nodes"].append({"id": node, "segment": "field"})
            raw["devices"]["cabinets"].append(
                dict(template, building=f"b{i:03d}", node=node))
    return mutate


class TestGroupedScheduling:
    def test_mixed_periods_match_one_event_per_task(self, tmp_path,
                                                    scenario_dir):
        path = customized(tmp_path, scenario_dir, mutate=mixed_periods,
                          duration_s=3600, start_time="2016-06-06T10:00:00")
        runner = effects_run(Runner, path, tmp_path / "grouped")
        oracle = effects_run(PerTaskRunner, path, tmp_path / "per-task")
        assert_same_effects(runner, oracle)
        # the variant exercises what the order decides: PLCs trip, and
        # buildings share a scan instant; in the oracle's every-sample run,
        # buildings of different scan periods do too (scans asked for only
        # on a change start from a shared minute, so they do not)
        assert sum(plc._last_coil for plc in runner.plcs.values()) >= 2
        periods = dict(zip("abcdef", SCAN_PERIODS))

        def shared_scans(calls):
            shared = {}
            for t, kind, b in calls:
                if kind == "scan":
                    shared.setdefault(t, []).append(periods[b])
            return [p for p in shared.values() if len(p) > 1]

        assert shared_scans(runner.calls)
        assert any(len(set(p)) > 1 for p in shared_scans(oracle.calls))
        # and the change samples and scans far less than every sample does
        assert 10 * len(runner.calls) < len(oracle.calls)

    def test_sixty_buildings_make_few_events_per_poll_period(self, tmp_path,
                                                             scenario_dir):
        polls = 6
        path = customized(tmp_path, scenario_dir, mutate=campus(60),
                          duration_s=polls * 10.0,
                          start_time="2016-06-06T10:00:00")
        runner = Runner(load_scenario(path), pace=False)
        assert runner.scenario.poll_period_s == 10.0
        events = [0]
        advance_to = runner.clock.advance_to

        def counted(t):
            events[0] += 1
            return advance_to(t)

        runner.clock.advance_to = counted
        artifacts = runner.run(out_dir=str(tmp_path / "out"))
        assert artifacts.completed
        # every poll still reads all 60 cabinets and the broker's points
        assert sum(1 for _, xid, _ in samples(tmp_path / "out")
                   if xid.endswith("_consumption")) == polls * 61
        assert 0 < events[0] <= 8 * polls


class TestEventLoop:
    def test_every_popped_event_advances_the_clock(self, tmp_path,
                                                   scenario_dir, monkeypatch):
        # the clock is wrapped on the instance after the runner is built and
        # before it runs, as the benchmark's calibration does
        path = customized(tmp_path, scenario_dir, duration_s=7200)
        runner = Runner(load_scenario(path), pace=False)
        advanced, popped = [], []
        advance_to = runner.clock.advance_to

        def recording(t):
            advanced.append(t)
            return advance_to(t)

        runner.clock.advance_to = recording
        heappop = runner_mod.heapq.heappop

        def counted_pop(heap):
            event = heappop(heap)
            popped.append(event[0])
            return event

        monkeypatch.setattr(runner_mod.heapq, "heappop", counted_pop)
        cab = runner.scenario.cabinets[0]
        replies = []
        for t, on in ((1800.0, False), (3600.0, True)):
            # a master coil write after the EMS phase: it schedules a scan
            # from inside an event
            runner._schedule(t, PHASE_EMS + 1, lambda _t, on=on: replies.append(
                runner.inject(f"modbus:{cab.node}/coil/{MASTER_COIL}", on)))
        assert runner.run(out_dir=str(tmp_path / "out")).completed
        assert replies and all(r["ok"] for r in replies)
        assert advanced == popped
        assert advanced == sorted(advanced) and advanced[-1] == 7200.0
        # the groups re-armed to the end, and the writes' scans ran
        assert advanced.count(7200.0) >= 5
        for t in (1800.0, 3600.0):
            assert any(t < e < t + 1 for e in advanced)


class TestChangeDrivenSampling:
    # on the mixed-periods variant a trips at 60 s and stays tripped, and
    # c never trips
    COMMANDS = [
        (600.0, "modbus:cab-c/coil/101", False),   # master off ...
        (900.0, "modbus:cab-c/coil/101", True),    # ... and on again
        (1000.0, "modbus:cab-a/coil/100", False),  # reset a tripped PLC
        (1200.0, "modbus:cab-b/coil/101", True),   # a redundant master on
    ]

    def test_coil_writes_match_every_sample(self, tmp_path, scenario_dir):
        path = customized(tmp_path, scenario_dir, mutate=mixed_periods,
                          duration_s=3600, start_time="2016-06-06T10:00:00")
        runner = effects_run(Runner, path, tmp_path / "change",
                             self.COMMANDS)
        oracle = effects_run(EverySampleRunner, path, tmp_path / "oracle",
                             self.COMMANDS)
        assert_same_effects(runner, oracle)
        # every command was made, and each did what it is there for
        assert runner.replies == [{"ok": True, "target": target}
                                  for _, target, _ in self.COMMANDS]
        c_polls = [(t, cons) for t, b, cons, _ in runner.polls if b == "c"]
        assert all(cons == 0 for t, cons in c_polls if 610 <= t <= 900)
        assert all(cons > 0 for t, cons in c_polls if t < 600 or t > 910)
        assert [e[1:] for e in runner.callbacks if 1000 < e[0] < 1010] == [
            ("on_reset", "a"), ("on_trip", "a")]
        assert 10 * len(runner.calls) < len(oracle.calls)

    @pytest.mark.parametrize("path", ["general", "prepared"])
    def test_a_redundant_coil_write_marks_nothing(self, scenario_path, path):
        runner = Runner(load_scenario(scenario_path), pace=False)
        cab = runner.scenario.cabinets[0]
        rf = runner.cabinets[cab.building].register_file
        request = modbus.encode_frame(modbus.MbapFrame(
            1, cab.unit_id, modbus.write_coil_request(MASTER_COIL, True)))
        write = functools.partial(runner._write_modbus_coil, cab.node,
                                  cab.unit_id, MASTER_COIL)
        modbus._prepared.clear()
        if path == "prepared":
            write(True)
        runner._marked.clear()
        assert (request in modbus._prepared) is (path == "prepared")
        write(True)                     # master on, as it already is
        assert rf.get_coil(MASTER_COIL) is True
        assert request in modbus._prepared
        assert runner._marked == set()
        assert runner._scans_due == {} and runner._heap == []
        write(False)                    # a write that changes the coil
        assert runner._marked == {cab.building}
        assert list(runner._scans_due.values()) == [{cab.building: None}]
        assert len(runner._heap) == 1

    # on sixty buildings nothing trips by load, so the PLC of b031 is
    # tripped and reset by hand
    CAMPUS_COMMANDS = [
        (600.0, "modbus:cab-007/coil/101", False),  # master off ...
        (900.0, "modbus:cab-007/coil/101", True),   # ... and on again
        (1200.0, "modbus:cab-031/coil/100", True),  # a trip by hand ...
        (1500.0, "modbus:cab-031/coil/100", False),  # ... and its reset
        (1800.0, "modbus:cab-059/coil/101", True),  # a redundant master on
    ]

    def test_sixty_buildings_check_only_the_marked_ones(self, tmp_path,
                                                        scenario_dir):
        # all clients spawn at the first sync, and from 14:00 they retire
        path = customized(tmp_path, scenario_dir, mutate=campus(60),
                          duration_s=3600, start_time="2016-06-06T13:30:00")
        runner = effects_run(MarkRecordingRunner, path, tmp_path / "marked",
                             self.CAMPUS_COMMANDS)
        oracle = effects_run(EverySampleRunner, path, tmp_path / "oracle",
                             self.CAMPUS_COMMANDS)
        assert_same_effects(runner, oracle)
        assert runner.replies == [{"ok": True, "target": target}
                                  for _, target, _ in self.CAMPUS_COMMANDS]
        assert [e[1:] for e in runner.callbacks] == [("on_trip", "b031"),
                                                     ("on_reset", "b031")]
        polls = [(t, cons) for t, b, cons, _ in runner.polls if b == "b007"]
        assert all(cons == 0 for t, cons in polls if 610 <= t <= 900)
        # each building is checked only when marked since its last check,
        # at most once an instant, and every mark is checked by the next
        # sample period
        pending = set()
        for kind, t, building in runner.log:
            if kind == "mark":
                pending.add(building)
            else:
                assert building in pending
                pending.remove(building)
        assert all(t > 3600 - 10.0 for kind, t, b in runner.log
                   if kind == "mark" and b in pending)
        checks = [(t, b) for kind, t, b in runner.log if kind == "check"]
        assert len(set(checks)) == len(checks)
        # far fewer than 60 checks an instant: all 60 at the first only
        per_instant = collections.Counter(t for t, _ in checks)
        assert per_instant[10.0] == 60
        assert 20 * len(checks) < 60 * 360
        assert 10 * len(runner.calls) < len(oracle.calls)


class MarkRecordingRunner(Runner):
    """Keeps, in ``log``, each mark as ``("mark", t, building)`` and each
    check of a marked building as ``("check", t, building)``, in the order
    they were made."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        log = self.log = [("mark", 0.0, b) for b in self._marked]
        now = self.clock.now

        class Recording(set):
            def add(self, building):
                log.append(("mark", now(), building))
                super().add(building)

            def update(self, buildings):
                for building in buildings:
                    self.add(building)

        self._marked = Recording(self._marked)

    def _task_cabinet_sample(self, building, t):
        self.log.append(("check", t, building))
        super()._task_cabinet_sample(building, t)


class TestStreamedArtifacts:
    def test_a_run_without_out_dir_streams_the_same_rows(self, tmp_path,
                                                         scenario_dir,
                                                         monkeypatch):
        # 25 sim-h: summary.csv has two days
        path = customized(tmp_path, scenario_dir, duration_s=90000)
        out = tmp_path / "out"
        written = Runner(load_scenario(path), pace=False).run(out_dir=str(out))
        rows = (out / "datapoints.csv").read_text().count("\n")
        assert len(written.historian.log) == rows - 1 > BUFFER_ROWS
        assert len(written.ems_ticks) == len(ems_ticks(out)) > 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == ["0", "1"]
        # without out_dir: the same rows through the same sinks, and no file
        here = tmp_path / "cwd"
        here.mkdir()
        monkeypatch.chdir(here)
        unwritten = Runner(load_scenario(path), pace=False).run()
        assert unwritten.historian.log._fh.closed
        assert unwritten.ems_ticks._fh.closed
        assert len(unwritten.historian.log) == len(written.historian.log)
        assert len(unwritten.ems_ticks) == len(written.ems_ticks)
        assert unwritten.day_sums == written.day_sums
        assert os.listdir(here) == []

    def test_abort_leaves_closed_files_of_the_rows_made(self, tmp_path,
                                                         scenario_dir):
        path = customized(tmp_path, scenario_dir, duration_s=7200)
        runner = Runner(load_scenario(path), pace=False)
        task_ems = runner._task_ems

        def failing(t):
            if t >= 3600:
                raise RuntimeError("controller fault")
            task_ems(t)

        runner._task_ems = failing
        out = tmp_path / "out"
        with pytest.raises(RunAbort, match="controller fault"):
            runner.run(out_dir=str(out))
        log, ticks = runner.historian.log, runner.artifacts.ems_ticks
        assert log._fh.closed and ticks._fh.closed
        rows = (out / "datapoints.csv").read_text().splitlines()
        assert len(rows) - 1 == len(log) > BUFFER_ROWS
        assert all(len(row.split(",")) == 3 for row in rows)
        ems_rows = (out / "ems_ticks.csv").read_text().splitlines()
        assert len(ems_rows) - 1 == len(ticks) > 0
        assert (out / "summary.csv").read_text().count("\n") == 2

    def test_interrupt_leaves_closed_files_of_the_rows_made(
            self, tmp_path, scenario_dir):
        path = customized(tmp_path, scenario_dir, duration_s=86400)
        runner = Runner(load_scenario(path), pace=False)
        task_ems = runner._task_ems

        def interrupted(t):
            if t >= 43200:
                raise KeyboardInterrupt
            task_ems(t)

        runner._task_ems = interrupted
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            runner.run(out_dir=str(out))
        assert not runner.artifacts.completed
        log, ticks = runner.historian.log, runner.artifacts.ems_ticks
        assert log._fh.closed and ticks._fh.closed
        rows = (out / "datapoints.csv").read_text().splitlines()
        assert len(rows) - 1 == len(log) > 0
        assert len(ems_ticks(out)) == len(ticks) == 43200 // 60 - 1
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert [row.split(",")[0] for row in summary[1:]] == ["0"]
        assert runner._servers == []

    @pytest.mark.parametrize("unusable", ["file-parent", "sink-is-dir"])
    def test_unusable_out_dir_is_a_startup_error(self, tmp_path, scenario_dir,
                                                 monkeypatch, unusable):
        opened = []

        class RecordedSink(runner_mod.SampleSink):
            def __init__(self, path):
                super().__init__(path)
                opened.append(self)

        monkeypatch.setattr(runner_mod, "SampleSink", RecordedSink)
        path = customized(tmp_path, scenario_dir, duration_s=600)
        if unusable == "file-parent":
            (tmp_path / "afile").write_text("")
            out = tmp_path / "afile" / "sub"
        else:
            out = tmp_path / "out"
            (out / "ems_ticks.csv").mkdir(parents=True)
        runner = Runner(load_scenario(path), pace=False)
        with pytest.raises(StartupError, match="cannot write artifacts"):
            runner.run(out_dir=str(out))
        assert runner.artifacts.ems_ticks is None
        assert runner.historian.log == []
        assert all(sink._fh.closed for sink in opened)
        assert runner._servers == []

    def test_startup_error_writes_nothing(self, tmp_path, scenario_dir):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            path = customized(
                tmp_path, scenario_dir, duration_s=600,
                mutate=lambda raw: raw["broker"].update(http_port=port))
            out = tmp_path / "out"
            with pytest.raises(StartupError):
                Runner(load_scenario(path), pace=False).run(out_dir=str(out))
        assert not out.exists()

    def test_taken_historian_port_closes_the_bound_broker_socket(
            self, tmp_path, scenario_dir):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            path = customized(
                tmp_path, scenario_dir, duration_s=600,
                mutate=lambda raw: raw["historian"].update(http_port=port))
            runner = Runner(load_scenario(path), pace=False)
            with pytest.raises(StartupError, match="cannot bind"):
                runner.run()
        assert runner.broker_http.socket.fileno() == -1
        assert runner._servers == []


# One unpaced run in a fresh process, into the out dir given, or into none
# if it is ""; prints its own peak RSS, read from VmHWM (ru_maxrss would
# carry the parent's peak across fork+exec)
MEMORY_CHILD = """
import json, sys
from spmtwin.runner import Runner
from spmtwin.scenario import load_scenario
scenario = load_scenario(sys.argv[1])
scenario.duration_s = float(sys.argv[2])
runner = Runner(scenario, pace=False)
assert runner.run(out_dir=sys.argv[3] or None).completed
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh
                  if line.startswith("VmHWM:"))
print(json.dumps({"hwm_kb": hwm_kb, "nodes": len(runner.fabric._nodes),
                  "samples": len(runner.historian.log)}))
"""


@pytest.mark.slow
def test_memory_flat_from_a_week_to_a_month(tmp_path, scenario_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def run(days, out):
        done = subprocess.run(
            [sys.executable, "-c", MEMORY_CHILD, scenario_path,
             str(days * 86400.0), str(tmp_path / f"{days}d") if out else ""],
            capture_output=True, text=True, env=env, check=True,
            timeout=600)
        return json.loads(done.stdout.splitlines()[-1])

    nodes = len(load_scenario(scenario_path).nodes)
    runs = {out: (run(7, out), run(30, out)) for out in (True, False)}
    for week, month in runs.values():
        assert month["samples"] > 4 * week["samples"]
        assert abs(month["hwm_kb"] - week["hwm_kb"]) <= 5 * 1024
        assert month["nodes"] == week["nodes"] == nodes
    # a run without an out dir peaks where one with an out dir does
    week_out, week_none = runs[True][0], runs[False][0]
    assert week_none["samples"] == week_out["samples"]
    assert abs(week_none["hwm_kb"] - week_out["hwm_kb"]) <= 5 * 1024


class TestCli:
    def test_validate_ok(self, scenario_path, capsys):
        assert main(["validate", scenario_path]) == EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_validate_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == EXIT_INVALID
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, key", [
        (["--duration", "60", "--scale", "0.5"], "clock.scale"),
        (["--seed", "-1"], "seed"),
        (["--duration", "-5"], "duration_s"),
        (["--duration", "nan"], "duration_s"),
        (["--duration", "60", "--scale", "nan"], "clock.scale"),
    ], ids=["scale", "seed", "duration", "duration-nan", "scale-nan"])
    def test_run_overrides_are_validated(self, scenario_path, capsys,
                                         overrides, key):
        assert main(["run", scenario_path, "--no-pace", *overrides]) \
            == EXIT_INVALID
        err = capsys.readouterr().err
        assert "scenario error" in err and key in err

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
        assert ("done: 4 control ticks, 0 blocked deliveries, 0 skipped "
                "ticks (stale 0, no data 0, blocked 0)\n") in capsys.readouterr().out

    def test_run_needs_no_site_packages(self, tmp_path, scenario_path):
        # -S with PYTHONPATH=src leaves only the standard library and the
        # twin importable: no numpy, nor anything else installed
        args = ["run", scenario_path, "--no-pace", "--duration", "3600",
                "--quiet", "--out"]
        bare = subprocess.run(
            [sys.executable, "-S", "-m", "spmtwin.cli", *args,
             str(tmp_path / "bare")],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=SRC))
        assert bare.returncode == EXIT_OK, bare.stderr
        assert main([*args, str(tmp_path / "full")]) == EXIT_OK
        for name in ("datapoints.csv", "ems_ticks.csv", "summary.csv"):
            assert (tmp_path / "bare" / name).read_bytes() \
                == (tmp_path / "full" / name).read_bytes()

    def test_artifacts_are_the_same_bytes_on_every_python(self, tmp_path,
                                                          scenario_path):
        # the 60-building campus over busy hours, whose turbine values once
        # rounded differently from Python 3.12 on
        sys.path.insert(0, TWINBENCH)
        try:
            import campus
        finally:
            sys.path.remove(TWINBENCH)
        # each version that starts here, by its first interpreter
        pythons = {}
        for exe in [sys.executable] + [shutil.which(f"python3.{n}")
                                       for n in range(10, 14)]:
            if exe is None:
                continue
            try:
                probe = subprocess.run(
                    [exe, "-S", "-c", "import sys; print(sys.version)"],
                    capture_output=True, text=True, timeout=60)
            except OSError:
                continue
            if probe.returncode == 0 and probe.stdout:
                pythons.setdefault(probe.stdout.split()[0], exe)
        if len(pythons) < 2:
            pytest.skip(f"needs two Python versions, found {sorted(pythons)}")
        plant = campus.generate(scenario_path, str(tmp_path / "plant"), 60)
        with open(plant) as fh:
            raw = json.load(fh)
        raw["start_time"] = "2016-06-06T10:00:00"
        with open(plant, "w") as fh:
            json.dump(raw, fh)
        for version, exe in pythons.items():
            done = subprocess.run(
                [exe, "-S", "-m", "spmtwin.cli", "run", plant, "--no-pace",
                 "--duration", "14400", "--quiet", "--out",
                 str(tmp_path / version)],
                capture_output=True, text=True, timeout=300,
                env=dict(os.environ, PYTHONPATH=SRC))
            assert done.returncode == EXIT_OK, (version, done.stderr)
        first, *others = pythons
        for name in ("datapoints.csv", "ems_ticks.csv", "summary.csv"):
            expected = (tmp_path / first / name).read_bytes()
            for version in others:
                assert (tmp_path / version / name).read_bytes() == expected, \
                    f"{name} differs between Python {first} and {version}"

    def test_a_run_loads_no_http_client_email_or_ssl(self, scenario_path):
        child = ("import sys; from spmtwin.cli import main; "
                 "main(sys.argv[1:]); print(*sorted(sys.modules))")
        done = subprocess.run(
            [sys.executable, "-S", "-c", child, "run", scenario_path,
             "--no-pace", "--duration", "600", "--quiet"],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=SRC))
        assert done.returncode == EXIT_OK, done.stderr
        loaded = done.stdout.split()
        assert "spmtwin.httpapi" in loaded
        assert [m for m in loaded if m.split(".")[0]
                in ("http", "email", "ssl", "_ssl")] == []

    def test_run_prints_where_its_apis_listen(self, scenario_path):
        import urllib.request

        env = dict(os.environ, PYTHONPATH=SRC)
        run = subprocess.Popen(
            [sys.executable, "-m", "spmtwin.cli", "run", scenario_path,
             "--duration", "3600", "--scale", "60"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            assert run.stdout.readline().startswith("running ")
            listening = re.fullmatch(
                r"listening: broker (http://\S+), historian (http://\S+)\n",
                run.stdout.readline())
            assert listening
            broker_url, historian_url = listening.groups()
            with urllib.request.urlopen(broker_url + "/api/2/things") as resp:
                assert "FDT:energy-store-1" in json.load(resp)
            inject = subprocess.run(
                [sys.executable, "-m", "spmtwin.cli", "inject", "--url",
                 historian_url, "--target", "modbus:cab-a/coil/101",
                 "--value", "true"],
                capture_output=True, text=True, timeout=60, env=env)
            assert inject.returncode == EXIT_OK, inject.stderr
            assert json.loads(inject.stdout)["ok"]
        finally:
            run.send_signal(signal.SIGINT)
            run.wait(timeout=60)
        assert run.returncode == EXIT_INTERRUPTED

    def test_a_malformed_radiance_row_is_a_scenario_error(
            self, tmp_path, scenario_dir, capsys):
        shutil.copytree(scenario_dir, tmp_path / "scenarios")
        radiance = tmp_path / "scenarios" / "radiance_2016.csv"
        lines = radiance.read_bytes().split(b"\r\n")
        lines[100] = b"2016-01-05T03:00:00;0.0"        # line 101
        radiance.write_bytes(b"\r\n".join(lines))
        scenario = str(tmp_path / "scenarios" / "spm.json")
        # validate reads the rows the run reads, and refuses the same line
        for verb in (["validate", scenario],
                     ["run", scenario, "--no-pace", "--duration", "3600",
                      "--quiet"]):
            assert main(verb) == EXIT_INVALID
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"scenario error: {radiance}:101: "
                                  f"'2016-01-05T03:00:00;0.0' ")
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_a_radiance_byte_that_is_not_utf8_is_a_scenario_error(
            self, tmp_path, scenario_dir, capsys):
        shutil.copytree(scenario_dir, tmp_path / "scenarios")
        radiance = tmp_path / "scenarios" / "radiance_2016.csv"
        with open(radiance, "ab") as fh:
            fh.write(b"\xff")
        last = radiance.read_bytes().count(b"\n") + 1     # the appended line
        scenario = str(tmp_path / "scenarios" / "spm.json")
        assert main(["run", scenario, "--no-pace", "--duration", "3600",
                     "--quiet"]) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"scenario error: {radiance}:{last}: '\ufffd' ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_a_malformed_schedule_row_is_a_scenario_error(
            self, tmp_path, scenario_dir, capsys):
        shutil.copytree(scenario_dir, tmp_path / "scenarios")
        schedule = tmp_path / "scenarios" / "schedule.csv"
        lines = schedule.read_bytes().split(b"\r\n")
        lines[4] = b"0;8;400.0"                         # line 5
        schedule.write_bytes(b"\r\n".join(lines))
        scenario = str(tmp_path / "scenarios" / "spm.json")
        # validate reads the rows the run reads, and refuses the same line
        for verb in (["validate", scenario],
                     ["run", scenario, "--no-pace", "--duration", "3600",
                      "--quiet"]):
            assert main(verb) == EXIT_INVALID
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"scenario error: {schedule}:5: '0;8;400.0'")
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_quiet_run_prints_nothing(self, scenario_path, capsys):
        assert main(["run", scenario_path, "--duration", "300", "--no-pace",
                     "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_run_without_out_prints_the_same_and_writes_nothing(
            self, tmp_path, scenario_path, capsys, monkeypatch):
        args = ["run", scenario_path, "--duration", "300", "--no-pace",
                "--seed", "7"]

        def done_line(out):
            lines = out.splitlines()
            return next(line for line in lines if line.startswith("done:"))

        assert main(args + ["--out", str(tmp_path / "out")]) == EXIT_OK
        with_out = done_line(capsys.readouterr().out)
        here = tmp_path / "cwd"
        here.mkdir()
        monkeypatch.chdir(here)
        scenario_files = sorted(os.listdir(os.path.dirname(scenario_path)))
        assert main(args) == EXIT_OK
        printed = capsys.readouterr().out
        assert done_line(printed) == with_out
        assert "artifacts in" not in printed
        assert os.listdir(here) == []
        assert sorted(os.listdir(os.path.dirname(scenario_path))) \
            == scenario_files

    def test_run_into_an_unusable_out_dir_exits_3(self, tmp_path,
                                                  scenario_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        code = main(["run", scenario_path, "--duration", "60", "--no-pace",
                     "--quiet", "--out", str(afile / "sub")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.count("runtime error:") == 1
        assert "Traceback" not in err

    def test_interrupted_run_exits_130_after_its_artifacts(
            self, tmp_path, scenario_path, capsys, monkeypatch):
        task_ems = Runner._task_ems

        def interrupted(self, t):
            if t >= 1800:
                raise KeyboardInterrupt
            task_ems(self, t)

        monkeypatch.setattr(Runner, "_task_ems", interrupted)
        out = tmp_path / "out"
        try:
            code = main(["run", scenario_path, "--duration", "3600",
                         "--no-pace", "--quiet", "--out", str(out)])
        except KeyboardInterrupt:     # would end the whole test session
            pytest.fail("the interrupt escaped main")
        assert code == EXIT_INTERRUPTED
        assert capsys.readouterr().err.strip().splitlines()[-1] == "interrupted"
        assert len(ems_ticks(out)) == 1800 // 60 - 1
        assert (out / "summary.csv").read_text().count("\n") == 2

    def test_inject_unreachable_historian(self, capsys):
        code = main(["inject", "--url", "http://127.0.0.1:1",
                     "--target", "modbus:cab-a/coil/100", "--value", "false"])
        assert code == 3
