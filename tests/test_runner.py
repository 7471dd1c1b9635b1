import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from spmtwin import modbus, netfabric
from spmtwin.cli import EXIT_INVALID, EXIT_OK, main
from spmtwin.devices import CONSUMPTION_REGISTER, TRIP_COIL
from spmtwin.historian import BUFFER_ROWS, CommandFailure
from spmtwin.runner import (
    PHASE_PLC,
    RunAbort,
    Runner,
    StartupError,
    run_scenario,
)
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
            runner._injected.append((
                "ops", runner.scenario.historian_node, "api",
                {"type": "command", "target": "modbus:cab-a/coil/100",
                 "value": False}, done, box))
        runner._drain_injections()
        assert done.is_set()
        assert "blocked" in str(box["error"])
        assert runner.fabric.blocked_count >= 1

    def test_inject_after_run_fails_fast(self, tmp_path, scenario_dir):
        path = customized(tmp_path, scenario_dir, duration_s=60)
        runner = Runner(load_scenario(path), pace=False)
        runner.run()
        start = time.monotonic()
        with pytest.raises(CommandFailure, match="run has ended"):
            runner.inject("modbus:cab-a/coil/100", False, timeout=5.0)
        reply = runner.queue_broker_request(
            {"method": "GET", "path": "/api/2/things"}, timeout=5.0)
        assert reply["status"] == 503
        assert "run has ended" in reply["body"]["error"]
        assert time.monotonic() - start < 0.5
        assert runner._injected == []

    def test_timed_out_inject_is_never_made(self, tmp_path, scenario_dir):
        path = customized(tmp_path, scenario_dir, duration_s=60)
        runner = Runner(load_scenario(path), pace=False)   # not running
        with pytest.raises(CommandFailure, match="timed out"):
            runner.inject("modbus:cab-a/coil/101", True, timeout=0.05)
        assert runner._injected == []
        delivered = runner.fabric.delivered_count
        runner._drain_injections()
        assert runner.fabric.delivered_count == delivered

    def test_timed_out_broker_request_is_never_made(self, tmp_path,
                                                    scenario_dir):
        path = customized(tmp_path, scenario_dir, duration_s=60)
        runner = Runner(load_scenario(path), pace=False)
        reply = runner.queue_broker_request(
            {"method": "PUT",
             "path": property_path("FDT:campus-turnout", "campus", "note"),
             "body": "drill"}, timeout=0.05)
        assert reply["status"] == 503
        assert "timed out" in reply["body"]["error"]
        assert runner._injected == []
        delivered = runner.fabric.delivered_count
        runner._drain_injections()
        assert runner.fabric.delivered_count == delivered

    def test_delivery_taken_before_its_timeout_returns_its_reply(
            self, tmp_path, scenario_dir):
        path = customized(tmp_path, scenario_dir, duration_s=60)
        runner = Runner(load_scenario(path), pace=False)
        timeout = 0.3
        deliver = runner.fabric.deliver

        def slow(src, dst, service, payload):
            time.sleep(timeout + 0.2)     # the injector's timeout runs out
            return deliver(src, dst, service, payload)

        runner.fabric.deliver = slow
        outcome = {}

        def injector():
            try:
                outcome["reply"] = runner.inject("modbus:cab-a/coil/101", True,
                                                 timeout=timeout)
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=injector)
        thread.start()
        while not runner._injected:
            time.sleep(0.001)
        runner._drain_injections()
        thread.join(timeout=5)
        assert outcome == {"reply": {"ok": True,
                                     "target": "modbus:cab-a/coil/101"}}

    def test_servers_stop_quickly(self, scenario_path):
        runner = Runner(load_scenario(scenario_path), pace=False)
        for _ in range(3):
            runner._start_servers()
            start = time.monotonic()
            runner._stop_servers()
            assert time.monotonic() - start < 0.25

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
            sent.append((src, dst, service))
            return deliver(src, dst, service, payload)

        runner.fabric.deliver = recording
        # a property nothing reads, so the run is otherwise the unpaced one
        status, body, _ = live_broker_request(
            runner, "PUT", property_path("FDT:campus-turnout", "campus", "note"),
            "drill")
        assert (status, body) == (204, None)
        assert runner.broker.get_property(
            "FDT:campus-turnout", "campus", "note") == "drill"
        assert sent.count(("ops", "broker", "http")) == 1
        assert runner.fabric.delivered_count \
            == unpaced.fabric.delivered_count + 1
        assert runner.fabric.blocked_count == 0

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
        reply, elapsed, _ = during_run(runner, lambda: runner.inject(
            "modbus:cab-a/coil/101", True, timeout=10), delay=0.3)
        assert reply["ok"]
        assert elapsed < 0.25

    def test_scan_queued_before_the_next_event_runs_in_order(self, tmp_path,
                                                             scenario_dir):
        runner = long_gap(tmp_path, scenario_dir)
        events = record_events(runner)
        during_run(runner, lambda: runner.inject(
            "modbus:cab-a/coil/101", True, timeout=10), delay=0.3)
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

            def send():
                for _ in range(10):
                    replies.append(runner.inject(
                        "modbus:cab-a/coil/101", True, timeout=10))

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
        runner = Runner(load_scenario(scenario_path), pace=False)
        cab = runner.scenario.cabinets[0]
        runner.cabinets[cab.building].register_file.set_holding(7, 42)
        sent = []
        deliver = runner.fabric.deliver

        def recording(src, dst, service, payload):
            sent.append(payload)
            return deliver(src, dst, service, payload)

        runner.fabric.deliver = recording
        for table, fc, addr, value in [
                ("input", modbus.READ_INPUT, CONSUMPTION_REGISTER,
                 int(cab.base_load_w)),
                ("holding", modbus.READ_HOLDING, 7, 42),
                ("coil", modbus.READ_COILS, TRIP_COIL, 0)]:
            expected = modbus.encode_frame(modbus.MbapFrame(
                1, cab.unit_id, modbus.read_request(fc, addr, 1)))
            sent.clear()
            for _ in range(2):
                assert runner._read_modbus(
                    cab.node, cab.unit_id, table, addr) == value
            assert sent == [expected, expected]
        # the cabinet still serves each request: a new value reads through
        runner.cabinets[cab.building].register_file.set_holding(7, 43)
        assert runner._read_modbus(cab.node, cab.unit_id, "holding", 7) == 43


class PerTaskRunner(Runner):
    """The scheduling that grouping replaced, kept as the oracle: one heap
    event per periodic task, pushed in registration order, and one per PLC
    scan."""

    def _schedule_periodic(self, tasks):
        for period, phase, fn in tasks:
            self._schedule_task(period, phase, fn)

    def _schedule_task(self, period, phase, fn):
        def wrapper(t):
            fn(t)
            self._schedule(t + period, phase, wrapper)
        self._schedule(period, phase, wrapper)

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


def recorded_run(runner_cls, path, out_dir):
    """Run unpaced, recording every cabinet sample and PLC scan as
    ``(t, "sample"|"scan", building)``; returns (calls, runner)."""
    runner = runner_cls(load_scenario(path), pace=False)
    calls = []

    def recording(kind, building, fn):
        def record(*args):
            calls.append((runner.clock.now(), kind, building))
            return fn(*args)
        return record

    for b, cabinet in runner.cabinets.items():
        cabinet.sample = recording("sample", b, cabinet.sample)
        plc = runner.plcs[b]
        plc.scan = recording("scan", b, plc.scan)
    runner.run(out_dir=str(out_dir))
    return calls, runner


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
        calls, runner = recorded_run(Runner, path, tmp_path / "grouped")
        expected, oracle = recorded_run(PerTaskRunner, path,
                                        tmp_path / "per-task")
        assert calls == expected
        for name in ("datapoints.csv", "ems_ticks.csv", "summary.csv"):
            assert (tmp_path / "grouped" / name).read_bytes() \
                == (tmp_path / "per-task" / name).read_bytes()
        assert runner.fabric.delivered_count == oracle.fabric.delivered_count
        # the variant exercises what the order decides: PLCs trip, and
        # buildings of different scan periods share a scan instant
        assert sum(plc._last_coil for plc in runner.plcs.values()) >= 2
        periods = dict(zip("abcdef", SCAN_PERIODS))
        shared = {}
        for t, kind, b in calls:
            if kind == "scan":
                shared.setdefault(t, set()).add(periods[b])
        assert any(len(p) > 1 for p in shared.values())

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
        artifacts = runner.run()
        assert artifacts.completed
        # every poll still reads all 60 cabinets and the broker's points
        assert sum(1 for _, xid, _ in artifacts.historian.log
                   if xid.endswith("_consumption")) == polls * 61
        assert 0 < events[0] <= 8 * polls


class TestStreamedArtifacts:
    def test_streamed_files_equal_the_kept_ones(self, tmp_path, scenario_dir):
        # 25 sim-h: summary.csv has two days
        path = customized(tmp_path, scenario_dir, duration_s=90000)
        streamed = Runner(load_scenario(path), pace=False)
        streamed.run(out_dir=str(tmp_path / "streamed"))
        kept = Runner(load_scenario(path), pace=False).run()
        assert isinstance(kept.historian.log, list)
        kept.export(str(tmp_path / "kept"))
        assert len(streamed.historian.log) == len(kept.historian.log)
        assert len(streamed.artifacts.ems_ticks) == len(kept.ems_ticks)
        for name in ("datapoints.csv", "ems_ticks.csv", "summary.csv"):
            assert (tmp_path / "streamed" / name).read_bytes() \
                == (tmp_path / "kept" / name).read_bytes()
        summary = (tmp_path / "kept" / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == ["0", "1"]

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


# One unpaced run in a fresh process; prints its own peak RSS, read from
# VmHWM (ru_maxrss would carry the parent's peak across fork+exec)
MEMORY_CHILD = """
import json, sys
from spmtwin.runner import Runner
from spmtwin.scenario import load_scenario
scenario = load_scenario(sys.argv[1])
scenario.duration_s = float(sys.argv[2])
runner = Runner(scenario, pace=False)
assert runner.run(out_dir=sys.argv[3]).completed
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh
                  if line.startswith("VmHWM:"))
print(json.dumps({"hwm_kb": hwm_kb, "nodes": len(runner.fabric._nodes),
                  "samples": len(runner.historian.log)}))
"""


@pytest.mark.slow
def test_memory_flat_from_a_week_to_a_month(tmp_path, scenario_path):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def run(days):
        done = subprocess.run(
            [sys.executable, "-c", MEMORY_CHILD, scenario_path,
             str(days * 86400.0), str(tmp_path / f"{days}d")],
            capture_output=True, text=True, env=env, check=True,
            timeout=600)
        return json.loads(done.stdout.splitlines()[-1])

    week, month = run(7), run(30)
    assert month["samples"] > 4 * week["samples"]
    assert abs(month["hwm_kb"] - week["hwm_kb"]) <= 5 * 1024
    assert month["nodes"] == week["nodes"] \
        == len(load_scenario(scenario_path).nodes)


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

    def test_inject_unreachable_historian(self, capsys):
        code = main(["inject", "--url", "http://127.0.0.1:1",
                     "--target", "modbus:cab-a/coil/100", "--value", "false"])
        assert code == 3
