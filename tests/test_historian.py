import http.client
import json
import logging
import urllib.error
import urllib.request

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spmtwin.historian import (
    BUFFER_ROWS,
    BrokerSource,
    CommandFailure,
    Datapoint,
    Historian,
    HistorianError,
    ModbusSource,
    NoData,
    SampleSink,
    UnknownDatapoint,
    format_value,
    http_routes,
)


class FakePlant:
    """In-memory broker/modbus stand-ins with scriptable failures."""

    def __init__(self):
        self.broker = {("FDT:solar-panel-1", "panel", "power"): 500.0}
        self.registers = {("cab-a", 1, "input", 100): 1500}
        self.coils = {}
        self.fail_broker = False
        self.writes = []

    def read_broker(self, thing, feature, prop):
        if self.fail_broker:
            raise ConnectionError("unreachable")
        return self.broker[(thing, feature, prop)]

    def read_modbus(self, host, unit, table, address):
        return self.registers[(host, unit, table, address)]

    def write_broker(self, thing, feature, prop, value):
        self.writes.append(("broker", thing, feature, prop, value))
        self.broker[(thing, feature, prop)] = value

    def write_coil(self, host, unit, address, on):
        self.writes.append(("coil", host, address, on))
        self.coils[(host, address)] = on


def make() -> tuple[Historian, FakePlant]:
    plant = FakePlant()
    hist = Historian(read_broker=plant.read_broker,
                     read_modbus=plant.read_modbus,
                     write_broker=plant.write_broker,
                     write_modbus_coil=plant.write_coil)
    hist.register(Datapoint(
        xid="DP_solar_power", name="Solar generation (W)",
        source=BrokerSource("FDT:solar-panel-1", "panel", "power",
                            host="broker")))
    hist.register(Datapoint(
        xid="DP_a_consumption", name="Building a consumption (W)",
        source=ModbusSource("cab-a", 1, "input", 100)))
    return hist, plant


class TestRegistryAndQueries:
    def test_get_all_preserves_registration_order(self):
        hist, _ = make()
        assert hist.get_all() == [
            {"name": "Solar generation (W)", "xid": "DP_solar_power"},
            {"name": "Building a consumption (W)", "xid": "DP_a_consumption"},
        ]

    def test_duplicate_xid_rejected(self):
        hist, _ = make()
        with pytest.raises(Exception):
            hist.register(Datapoint(xid="DP_solar_power", name="x", source=None))

    def test_point_without_a_source_rejected(self):
        hist, _ = make()
        with pytest.raises(HistorianError, match="no source"):
            hist.register(Datapoint(xid="DP_none", name="x", source=None))
        assert [p["xid"] for p in hist.get_all()] == [
            "DP_solar_power", "DP_a_consumption"]

    def test_latest_before_any_poll(self):
        hist, _ = make()
        with pytest.raises(NoData):
            hist.get_latest("DP_solar_power")
        with pytest.raises(UnknownDatapoint):
            hist.get_latest("DP_nope")


class TestPolling:
    def test_poll_records_sample(self):
        hist, _ = make()
        hist.poll(hist.point("DP_solar_power"), 10.0)
        assert hist.get_latest("DP_solar_power") == (10.0, 500.0)

    def test_failed_poll_records_gap_not_value(self):
        hist, plant = make()
        hist.poll(hist.point("DP_solar_power"), 10.0)
        plant.fail_broker = True
        assert hist.poll(hist.point("DP_solar_power"), 20.0) is None
        plant.fail_broker = False
        hist.poll(hist.point("DP_solar_power"), 30.0)
        assert [t for t, xid, _ in hist.log
                if xid == "DP_solar_power"] == [10.0, 30.0]
        assert hist.get_latest("DP_solar_power") == (30.0, 500.0)
        assert hist.point("DP_solar_power").error_count == 1

    def test_gap_is_logged_as_it_opens_and_closes(self, caplog):
        caplog.set_level(logging.INFO, logger="spmtwin.historian")
        hist, plant = make()
        dp = hist.point("DP_solar_power")
        plant.fail_broker = True
        for t in range(1, 101):
            assert hist.poll(dp, float(t)) is None
        plant.fail_broker = False
        assert hist.poll(dp, 101.0) == (101.0, 500.0)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, "poll gap for DP_solar_power: unreachable"),
            (logging.INFO, "poll of DP_solar_power back after 100 failed polls"),
        ]
        assert dp.error_count == 100
        assert dp.gap_polls == 0

    def test_poll_host_selects_by_host(self):
        hist, _ = make()
        assert hist.poll_host("cab-a", 10.0) == 1
        assert hist.log == [(10.0, "DP_a_consumption", 1500.0)]
        with pytest.raises(NoData):
            hist.get_latest("DP_solar_power")

    def test_derived_point_uses_other_points(self):
        hist, _ = make()
        hist.register(Datapoint(
            xid="DP_campus_kw", name="Campus consumption (kW)", source=None,
            derive=lambda h: h.get_latest("DP_a_consumption")[1] / 1000.0))
        hist.poll_host("cab-a", 10.0)
        hist.poll_derived(10.0)
        assert hist.get_latest("DP_campus_kw") == (10.0, 1.5)

    def test_derived_gap_when_inputs_missing(self):
        hist, _ = make()
        hist.register(Datapoint(
            xid="DP_campus_kw", name="x", source=None,
            derive=lambda h: h.get_latest("DP_a_consumption")[1]))
        assert hist.poll_derived(10.0) == 0

    def test_timestamps_must_increase(self):
        hist, _ = make()
        hist.poll(hist.point("DP_solar_power"), 10.0)
        dp = hist.point("DP_solar_power")
        with pytest.raises(Exception):
            dp.append(10.0, 1.0)

    def test_poll_host_logs_its_points_in_registration_order(self):
        hist, plant = make()
        # hosts interleaved: cab-a, cab-b, cab-a, broker, cab-b
        for i, (host, addr) in enumerate([("cab-b", 7), ("cab-a", 101),
                                          ("cab-b", 3)]):
            plant.registers[(host, 1, "input", addr)] = 10 * i
            hist.register(Datapoint(xid=f"DP_{host}_{addr}", name="x",
                                    source=ModbusSource(host, 1, "input", addr)))
        assert hist.poll_host("cab-b", 10.0) == 2
        assert hist.poll_host("cab-a", 10.0) == 2
        assert hist.poll_host("nobody", 10.0) == 0
        assert hist.log == [
            (10.0, "DP_cab-b_7", 0.0), (10.0, "DP_cab-b_3", 20.0),
            (10.0, "DP_a_consumption", 1500.0), (10.0, "DP_cab-a_101", 10.0),
        ]

    def test_point_registered_after_polling_is_polled_next(self):
        hist, plant = make()
        hist.poll_host("cab-a", 10.0)
        hist.poll_derived(10.0)
        plant.registers[("cab-a", 1, "input", 101)] = 7
        hist.register(Datapoint(xid="DP_late", name="x",
                                source=ModbusSource("cab-a", 1, "input", 101)))
        hist.register(Datapoint(xid="DP_late_kw", name="x", source=None,
                                derive=lambda h: h.get_latest("DP_late")[1]))
        assert hist.poll_host("cab-a", 20.0) == 2
        assert hist.poll_derived(20.0) == 1
        assert hist.log[-3:] == [(20.0, "DP_a_consumption", 1500.0),
                                 (20.0, "DP_late", 7.0),
                                 (20.0, "DP_late_kw", 7.0)]


class TestCommands:
    def test_broker_command(self):
        hist, plant = make()
        ack = hist.issue_command(
            "broker:FDT:energy-store-1/battery-pack/mode", "charge")
        assert ack["ok"]
        assert plant.writes == [
            ("broker", "FDT:energy-store-1", "battery-pack", "mode", "charge")]

    def test_modbus_coil_command(self):
        hist, plant = make()
        hist.issue_command("modbus:cab-a/coil/100", False)
        assert plant.coils[("cab-a", 100)] is False

    def test_coil_value_coercion(self):
        hist, plant = make()
        hist.issue_command("modbus:cab-a/coil/101", "on")
        hist.issue_command("modbus:cab-a/coil/101", "false")
        assert [w[-1] for w in plant.writes] == [True, False]

    @pytest.mark.parametrize("target", [
        "nowhere", "broker:onlything", "modbus:cab-a/register/5",
        "ftp:cab-a/coil/5",
    ])
    def test_malformed_targets(self, target):
        hist, _ = make()
        with pytest.raises(CommandFailure):
            hist.issue_command(target, 1)

    def test_transport_failure_wrapped(self):
        hist, plant = make()

        def boom(*args):
            raise ConnectionError("down")

        hist._write_broker = boom
        with pytest.raises(CommandFailure):
            hist.issue_command("broker:FDT:a/f/p", 1)


class TestExport:
    def test_csv_layout_and_formatting(self, tmp_path):
        hist, _ = make()
        hist.poll_host("broker", 10.0)
        hist.poll_host("cab-a", 10.0)
        path = tmp_path / "datapoints.csv"
        sink = SampleSink(str(path))
        for sample in hist.log:
            sink.append(sample)
        sink.close()
        assert path.read_text() == (
            "timestamp,xid,value\n"
            "10,DP_solar_power,500\n"
            "10,DP_a_consumption,1500\n"
        )

    def test_format_value_round_trips_floats(self):
        assert format_value(10.0) == "10"
        assert format_value(0.1 + 0.2) == repr(0.1 + 0.2)
        assert float(format_value(62.667)) == 62.667

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(1e15)
    @example(-1e15)
    @example(1e15 - 1)
    @example(-(1e15 - 1))
    @example(-0.5)
    @example(5e-324)
    def test_format_value_matches_the_int_conversion(self, value):
        # the definition it replaced, which every committed artifact used
        if value == int(value) and abs(value) < 1e15:
            expected = str(int(value))
        else:
            expected = repr(value)
        assert format_value(value) == expected

    def test_sink_writes_each_repeated_value_as_formatted(self, tmp_path):
        # a point's last value is reused: equal values (0.0 and -0.0 too)
        # give the same text, a NaN never equals the last one
        nan = float("nan")
        samples = [(10.0, "a", 1.5), (10.0, "b", 0.0), (20.0, "a", 1.5),
                   (20.0, "b", -0.0), (30.0, "a", 2.25), (30.0, "b", nan),
                   (40.0, "b", nan), (40.0, "a", 1.5), (50.0, "b", 0.0)]
        path = tmp_path / "datapoints.csv"
        sink = SampleSink(str(path))
        for sample in samples:
            sink.append(sample)
        sink.close()
        assert path.read_text() == "timestamp,xid,value\n" + "".join(
            f"{format_value(t)},{xid},{format_value(v)}\n"
            for t, xid, v in samples)

    def test_sink_counts_and_writes_rows_past_its_buffer(self, tmp_path):
        path = tmp_path / "datapoints.csv"
        sink = SampleSink(str(path))
        samples = [(float(i // 3), f"DP_{i % 3}", i / 4) for i in
                   range(2 * BUFFER_ROWS + 5)]
        for i, sample in enumerate(samples):
            sink.append(sample)
            assert len(sink) == i + 1
        sink.close()
        sink.close()
        assert len(sink) == len(samples)
        lines = path.read_text().splitlines()
        assert lines[0] == "timestamp,xid,value"
        assert lines[1:] == [f"{format_value(t)},{xid},{format_value(v)}"
                             for t, xid, v in samples]


class TestHttpApi:
    @pytest.fixture
    def make_server(self, http_server):
        def start(hook=None):
            hist, plant = make()
            return hist, plant, http_server(http_routes(hist, hook))
        return start

    def get(self, server, path):
        return urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}{path}")

    def test_get_all_and_latest(self, make_server):
        hist, _, server = make_server()
        hist.poll_host("broker", 10.0)
        with self.get(server, "/datapoint/getAll") as resp:
            assert [d["xid"] for d in json.load(resp)] == [
                "DP_solar_power", "DP_a_consumption"]
        with self.get(server, "/datapoint/DP_solar_power/latest") as resp:
            assert json.load(resp) == {"timestamp": 10.0, "value": 500.0}

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400(self, make_server,
                                             bad_length_reply, length):
        hook_calls = []
        _, _, server = make_server(
            hook=lambda target, value: hook_calls.append(target))
        status, body = bad_length_reply(server.port, "POST", "/command",
                                        length)
        assert status == 400
        assert "Content-Length" in body["error"]
        assert hook_calls == []

    def test_post_to_unknown_path_consumes_its_body(self, make_server):
        hist, _, server = make_server()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=2)
        try:
            hist.poll_host("broker", 10.0)
            # on one keep-alive connection, a body left unread would be
            # parsed as the next request
            conn.request("POST", "/nope", body=b"GET /x HTTP/1.1\r\n\r\n")
            resp = conn.getresponse()
            assert (resp.status, json.loads(resp.read())) \
                == (404, {"error": "unknown path"})
            conn.request("GET", "/datapoint/DP_solar_power/latest")
            resp = conn.getresponse()
            assert (resp.status, json.loads(resp.read())) \
                == (200, {"timestamp": 10.0, "value": 500.0})
        finally:
            conn.close()

    def test_get_with_a_body_keeps_the_connection_in_step(self, make_server):
        hist, _, server = make_server()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=2)
        try:
            hist.poll_host("broker", 10.0)
            conn.request("GET", "/datapoint/getAll",
                         body=b"GET /nope HTTP/1.1\r\n\r\n")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
            conn.request("GET", "/datapoint/DP_solar_power/latest")
            resp = conn.getresponse()
            assert (resp.status, json.loads(resp.read())) \
                == (200, {"timestamp": 10.0, "value": 500.0})
        finally:
            conn.close()

    def test_latest_error_codes(self, make_server):
        _, _, server = make_server()
        with pytest.raises(urllib.error.HTTPError) as err:
            self.get(server, "/datapoint/DP_nope/latest")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            self.get(server, "/datapoint/DP_solar_power/latest")
        assert err.value.code == 409

    def test_command_endpoint_and_hook(self, make_server):
        calls = []

        def hook(target, value):
            calls.append((target, value))
            return {"ok": True, "target": target}

        _, _, server = make_server(hook=hook)
        body = json.dumps({"target": "modbus:cab-a/coil/100",
                           "value": False}).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/command", data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(req) as resp:
            assert json.load(resp)["ok"]
        assert calls == [("modbus:cab-a/coil/100", False)]

    def test_keepalive_responses_do_not_stall(self, make_server,
                                              keepalive_median_ms):
        hist, _, server = make_server(hook=lambda target, value: {"ok": True})
        hist.poll_host("broker", 10.0)
        body = json.dumps({"target": "modbus:cab-a/coil/100", "value": False})
        assert keepalive_median_ms(server.port, "GET", "/datapoint/getAll") < 10
        assert keepalive_median_ms(server.port, "POST", "/command", body) < 10

    def test_command_failure_maps_to_502(self, make_server):
        def hook(target, value):
            raise CommandFailure("blocked")

        _, _, server = make_server(hook=hook)
        body = json.dumps({"target": "x:y", "value": 1}).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/command", data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 502
