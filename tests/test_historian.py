import http.client
import json
import logging
import urllib.error
import urllib.request
from functools import partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spmtwin import historian as historian_mod
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

    def bind_modbus(self, host, unit, table, address):
        return lambda: self.registers[(host, unit, table, address)]

    def write_broker(self, thing, feature, prop, value):
        self.writes.append(("broker", thing, feature, prop, value))
        self.broker[(thing, feature, prop)] = value

    def write_coil(self, host, unit, address, on):
        self.writes.append(("coil", host, address, on))
        self.coils[(host, address)] = on


def make() -> tuple[Historian, FakePlant]:
    plant = FakePlant()
    hist = Historian(read_broker=plant.read_broker,
                     bind_modbus=plant.bind_modbus,
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
        hist.poll_host("broker", 10.0)
        plant.fail_broker = True
        assert hist.poll_host("broker", 20.0) == 0
        plant.fail_broker = False
        hist.poll_host("broker", 30.0)
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
        dp = hist.point("DP_solar_power")
        hist.poll_host("broker", 10.0)
        for t in (10.0, 9.0):
            with pytest.raises(HistorianError,
                               match="non-increasing sample timestamp"):
                hist.poll_host("broker", t)
        assert dp.latest == (10.0, 500.0)
        assert hist.log == [(10.0, "DP_solar_power", 500.0)]

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

    def test_a_pass_logs_the_samples_taken_before_a_poll_raised(self):
        hist, _ = make()
        hist.poll_host("cab-a", 20.0)
        # the broker's point polls at 20 s, then cab-a's raises
        with pytest.raises(HistorianError,
                           match="non-increasing sample timestamp"):
            hist.poll_sourced(20.0)
        assert hist.log == [(20.0, "DP_a_consumption", 1500.0),
                            (20.0, "DP_solar_power", 500.0)]

    @pytest.mark.parametrize("to_file", [False, True],
                             ids=["list", "SampleSink"])
    def test_one_pass_logs_what_a_poll_of_each_host_logs(self, tmp_path,
                                                         to_file):
        def polled(name, poll_instant):
            plant = FakePlant()
            hist = Historian(plant.read_broker, plant.bind_modbus,
                             plant.write_broker, plant.write_coil)
            # hosts interleaved: cab-a, cab-b, cab-a, broker, cab-b
            for i, (host, addr) in enumerate([
                    ("cab-a", 100), ("cab-b", 7), ("cab-a", 101),
                    ("broker", None), ("cab-b", 3)]):
                if host == "broker":
                    source = BrokerSource("FDT:solar-panel-1", "panel",
                                          "power", host=host)
                else:
                    plant.registers[(host, 1, "input", addr)] = 10 * i
                    source = ModbusSource(host, 1, "input", addr)
                hist.register(Datapoint(xid=f"DP_{i}", name="x",
                                        source=source))
            assert hist.hosts == ("cab-a", "cab-b", "broker")
            if to_file:
                hist.log = SampleSink(str(tmp_path / name))
            polls = []
            poll = hist.poll

            def counted(dp, now):
                polls.append(dp.xid)
                return poll(dp, now)

            hist.poll = counted
            for t in (10.0, 20.0):
                assert poll_instant(hist, t) == 5
                plant.registers[("cab-b", 1, "input", 7)] += 1
            # Historian.poll once per point per instant
            assert sorted(polls) == sorted([f"DP_{i}" for i in range(5)] * 2)
            if to_file:
                hist.log.close()
                return (tmp_path / name).read_bytes()
            return hist.log

        one_pass = polled("one-pass.csv", Historian.poll_sourced)
        per_host = polled("per-host.csv", lambda hist, t: sum(
            hist.poll_host(host, t) for host in hist.hosts))
        assert one_pass == per_host
        if not to_file:
            assert [xid for _, xid, _ in one_pass[:5]] == [
                "DP_0", "DP_2", "DP_1", "DP_4", "DP_3"]


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


def parsed_every_time(plant: FakePlant, target, value) -> dict:
    """What issue_command does when it parses ``target`` at each command:
    the oracle for its prepared writers."""
    try:
        kind, rest = target.split(":", 1)
    except ValueError:
        raise CommandFailure(f"malformed target {target!r}") from None
    try:
        if kind == "broker":
            parts = rest.rsplit("/", 2)
            if len(parts) != 3:
                raise CommandFailure(f"malformed broker target {target!r}")
            plant.write_broker(*parts, value)
        elif kind == "modbus":
            parts = rest.split("/")
            if (len(parts) != 3 or parts[1] != "coil"
                    or not (parts[2].isascii() and parts[2].isdigit())):
                raise CommandFailure(f"malformed modbus target {target!r}")
            plant.write_coil(parts[0], 1, int(parts[2]),
                             historian_mod._as_bool(value))
        else:
            raise CommandFailure(f"unknown target kind {kind!r}")
    except CommandFailure:
        raise
    except Exception as exc:
        raise CommandFailure(f"command to {target!r} failed: {exc}") from exc
    return {"ok": True, "target": target}


class FailingPlant(FakePlant):
    """A plant whose writes fail as the runner's can: a broker value that
    is not finite is refused, and a coil address past 0xFFFF cannot be
    encoded."""

    def write_broker(self, thing, feature, prop, value):
        if isinstance(value, float) and value != value:
            raise CommandFailure("broker write failed: 400")
        super().write_broker(thing, feature, prop, value)

    def write_coil(self, host, unit, address, on):
        if address > 0xFFFF:
            raise ValueError(f"address {address} out of range")
        super().write_coil(host, unit, address, on)


def outcome(command, target, value):
    try:
        return command(target, value)
    except CommandFailure as exc:
        return type(exc), str(exc), type(exc.__cause__)


TARGET_PART = st.text(st.sampled_from("ab:/_ +-19\u0661"), max_size=6)
TARGETS = st.one_of(
    st.text(max_size=12),
    st.builds("{}:{}/{}/{}".format,
              st.sampled_from(["broker", "modbus", "ftp", ""]),
              TARGET_PART, st.sampled_from(["coil", "f", TARGET_PART]),
              st.one_of(TARGET_PART, st.integers(0, 70000).map(str))))
VALUES = st.one_of(st.booleans(), st.integers(-2, 2), st.floats(),
                   st.sampled_from(["on", "off", " True ", "1", "maybe"]))


class TestPreparedTargets:
    """issue_command keeps each target's writer once a write through it
    succeeded; every command, cold or repeated, must do what parsing its
    target every time does."""

    @staticmethod
    def historian(plant: FakePlant) -> Historian:
        return Historian(plant.read_broker, plant.bind_modbus,
                         plant.write_broker, plant.write_coil)

    @given(st.lists(TARGETS, min_size=1, max_size=4, unique=True).flatmap(
        lambda targets: st.lists(st.tuples(st.sampled_from(targets), VALUES),
                                 min_size=1, max_size=12)))
    def test_every_command_does_what_parsing_it_does(self, commands):
        plant, oracle_plant = FailingPlant(), FailingPlant()
        hist = self.historian(plant)
        for target, value in commands:
            assert outcome(hist.issue_command, target, value) == outcome(
                partial(parsed_every_time, oracle_plant), target, value)
            assert plant.writes == oracle_plant.writes

    @pytest.fixture
    def parses(self, monkeypatch):
        parsed = []
        writer = Historian._writer

        def counting(hist, target):
            parsed.append(target)
            return writer(hist, target)

        monkeypatch.setattr(Historian, "_writer", counting)
        return parsed

    def test_a_target_is_parsed_once_its_write_succeeded(self, parses):
        hist = self.historian(FailingPlant())
        for _ in range(3):
            hist.issue_command("modbus:cab-a/coil/101", True)
            hist.issue_command("broker:FDT:a/f/p", 1.0)
        assert parses == ["modbus:cab-a/coil/101", "broker:FDT:a/f/p"]

    def test_a_failed_write_is_not_kept(self, parses):
        plant = FailingPlant()
        hist = self.historian(plant)
        for value in (float("nan"), float("nan"), 2.0, 3.0):
            outcome(hist.issue_command, "broker:FDT:a/f/p", value)
        for value in ("maybe", "on", "off"):
            outcome(hist.issue_command, "modbus:cab-a/coil/7", value)
        # parsed until a write succeeded, then kept
        assert parses == ["broker:FDT:a/f/p"] * 3 + ["modbus:cab-a/coil/7"] * 2
        assert [w[-1] for w in plant.writes] == [2.0, 3.0, True, False]

    def test_the_kept_targets_stop_at_their_cap(self, parses, monkeypatch):
        monkeypatch.setattr(historian_mod, "MAX_TARGETS", 3)
        hist = self.historian(FakePlant())
        targets = [f"modbus:cab-a/coil/{n}" for n in range(5)]
        for _ in range(2):
            for target in targets:
                hist.issue_command(target, True)
        # the first three are kept; the others are parsed every time
        assert parses == targets + targets[3:]
        assert len(hist._writers) == 3

    @pytest.mark.parametrize("addr", ["1_01", " 101", "+101", "101 ",
                                      "\u0661\u0660\u0661", "0x65", ""])
    def test_a_coil_address_is_ascii_digits_only(self, parses, addr):
        plant = FakePlant()
        hist = self.historian(plant)
        target = f"modbus:cab-a/coil/{addr}"
        for _ in range(2):
            with pytest.raises(CommandFailure, match="malformed modbus target"):
                hist.issue_command(target, True)
        assert plant.writes == []
        assert parses == [target, target]


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


def sample_rows(n: int, points: int = 7) -> list[tuple[float, str, float]]:
    """``n`` rows of ``points`` points an instant, each point's value held
    for three instants at a time, cycling through 0.0, -0.0, NaN and others."""
    values = [1.5, 0.0, -0.0, float("nan"), 2.25, 1e15, -0.5, 62.667]
    return [(10.0 * (i // points), f"DP_{i % points}",
             values[(i // points // 3 + i % points) % len(values)])
            for i in range(n)]


class TestSinkExtend:
    @pytest.mark.parametrize("split", ["instants", "rows", "all-at-once"])
    def test_extend_writes_what_appending_each_row_writes(self, tmp_path,
                                                          split):
        # past BUFFER_ROWS, so the buffer is written out mid-way
        rows = sample_rows(BUFFER_ROWS + 100)
        if split == "instants":          # one extend per instant, as a pass
            chunks = [[r for r in rows if r[0] == t]
                      for t in sorted({r[0] for r in rows})]
        elif split == "rows":            # chunks across instant changes
            chunks = [rows[i:i + 66] for i in range(0, len(rows), 66)]
        else:
            chunks = [rows]
        extended = SampleSink(str(tmp_path / "extended.csv"))
        for chunk in chunks:
            extended.extend(iter(chunk))
        appended = SampleSink(str(tmp_path / "appended.csv"))
        for row in rows:
            appended.append(row)
        assert len(extended) == len(appended) == len(rows)
        extended.close()
        appended.close()
        written = (tmp_path / "extended.csv").read_bytes()
        assert written == (tmp_path / "appended.csv").read_bytes()
        # the old append's line, row by row
        assert written.decode() == "timestamp,xid,value\n" + "".join(
            f"{format_value(t)},{xid},{format_value(v)}\n"
            for t, xid, v in rows)

    def test_buffer_holds_at_most_buffer_rows_plus_one_pass(self, tmp_path):
        path = tmp_path / "datapoints.csv"
        sink = SampleSink(str(path))
        flushed = []
        flush = sink.flush

        def recording():
            flushed.append(len(sink._buf))
            flush()

        sink.flush = recording
        rows = sample_rows(66 * 200, points=66)     # 200 passes of 66 points
        for i in range(0, len(rows), 66):
            sink.extend(rows[i:i + 66])
            assert len(sink._buf) < BUFFER_ROWS
            assert len(sink) == i + 66
        assert len(flushed) == len(rows) // BUFFER_ROWS == 3
        assert all(BUFFER_ROWS <= n < BUFFER_ROWS + 66 for n in flushed)
        assert path.read_text().count("\n") == 1 + sum(flushed)
        sink.close()
        assert path.read_text().count("\n") == 1 + len(rows)


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
        with err.value:     # the error is the response: close it
            assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            self.get(server, "/datapoint/DP_solar_power/latest")
        with err.value:
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
        with err.value:     # the error is the response: close it
            assert err.value.code == 502

    def test_a_malformed_coil_address_is_502(self, http_server):
        hist, plant = make()
        server = http_server(http_routes(hist, hist.issue_command))
        body = json.dumps({"target": "modbus:cab-a/coil/+101",
                           "value": True}).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/command", data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        with err.value:
            assert err.value.code == 502
            assert "malformed modbus target" in json.load(err.value)["error"]
        assert plant.writes == []
