"""Mini SCADA historian.

Polls Modbus registers and broker properties into one sample log, exposes
the datapoint API the EMS consumes (getAll / latest), and issues operator or
EMS commands back to the field. The read and write functions are injected;
the runner binds them to the fabric.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

log = logging.getLogger(__name__)


class HistorianError(Exception):
    pass


class UnknownDatapoint(HistorianError):
    pass


class NoData(HistorianError):
    pass


class CommandFailure(HistorianError):
    """Target unreachable, unwritable, or denied by network policy."""


@dataclass(frozen=True)
class BrokerSource:
    thing: str
    feature: str
    prop: str
    host: str = "broker"


@dataclass(frozen=True)
class ModbusSource:
    host: str
    unit: int
    table: str      # "input" | "holding" | "coil"
    address: int


@dataclass
class Datapoint:
    xid: str
    name: str
    source: BrokerSource | ModbusSource | None   # None: derived
    poll_period_s: float = 10.0
    derive: Callable[["Historian"], float] | None = None
    latest: tuple[float, float] | None = None
    error_count: int = 0

    def append(self, t: float, value: float) -> None:
        if self.latest is not None and t <= self.latest[0]:
            raise HistorianError(
                f"{self.xid}: non-increasing sample timestamp {t}"
            )
        self.latest = (t, value)


class Historian:
    def __init__(
        self,
        read_broker: Callable[[str, str, str], object],
        read_modbus: Callable[[str, int, str, int], int],
        write_broker: Callable[[str, str, str, object], None] | None = None,
        write_modbus_coil: Callable[[str, int, int, bool], None] | None = None,
    ):
        self._read_broker = read_broker
        self._read_modbus = read_modbus
        self._write_broker = write_broker
        self._write_modbus_coil = write_modbus_coil
        self._points: dict[str, Datapoint] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        # the one sample store: (t, xid, value) in poll order, for export
        self.log: list[tuple[float, str, float]] = []

    # ── registration and queries ──────────────────────────────────────

    def register(self, dp: Datapoint) -> Datapoint:
        with self._lock:
            if dp.xid in self._points:
                raise HistorianError(f"duplicate xid {dp.xid!r}")
            self._points[dp.xid] = dp
            self._order.append(dp.xid)
        return dp

    def get_all(self) -> list[dict]:
        with self._lock:
            return [{"name": self._points[x].name, "xid": x} for x in self._order]

    def point(self, xid: str) -> Datapoint:
        try:
            return self._points[xid]
        except KeyError:
            raise UnknownDatapoint(f"unknown xid {xid!r}") from None

    def get_latest(self, xid: str) -> tuple[float, float]:
        latest = self.point(xid).latest
        if latest is None:
            raise NoData(f"{xid!r} has no samples yet")
        return latest

    # ── polling ───────────────────────────────────────────────────────

    def poll(self, dp: Datapoint, now: float) -> tuple[float, float] | None:
        """Acquire one sample; a read failure records a gap, never a value."""
        try:
            if dp.derive is not None:
                raw = dp.derive(self)
            elif isinstance(dp.source, BrokerSource):
                raw = self._read_broker(dp.source.thing, dp.source.feature,
                                        dp.source.prop)
            elif isinstance(dp.source, ModbusSource):
                raw = self._read_modbus(dp.source.host, dp.source.unit,
                                        dp.source.table, dp.source.address)
            else:
                raise HistorianError(f"{dp.xid}: no source configured")
            value = float(raw)
        except Exception as exc:  # gap, never an invented sample
            dp.error_count += 1
            log.warning("poll gap for %s: %s", dp.xid, exc)
            return None
        dp.append(now, value)
        self.log.append((now, dp.xid, value))
        return (now, value)

    def poll_host(self, host: str, now: float) -> int:
        """Poll every point bound to ``host`` (one poller task per host)."""
        n = 0
        for xid in self._order:
            dp = self._points[xid]
            if dp.source is not None and dp.source.host == host:
                if self.poll(dp, now) is not None:
                    n += 1
        return n

    def poll_derived(self, now: float) -> int:
        n = 0
        for xid in self._order:
            dp = self._points[xid]
            if dp.derive is not None and self.poll(dp, now) is not None:
                n += 1
        return n

    # ── commands ──────────────────────────────────────────────────────

    def issue_command(self, target: str, value) -> dict:
        """Write to a broker property (``broker:THING/feature/prop``) or a
        Modbus coil (``modbus:HOST/coil/ADDR``)."""
        try:
            kind, rest = target.split(":", 1)
        except ValueError:
            raise CommandFailure(f"malformed target {target!r}") from None
        try:
            if kind == "broker":
                parts = rest.rsplit("/", 2)
                if len(parts) != 3:
                    raise CommandFailure(f"malformed broker target {target!r}")
                thing, feature, prop = parts
                if self._write_broker is None:
                    raise CommandFailure("no broker write path configured")
                self._write_broker(thing, feature, prop, value)
            elif kind == "modbus":
                parts = rest.split("/")
                if len(parts) != 3 or parts[1] != "coil":
                    raise CommandFailure(f"malformed modbus target {target!r}")
                host, _, addr = parts
                if self._write_modbus_coil is None:
                    raise CommandFailure("no modbus write path configured")
                self._write_modbus_coil(host, 1, int(addr), _as_bool(value))
            else:
                raise CommandFailure(f"unknown target kind {kind!r}")
        except CommandFailure:
            raise
        except Exception as exc:
            raise CommandFailure(f"command to {target!r} failed: {exc}") from exc
        return {"ok": True, "target": target}


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("on", "true", "1"):
            return True
        if lowered in ("off", "false", "0"):
            return False
    raise CommandFailure(f"cannot interpret {value!r} as a coil state")


# ── CSV export ─────────────────────────────────────────────────────────────

DATAPOINTS_HEADER = "timestamp,xid,value"


def format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def export_datapoints_csv(historian: Historian, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(DATAPOINTS_HEADER + "\n")
        for t, xid, value in historian.log:
            fh.write(f"{format_value(t)},{xid},{format_value(value)}\n")


# ── HTTP API ───────────────────────────────────────────────────────────────


class _HistorianHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # buffer each response into one write: headers and body sent in two
    # small writes stall ~40 ms on keep-alive (Nagle vs delayed ACK)
    wbufsize = -1

    def log_message(self, fmt, *args):
        pass

    def _respond(self, status: int, body) -> None:
        raw = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def do_GET(self):
        hist = self.server.historian
        if self.path == "/datapoint/getAll":
            self._respond(200, hist.get_all())
            return
        parts = self.path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "datapoint" and parts[2] == "latest":
            try:
                t, v = hist.get_latest(parts[1])
            except UnknownDatapoint as exc:
                self._respond(404, {"error": str(exc)})
            except NoData as exc:
                self._respond(409, {"error": str(exc)})
            else:
                self._respond(200, {"timestamp": t, "value": v})
            return
        self._respond(404, {"error": "unknown path"})

    def do_POST(self):
        if self.path != "/command":
            self._respond(404, {"error": "unknown path"})
            return
        length = int(self.headers.get("Content-Length", 0))
        try:
            body = json.loads(self.rfile.read(length))
            target, value = body["target"], body["value"]
        except (json.JSONDecodeError, KeyError, TypeError):
            self._respond(400, {"error": "body must be {target, value}"})
            return
        try:
            ack = self.server.command_hook(target, value)
        except CommandFailure as exc:
            self._respond(502, {"error": str(exc)})
            return
        self._respond(200, ack)


class HistorianHttpServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, historian: Historian,
                 command_hook: Callable[[str, object], dict],
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _HistorianHandler)
        self.historian = historian
        # commands run on the simulation thread, through the runner's
        # scheduler and the fabric, never from this server's threads
        self.command_hook = command_hook

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self) -> None:
        threading.Thread(target=self.serve_forever, daemon=True).start()
