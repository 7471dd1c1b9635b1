"""Mini SCADA historian.

Polls Modbus registers and broker properties into one sample log, exposes
the datapoint API the EMS consumes (getAll / latest), and issues operator or
EMS commands back to the field. The read and write functions are injected;
the runner binds them to the fabric, and :meth:`Historian.register` binds
each point to its read once, so a poll makes no choice of source.

In a run, the sample log is a :class:`SampleSink` that writes each sample's
``datapoints.csv`` row as it is polled, through a buffer of
:data:`BUFFER_ROWS` rows, so memory does not grow with the run's length; a
run without an output directory writes the rows to ``os.devnull``. A
historian on its own keeps a list of ``(t, xid, value)``.

:func:`http_routes` is its HTTP API as a table of routes: ``getAll`` and
``latest`` are read directly, on the thread that serves HTTP, and a command
goes to a hook.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import partial
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
    derive: Callable[["Historian"], float] | None = None
    latest: tuple[float, float] | None = None
    error_count: int = 0
    gap_polls: int = 0          # failed polls since the last good one
    # the point's source read, bound by Historian.register
    read: Callable[[], object] | None = field(default=None, repr=False)

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
        write_broker: Callable[[str, str, str, object], None],
        write_modbus_coil: Callable[[str, int, int, bool], None],
    ):
        self._read_broker = read_broker
        self._read_modbus = read_modbus
        self._write_broker = write_broker
        self._write_modbus_coil = write_modbus_coil
        self._points: dict[str, Datapoint] = {}
        self._order: list[str] = []
        # each poller's points in registration order, so a poll walks only
        # its own: sourced points by host, derived points in one list
        self._by_host: dict[str, list[Datapoint]] = {}
        self._derived: list[Datapoint] = []
        # the one sample store, (t, xid, value) in poll order: a list, or,
        # in a run, a SampleSink that writes them as they come
        self.log: list[tuple[float, str, float]] | SampleSink = []

    # ── registration and queries ──────────────────────────────────────

    def register(self, dp: Datapoint) -> Datapoint:
        """Add a point and bind its read: its ``derive``, else a read of its
        broker or Modbus source. A run registers every point while it
        builds, before its HTTP server starts, so the registry is fixed
        while it is read."""
        if dp.xid in self._points:
            raise HistorianError(f"duplicate xid {dp.xid!r}")
        src = dp.source
        if dp.derive is not None:
            dp.read = partial(dp.derive, self)
        elif isinstance(src, BrokerSource):
            dp.read = partial(self._read_broker, src.thing, src.feature,
                              src.prop)
        elif isinstance(src, ModbusSource):
            dp.read = partial(self._read_modbus, src.host, src.unit,
                              src.table, src.address)
        else:
            raise HistorianError(f"{dp.xid}: no source configured")
        self._points[dp.xid] = dp
        self._order.append(dp.xid)
        if dp.source is not None:
            self._by_host.setdefault(dp.source.host, []).append(dp)
        if dp.derive is not None:
            self._derived.append(dp)
        return dp

    @property
    def hosts(self) -> tuple[str, ...]:
        """Each sourced point's host once, in :meth:`register` order."""
        return tuple(self._by_host)

    def get_all(self) -> list[dict]:
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
        """Acquire one sample; a read failure records a gap, never a value.
        A point's gap is logged once as it opens and once as it closes."""
        try:
            value = float(dp.read())
        except Exception as exc:  # gap, never an invented sample
            dp.error_count += 1
            if not dp.gap_polls:
                log.warning("poll gap for %s: %s", dp.xid, exc)
            dp.gap_polls += 1
            return None
        if dp.gap_polls:
            log.info("poll of %s back after %d failed polls", dp.xid,
                     dp.gap_polls)
            dp.gap_polls = 0
        dp.append(now, value)
        self.log.append((now, dp.xid, value))
        return (now, value)

    def poll_host(self, host: str, now: float) -> int:
        """Poll every point bound to ``host`` (one poller task per host), in
        registration order. Walks only that host's points, filed by
        :meth:`register`, never the whole point list."""
        n = 0
        for dp in self._by_host.get(host, ()):
            if self.poll(dp, now) is not None:
                n += 1
        return n

    def poll_derived(self, now: float) -> int:
        """Poll every derived point, in registration order, from the derived
        list that :meth:`register` keeps."""
        n = 0
        for dp in self._derived:
            if self.poll(dp, now) is not None:
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
                self._write_broker(thing, feature, prop, value)
            elif kind == "modbus":
                parts = rest.split("/")
                if len(parts) != 3 or parts[1] != "coil":
                    raise CommandFailure(f"malformed modbus target {target!r}")
                host, _, addr = parts
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

# rows a CsvSink holds before it writes them to its file
BUFFER_ROWS = 4096


def format_value(value: float) -> str:
    """A finite float as CSV text: a whole number below 1e15 in magnitude
    as an integer, any other as its shortest round-trip repr."""
    if value % 1.0 == 0.0 and -1e15 < value < 1e15:
        return "%d" % value
    return repr(value)


class CsvSink:
    """A CSV file written as its rows come. :meth:`append` turns a row into
    its :meth:`line` in a buffer that is written out every
    :data:`BUFFER_ROWS` rows and by :meth:`close`; ``len()`` counts the rows
    appended. So a sink stands in for a list of rows."""

    header = ""

    def __init__(self, path: str):
        self._fh = open(path, "w", newline="")
        self._fh.write(self.header + "\n")
        self._buf: list[str] = []
        self._written = 0

    def line(self, row) -> str:
        """The row as one CSV line, newline included."""
        raise NotImplementedError

    def append(self, row) -> None:
        buf = self._buf
        buf.append(self.line(row))
        if len(buf) >= BUFFER_ROWS:
            self.flush()

    def __len__(self) -> int:
        return self._written + len(self._buf)

    def flush(self) -> None:
        self._fh.write("".join(self._buf))
        self._written += len(self._buf)
        self._buf.clear()

    def close(self) -> None:
        if not self._fh.closed:
            self.flush()
            self._fh.close()


class SampleSink(CsvSink):
    """``datapoints.csv`` written as samples are polled. The points of one
    poll instant come together, so each instant's timestamp is formatted
    once, and most samples repeat their point's last value, so each point
    keeps the text after the timestamp of its last value. It builds each
    line in :meth:`append` itself: one call less per sample on the poll
    path."""

    header = DATAPOINTS_HEADER
    _t: float | None = None
    _stamp = ""

    def __init__(self, path: str):
        super().__init__(path)
        # xid -> (its last value, ",xid,value\n")
        self._tails: dict[str, tuple[float, str]] = {}

    def append(self, sample: tuple[float, str, float]) -> None:
        t, xid, value = sample
        if t != self._t:
            self._t, self._stamp = t, format_value(t)
        tail = self._tails.get(xid)
        if tail is None or tail[0] != value:
            tail = self._tails[xid] = (value, f",{xid},{format_value(value)}\n")
        buf = self._buf
        buf.append(self._stamp + tail[1])
        if len(buf) >= BUFFER_ROWS:
            self.flush()


# ── HTTP API ───────────────────────────────────────────────────────────────


def http_routes(historian: Historian,
                command_hook: Callable[[str, object], dict]
                ) -> dict[str, Callable[[str, bytes], tuple[int, object]]]:
    """The datapoint API and ``POST /command`` as routes by method, for a
    ``JsonHttpServer``. In a run, ``command_hook`` makes each command
    between two instants, on the run loop's thread, through the fabric."""

    def get(path: str, _raw: bytes) -> tuple[int, object]:
        if path == "/datapoint/getAll":
            return 200, historian.get_all()
        parts = path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "datapoint" and parts[2] == "latest":
            try:
                t, v = historian.get_latest(parts[1])
            except UnknownDatapoint as exc:
                return 404, {"error": str(exc)}
            except NoData as exc:
                return 409, {"error": str(exc)}
            return 200, {"timestamp": t, "value": v}
        return 404, {"error": "unknown path"}

    def post(path: str, raw: bytes) -> tuple[int, object]:
        if path != "/command":
            return 404, {"error": "unknown path"}
        try:
            body = json.loads(raw)
            target, value = body["target"], body["value"]
        except (ValueError, KeyError, TypeError):  # ValueError: not JSON
            return 400, {"error": "body must be {target, value}"}
        try:
            return 200, command_hook(target, value)
        except CommandFailure as exc:
            return 502, {"error": str(exc)}

    return {"GET": get, "POST": post}
