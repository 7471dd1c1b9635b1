"""Mini SCADA historian.

Polls Modbus registers and broker properties into one sample log, exposes
the datapoint API the EMS consumes (getAll / latest), and issues operator or
EMS commands back to the field. The transport is injected: a broker read, a
binder that prepares one Modbus point's read, and the two writes; the runner
binds them to the fabric. :meth:`Historian.register` binds each point to its
read once, so a poll makes no choice of source and builds no request.

A poll instant is two passes, one per phase: :meth:`Historian.poll_sourced`
polls every sourced point, host by host in the order the hosts were first
registered and each host's points in registration order, and
:meth:`Historian.poll_derived` then polls the derived points. Each pass, and
:meth:`Historian.poll_host` for one host, calls :meth:`Historian.poll` once
per point.

A command's target is prepared like a point's read:
:meth:`Historian.issue_command` parses it into a writer, a call of the
injected write function with the target's fields bound, and keeps that
writer once a write through it has succeeded, for at most
:data:`MAX_TARGETS` targets. A target repeated, as
the EMS's and an operator's are, is then one lookup and one write; a target
that is malformed, or whose write failed, is parsed again the next time.

Each pass collects the ``(t, xid, value)`` rows of the samples it took and
hands them to the sample log in one ``extend``. In a run, that log is a
:class:`SampleSink`, which formats a pass's ``datapoints.csv`` rows in one
loop into a buffer it writes out once it holds :data:`BUFFER_ROWS` rows, so
memory does not grow with the run's length; a run without an output
directory writes the rows to ``os.devnull``. A historian on its own keeps a
list of ``(t, xid, value)``.

:func:`http_routes` is its HTTP API as a table of routes: ``getAll`` and
``latest`` are read directly, on the run loop's thread, which serves HTTP
between two instants, and a command goes to a hook.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Iterable

log = logging.getLogger(__name__)

# command targets a Historian keeps prepared, at most
MAX_TARGETS = 256


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


class Historian:
    def __init__(
        self,
        read_broker: Callable[[str, str, str], object],
        bind_modbus: Callable[[str, int, str, int], Callable[[], int]],
        write_broker: Callable[[str, str, str, object], None],
        write_modbus_coil: Callable[[str, int, int, bool], None],
    ):
        self._read_broker = read_broker
        # (host, unit, table, address) -> the read of that one point
        self._bind_modbus = bind_modbus
        self._write_broker = write_broker
        self._write_modbus_coil = write_modbus_coil
        self._points: dict[str, Datapoint] = {}
        # command target -> its writer, once a write through it succeeded
        self._writers: dict[str, Callable[[object], None]] = {}
        self._order: list[str] = []
        # the points of each pass in registration order: sourced points by
        # host, hosts in first-registration order, derived points in one list
        self._by_host: dict[str, list[Datapoint]] = {}
        self._derived: list[Datapoint] = []
        # the one sample store, (t, xid, value) in poll order: a list, or,
        # in a run, a SampleSink that writes them as they come
        self.log: list[tuple[float, str, float]] | SampleSink = []

    # ── registration and queries ──────────────────────────────────────

    def register(self, dp: Datapoint) -> Datapoint:
        """Add a point and bind its read: its ``derive``, else a read of its
        broker source, or the read the Modbus binder prepares for its
        source. A run registers every point while it builds, before its
        HTTP server starts, so the registry is fixed while it is read."""
        if dp.xid in self._points:
            raise HistorianError(f"duplicate xid {dp.xid!r}")
        src = dp.source
        if dp.derive is not None:
            dp.read = partial(dp.derive, self)
        elif isinstance(src, BrokerSource):
            dp.read = partial(self._read_broker, src.thing, src.feature,
                              src.prop)
        elif isinstance(src, ModbusSource):
            dp.read = self._bind_modbus(src.host, src.unit, src.table,
                                        src.address)
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
        """Acquire one sample as the point's latest and return it; a read
        failure records a gap, never a value. A point's gap is logged once
        as it opens and once as it closes. A sample no later than the
        point's latest raises :class:`HistorianError`. The pass that calls
        this logs the sample."""
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
        latest = dp.latest
        if latest is not None and now <= latest[0]:
            raise HistorianError(
                f"{dp.xid}: non-increasing sample timestamp {now}")
        dp.latest = sample = (now, value)
        return sample

    def poll_sourced(self, now: float) -> int:
        """Poll every sourced point, in one pass: the hosts in the order
        their first point was registered, each host's points in
        registration order. This is the poll phase of a run."""
        return self._poll_each(chain.from_iterable(self._by_host.values()),
                               now)

    def poll_host(self, host: str, now: float) -> int:
        """Poll every point bound to ``host``, in registration order: the
        part of :meth:`poll_sourced` that is that host's. Walks only that
        host's points, filed by :meth:`register`, never the whole point
        list."""
        return self._poll_each(self._by_host.get(host, ()), now)

    def poll_derived(self, now: float) -> int:
        """Poll every derived point, in registration order, from the derived
        list that :meth:`register` keeps."""
        return self._poll_each(self._derived, now)

    def _poll_each(self, points: Iterable[Datapoint], now: float) -> int:
        """Poll each of ``points`` in turn and write the samples taken to the
        log at once, those taken before a poll that raised too; the number
        of samples taken."""
        poll = self.poll
        rows = []
        try:
            for dp in points:
                sample = poll(dp, now)
                if sample is not None:
                    rows.append((now, dp.xid, sample[1]))
        finally:
            self.log.extend(rows)
        return len(rows)

    # ── commands ──────────────────────────────────────────────────────

    def issue_command(self, target: str, value) -> dict:
        """Write to a broker property (``broker:THING/feature/prop``) or a
        Modbus coil (``modbus:HOST/coil/ADDR``, ADDR in ASCII decimal
        digits), through the target's prepared writer."""
        try:
            write = self._writers.get(target)
            if write is None:
                write = self._writer(target)
                write(value)
                if len(self._writers) < MAX_TARGETS:
                    self._writers[target] = write
            else:
                write(value)
        except CommandFailure:
            raise
        except Exception as exc:
            raise CommandFailure(f"command to {target!r} failed: {exc}") from exc
        return {"ok": True, "target": target}

    def _writer(self, target: str) -> Callable[[object], None]:
        """Parse ``target`` into a call of the injected write function that
        takes the value to write."""
        try:
            kind, rest = target.split(":", 1)
        except ValueError:
            raise CommandFailure(f"malformed target {target!r}") from None
        if kind == "broker":
            parts = rest.rsplit("/", 2)
            if len(parts) != 3:
                raise CommandFailure(f"malformed broker target {target!r}")
            return partial(self._write_broker, *parts)
        if kind == "modbus":
            parts = rest.split("/")
            if (len(parts) != 3 or parts[1] != "coil"
                    or not (parts[2].isascii() and parts[2].isdigit())):
                raise CommandFailure(f"malformed modbus target {target!r}")
            return partial(_write_coil, self._write_modbus_coil, parts[0],
                           int(parts[2]))
        raise CommandFailure(f"unknown target kind {kind!r}")


def _write_coil(write_modbus_coil: Callable[[str, int, int, bool], None],
                host: str, address: int, value) -> None:
    write_modbus_coil(host, 1, address, _as_bool(value))


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
    """``datapoints.csv`` written as samples are polled. A poll pass hands
    its rows over in one :meth:`extend`, which builds their lines in one
    loop. The points of one poll instant come together, so each instant's
    timestamp is formatted once, and most samples repeat their point's last
    value, so each point keeps the text after the timestamp of its last
    value. The buffer is written out when it holds :data:`BUFFER_ROWS` rows
    after an extend, so it never holds more than that plus one pass."""

    header = DATAPOINTS_HEADER
    _t: float | None = None
    _stamp = ""

    def __init__(self, path: str):
        super().__init__(path)
        # xid -> (its last value, ",xid,value\n")
        self._tails: dict[str, tuple[float, str]] = {}

    def append(self, sample: tuple[float, str, float]) -> None:
        self.extend((sample,))

    def extend(self, samples: Iterable[tuple[float, str, float]]) -> None:
        tails = self._tails
        buf = self._buf
        last, stamp = self._t, self._stamp
        for t, xid, value in samples:
            if t != last:
                last, stamp = t, format_value(t)
            tail = tails.get(xid)
            if tail is None or tail[0] != value:
                tail = tails[xid] = (value, f",{xid},{format_value(value)}\n")
            buf.append(stamp + tail[1])
        self._t, self._stamp = last, stamp
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
