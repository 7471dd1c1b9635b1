"""Accelerated scenario runner.

Drives every module from a single simulated clock using a deterministic
discrete-event scheduler: events are ordered by (sim time, phase, sequence)
so that identical seeds and scenarios yield byte-identical artifacts, at any
clock scale. Pacing only waits to honor the real-to-simulated ratio; it
never influences results.

At each instant boundary, where the next event's time differs from the
last one popped, the loop serves HTTP: unpaced, what is ready, at most once
per millisecond of wall time; paced, until the next event is due, asleep in
the front ends' selector, so an operator's command is made as it arrives,
not after the next paced event. It peeks at the next event rather than
popping it: a coil write served there schedules a PLC scan at the next scan
instant, which can come before the event it would have popped.

Periodic tasks run as one event per ``(period, phase)`` group, which runs its
members in registration order, and PLC scans as one event per scan instant,
which scans buildings in the order their scans were asked for. That is the
order one event per task gave, because tasks of one period re-arm together
and so always ran contiguously, in registration order, at each
``(t, phase)`` they shared. A group re-arms itself with one heap push; its
sequence number comes from the one counter :meth:`Runner._schedule` draws
from, so the ``(t, phase, seq)`` order is that of a push through
``_schedule``. Each popped event calls ``advance_to`` on the runner's clock
object, so a wrapper set on that instance before the run sees every event.

Cabinet sampling and PLC scanning are change-driven. A cabinet's inputs are
its building's client loads, which change only at a spawn, a retire or a trip
change, and its master coil, which changes only by a Modbus write. Each of
these marks the building, and every building starts marked. The cabinet
phase has one member per sample period, which walks that period's buildings
in registration order and samples only the marked ones, unmarking each; a
building that is not marked has not moved, so its sample would write the
consumption its register already holds. A sample asks for a PLC scan only if
it wrote a consumption other than the one the building's last scan read.
Skipping is exact: a scan of unchanged inputs gives the trip coil it already
holds (``coil or cons > maxcons`` twice is ``coil`` once), ``on_trip``/
``on_reset`` fire only on a change of that coil, and every other change of a
cabinet's registers, a Modbus coil or register write, asks for its own scan.
The loads are summed in the same order either way, so the artifacts are the
same bytes as with a sample and a scan every period.

A cabinet's fabric endpoint is :func:`spmtwin.modbus.serve_frame_bytes`
with its register file bound, and the register file's ``on_write`` hook
marks the building and asks for a scan. The hook fires only when a served
write changes a stored value: a write of the value already held leaves the
cabinet as it was, already sampled and scanned or with both due.

One thread owns the plant: the thread that calls :meth:`Runner.run` is the
only one that touches the fabric, the devices, the register files and the
historian's registry, and a run starts no other thread. None of these takes
a lock; only the broker's writes take one, for callers on other threads.
The loop serves the HTTP servers, two ``JsonHttpServer``s over the broker's
and the historian's route tables, between two instants, never between two
phases of one instant. The routes that change the plant make fabric
deliveries from the management node: :meth:`Runner.inject` for
operator commands to the historian, :meth:`Runner.serve_broker_request` for
requests to the broker. Each makes its delivery at once and returns the
reply, so a request is made on the loop's thread while it is served, with
no queue in between. The historian's ``GET`` routes read its latest samples
on that thread too, but past the fabric.

Every run writes each sample and EMS tick as it comes, through the sinks
:meth:`RunArtifacts.open_sinks` opens once the servers listen (a run that
cannot start, or cannot write its ``out_dir``, is a :class:`StartupError`
and leaves no sink open): ``datapoints.csv`` and ``ems_ticks.csv`` in
``out_dir``, or ``os.devnull`` without one. ``summary.csv``'s per-day sums
are added up tick by tick, so memory does not grow with the run's length.
:meth:`Runner.run` ends in one ``finally`` that stops the servers and then
has :meth:`RunArtifacts.export` close the sinks and write ``summary.csv``,
whether the run is done, aborted by a failed task or interrupted.

Each Modbus point the historian polls is bound to its read once, when it is
registered (:meth:`Runner._bind_modbus`): its request bytes, and the 9-byte
header a reply to it starts with when it carries the one register asked
for. Every poll sends those bytes through the fabric, and a reply of 11
bytes that starts with that header is read from its last two bytes; any
other reply is decoded and parsed in full, exceptions included. A single-coil
write is done when its reply echoes the request, as the specification says a
successful one does; any other reply is decoded and checked. Its bytes are
kept once a device has echoed them, so a command repeated on a coil, like a
poll, sends bytes the device has prepared (see :mod:`spmtwin.modbus`).

The rest of a repeated delivery is prepared too. The historian parses a
command's target once into a writer bound to its fields (see
:mod:`spmtwin.historian`), the fabric keeps each allowed route to its
handler (see :mod:`spmtwin.netfabric`), and a broker request crosses the
fabric as a :class:`~spmtwin.broker.BrokerRequest` tuple, which the broker
unpacks once.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import os
import time
from dataclasses import dataclass, field
from datetime import timedelta
from functools import partial
from typing import Callable, NamedTuple

from . import ems as ems_mod
from . import modbus, netfabric, occupancy, rng
from .broker import Broker, BrokerRequest, ChangeEvent, http_routes as broker_routes
from .devices import (
    CONSUMPTION_REGISTER,
    SmartCabinet,
    SolarController,
    StorageController,
    TripPlc,
    TurbineController,
    CommandError,
)
from .historian import (
    BrokerSource,
    CommandFailure,
    CsvSink,
    Datapoint,
    Historian,
    HistorianError,
    ModbusSource,
    NoData,
    SampleSink,
    format_value,
    http_routes as historian_routes,
)
from .httpapi import FrontEnds, JsonHttpServer
from .scenario import (
    TURNOUT_THING,
    CallbackThingSpec,
    InterpolationThingSpec,
    Scenario,
)
from .simcore import (
    InterpolationTable,
    SimClock,
    load_radiance_csv,
    year_seconds,
)

log = logging.getLogger(__name__)

# same-timestamp execution phases: physical/human first, then devices,
# then acquisition, then control
PHASE_OCCUPANCY = 0
PHASE_CABINET = 1
PHASE_PLC = 2
PHASE_CONTROLLER = 3
PHASE_POLL = 4
PHASE_DERIVED = 5
PHASE_EMS = 6

READ_FUNCTIONS = {"input": modbus.READ_INPUT, "holding": modbus.READ_HOLDING,
                  "coil": modbus.READ_COILS}

# summary.csv's per-day sums, each of an EmsTickRecord field times the hours
# one record covers
SUMMARY_SUMS = (("solar_kwh", "solar_kw"), ("storage_charge_kwh", "charge_kw"),
                ("storage_discharge_kwh", "discharge_kw"),
                ("turbine_kwh", "turbine_kw"),
                ("grid_import_kwh", "grid_import_kw"),
                ("dissipated_kwh", "dissipated_kw"),
                ("consumption_kwh", "consumption_kw"))
SUMMARY_HEADER = ",".join(["day"] + [name for name, _ in SUMMARY_SUMS])
# why an EMS tick was skipped: its measurements were too old, the historian
# had none, or the firewall refused the EMS's read
EMS_SKIP_REASONS = ("stale", "no data", "blocked")


class RunAbort(Exception):
    """A task failed mid-run; partial artifacts were preserved."""


class StartupError(Exception):
    """A service could not start (e.g. port conflict)."""


class EmsTickRecord(NamedTuple):
    """One row of ``ems_ticks.csv``: its fields are the columns, in order."""

    timestamp: float
    solar_kw: float
    consumption_kw: float
    storage_level_pct: float
    turbine_kw: float
    storage_mode: str
    turbine_command: str
    charge_kw: float
    discharge_kw: float
    grid_import_kw: float
    dissipated_kw: float


class EmsTickSink(CsvSink):
    """``ems_ticks.csv`` written as the EMS ticks are accounted."""

    header = ",".join(EmsTickRecord._fields)

    def line(self, rec: EmsTickRecord) -> str:
        return ",".join([v if isinstance(v, str) else format_value(v)
                         for v in rec]) + "\n"


@dataclass
class RunArtifacts:
    """A run's outputs. From :meth:`open_sinks` on, the sample log and the
    EMS tick records are written to their CSV sinks as they come, and
    summary.csv's per-day sums are added up as the ticks come.
    :meth:`export` finishes the files."""

    historian: Historian
    tick_hours: float                 # the EMS timer period one record covers
    ems_ticks: EmsTickSink | None = None      # set by open_sinks
    blocked_count: int = 0
    # skipped EMS ticks per EMS_SKIP_REASONS entry
    skipped_by_reason: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(EMS_SKIP_REASONS, 0))
    publish_errors: int = 0
    completed: bool = False
    # day -> running sums, in SUMMARY_SUMS order
    day_sums: dict[int, list[float]] = field(default_factory=dict)

    @property
    def skipped_ems_ticks(self) -> int:
        return sum(self.skipped_by_reason.values())

    def open_sinks(self, out_dir: str | None) -> None:
        """Write datapoints.csv and ems_ticks.csv rows as they come: to
        ``out_dir``, or to ``os.devnull`` without one. Raises ``OSError``
        with neither sink left open."""
        dp_path = ems_path = os.devnull
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            dp_path = os.path.join(out_dir, "datapoints.csv")
            ems_path = os.path.join(out_dir, "ems_ticks.csv")
        samples = SampleSink(dp_path)
        try:
            self.ems_ticks = EmsTickSink(ems_path)
        except OSError:
            samples.close()
            raise
        self.historian.log = samples

    def add_tick(self, rec: EmsTickRecord) -> None:
        self.ems_ticks.append(rec)
        sums = self.day_sums.setdefault(int(rec.timestamp // 86400),
                                        [0.0] * len(SUMMARY_SUMS))
        hours = self.tick_hours
        for i, (_, attr) in enumerate(SUMMARY_SUMS):
            sums[i] += getattr(rec, attr) * hours

    def export(self, out_dir: str | None) -> None:
        """Close the sinks :meth:`open_sinks` opened and, with ``out_dir``,
        write summary.csv there."""
        self.historian.log.close()
        self.ems_ticks.close()
        if not out_dir:
            return
        with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
            fh.write(SUMMARY_HEADER + "\n")
            for day, sums in sorted(self.day_sums.items()):
                fh.write(",".join([str(day)] + [format_value(v) for v in sums])
                         + "\n")


def read_data_files(s: Scenario) -> tuple[dict[str, InterpolationTable],
                                          list[tuple[float, float]]]:
    """The rows a run of ``s`` reads from its data files: each interpolation
    thing's radiance table by thing name, and the turnout schedule's
    anchors. A bad row raises ``ConfigurationError`` naming ``path:line``."""
    radiance = {
        spec.name: load_radiance_csv(s.path(spec.source_csv), mode=spec.mode)
        for spec in s.things if isinstance(spec, InterpolationThingSpec)}
    return radiance, occupancy.load_schedule_csv(s.path(s.turnout.schedule_csv))


class Runner:
    """Owns the clock, the fabric, and every service of one scenario run."""

    def __init__(self, scenario: Scenario, pace: bool = True):
        self.scenario = scenario
        self.pace = pace
        self.clock = SimClock(scale=scenario.clock_scale)
        self.rng = rng.Generator(scenario.seed)
        self.fabric = netfabric.Fabric(scenario.policy)
        self._heap: list = []
        # the third key of every event: its order among events of one
        # (t, phase)
        self._seqs = itertools.count(1)
        self._closed = False          # set once the run ends
        # monotonic time the loop started at, and of the next unpaced serve
        self._wall_start = self._next_serve = 0.0
        self._servers: list = []
        self._front_ends: FrontEnds | None = None    # while the servers listen
        # (unit, table, address) -> (request bytes, the reply header of a
        # register read; None for a coil): one encoding for every point that
        # reads that register, whatever its host
        self._read_requests: dict[tuple[int, str, int],
                                  tuple[bytes, bytes | None]] = {}
        # (unit, address, on) -> the bytes of a coil write a device has
        # echoed
        self._coil_requests: dict[tuple[int, int, bool], bytes] = {}
        self._build()

    # ── construction ──────────────────────────────────────────────────

    def _build(self) -> None:
        s = self.scenario
        for node in s.nodes:
            self.fabric.attach(node.id, node.segment)
        # operator traffic comes from the management node, else the EMS's
        self._mgmt_node = next(
            (n.id for n in s.nodes if n.segment == "management"), s.ems.node)

        self.broker = Broker(time_fn=self.clock.now)
        self.fabric.register_handler(
            s.broker_node, "http", self.broker.handle_request)

        start = s.start_time
        year_offset = (
            start - start.replace(month=1, day=1, hour=0, minute=0, second=0)
        ).total_seconds()
        year_len = year_seconds(start.year)
        # hours into the week (0 = Monday 00:00) at the start, for turnout
        monday = (start - timedelta(days=start.weekday())).replace(
            hour=0, minute=0, second=0, microsecond=0)
        self._week_offset_h = (start - monday).total_seconds() / 3600.0

        # things -> physical models and broker entries
        self.solar: dict[str, SolarController] = {}
        self.storage: dict[str, StorageController] = {}
        self.turbine: dict[str, TurbineController] = {}
        specs = {t.name: t for t in s.things}
        self._features = {name: spec.feature for name, spec in specs.items()}
        # read before any callback thing, wherever the file lists them
        radiance_tables, schedule = read_data_files(s)
        self._charge_kw = self._discharge_kw = 0.0
        for spec in s.things:
            if isinstance(spec, InterpolationThingSpec):
                self.broker.create_thing(spec.name, {spec.feature: {spec.prop: 0.0}})
            elif isinstance(spec, CallbackThingSpec):
                self.solar[spec.name] = SolarController(
                    radiance_tables[spec.source_thing], spec.callback_name,
                    spec.surface_m2, spec.efficiency,
                    year_offset_s=year_offset, year_len_s=year_len)
                self.broker.create_thing(spec.name, {spec.feature: {spec.prop: 0.0}})
            else:
                # validation built this controller once, so its shape fits
                ctl = spec.build_controller()
                if isinstance(ctl, StorageController):
                    self.storage[spec.name] = ctl
                    # energy-accounting constants from the rate and capacity
                    cap = spec.capacity_kwh or 0.0
                    rate_charge, rate_discharge = ctl.system.B[0]
                    self._charge_kw = rate_charge / 100.0 * cap * 3600.0
                    self._discharge_kw = -rate_discharge / 100.0 * cap * 3600.0
                else:
                    self.turbine[spec.name] = ctl
                self.broker.create_thing(spec.name,
                                         {spec.feature: ctl.telemetry()})
        self.broker.create_thing(TURNOUT_THING, {"campus": {"persons": 0.0}})

        # cabinets
        self.cabinets: dict[str, SmartCabinet] = {}
        self.plcs: dict[str, TripPlc] = {}
        for cab in s.cabinets:
            cabinet = SmartCabinet(cab.building, cab.base_load_w,
                                   cab.max_consumption_w)
            building = cab.building
            plc = TripPlc(
                scan_period_s=cab.plc_scan_period_s,
                on_trip=partial(self._set_tripped, building, True),
                on_reset=partial(self._set_tripped, building, False),
            )
            self.cabinets[building] = cabinet
            self.plcs[building] = plc
            rf = cabinet.register_file
            rf.on_write = partial(self._cabinet_written, building)
            self.fabric.register_handler(
                cab.node, "modbus", partial(modbus.serve_frame_bytes, rf))

        # controllers bound to broker command properties
        for ctrl in s.controllers:
            target = (self.storage.get(ctrl.thing)
                      or self.turbine.get(ctrl.thing))
            if target is not None and ctrl.command_property:
                def apply(ev: ChangeEvent, controller=target):
                    try:
                        controller.apply_command(ev.new)
                    except CommandError as exc:
                        log.warning("rejected command on %s: %s",
                                    ev.thing_id, exc)

                self.fabric.register_handler(ctrl.node, "command", apply)
                self.broker.subscribe(
                    f"{ctrl.thing}/{self._features[ctrl.thing]}/"
                    f"{ctrl.command_property}",
                    callback=lambda ev, n=ctrl.node:
                        self._dispatch_command(n, ev))

        # occupancy
        model = s.turnout.model(schedule)
        self.population = occupancy.ClientPopulation(
            model, [c.building for c in s.cabinets] or ["campus"], self.rng)

        # historian
        self.historian = Historian(
            read_broker=self._read_broker,
            bind_modbus=self._bind_modbus,
            write_broker=self._write_broker,
            write_modbus_coil=self._write_modbus_coil,
        )
        self.fabric.register_handler(
            s.historian_node, "api", self._serve_historian_api)
        self._register_datapoints(specs)

        self.ems_cfg = s.ems.config()
        self._last_commands: dict[str, object] = {}
        self._ems_skip_reason: str | None = None   # of the last tick, if skipped
        # scan instant -> its buildings, in the order their scans were asked
        # for (dict keys: a repeated request is a no-op)
        self._scans_due: dict[float, dict[str, None]] = {}
        # the buildings whose sample inputs may have moved since their last
        # check, at first all of them
        self._marked: set[str] = set(self.cabinets)
        # building -> the consumption its last PLC scan read
        self._scanned: dict[str, int] = {}

        self.artifacts = RunArtifacts(
            historian=self.historian, tick_hours=s.ems.timer_period_s / 3600.0)

    def _register_datapoints(self, specs: dict) -> None:
        s = self.scenario
        features = self._features

        def on_broker(xid: str, name: str, thing: str, feature: str,
                      prop: str) -> None:
            self.historian.register(Datapoint(xid, name, BrokerSource(
                thing, feature, prop, host=s.broker_node)))

        for name in self.solar:
            on_broker("DP_solar_power", "Solar generation (W)", name,
                      features[name], specs[name].prop)
        for name in self.storage:
            on_broker("DP_storage_level", "Storage charge level (%)", name,
                      features[name], "level")
        for name, ctl in self.turbine.items():
            on_broker("DP_turbine_rpm", "Turbine rotor speed (rpm)", name,
                      features[name], "rpm")
            self.historian.register(Datapoint(
                "DP_turbine_power", "Turbine output (kW)", source=None,
                derive=lambda h, c=ctl: c.power_kw()))
        on_broker("DP_turnout", "Campus turnout (persons)", TURNOUT_THING,
                  "campus", "persons")
        cabinet_points = [self.historian.register(Datapoint(
            f"DP_{cab.building}_consumption",
            f"Building {cab.building} consumption (W)", ModbusSource(
                cab.node, cab.unit_id, "input", CONSUMPTION_REGISTER)))
            for cab in s.cabinets]

        def campus_kw(h: Historian) -> float:
            # a left-to-right fold, not sum(): see simcore._dot
            total = 0.0
            for dp in cabinet_points:
                if dp.latest is None:
                    raise NoData(f"{dp.xid!r} has no samples yet")
                total += dp.latest[1]
            return total / 1000.0

        self.historian.register(Datapoint(
            "DP_campus_consumption", "Campus consumption (kW)", source=None,
            derive=campus_kw))

    # ── fabric-routed transport ───────────────────────────────────────

    def _dispatch_command(self, node: str, event: ChangeEvent) -> None:
        """Forward a broker change event to its subscriber through the fabric."""
        try:
            self.fabric.deliver(self.scenario.broker_node, node, "command", event)
        except netfabric.Blocked:
            pass        # the fabric counts it and logs the pair once

    def _read_broker(self, thing: str, feature: str, prop: str):
        s = self.scenario
        # tuple.__new__ skips BrokerRequest's Python-level __new__
        result = self.fabric.deliver(
            s.historian_node, s.broker_node, "http", tuple.__new__(
                BrokerRequest, ("GET", thing, feature, prop, None)))
        if result["status"] != 200:
            raise CommandFailure(f"broker read failed: {result}")
        return result["body"]

    def _write_broker(self, thing: str, feature: str, prop: str, value) -> None:
        s = self.scenario
        result = self.fabric.deliver(
            s.historian_node, s.broker_node, "http", tuple.__new__(
                BrokerRequest, ("PUT", thing, feature, prop, value)))
        if result["status"] not in (200, 204):
            raise CommandFailure(f"broker write failed: {result}")

    def _bind_modbus(self, host: str, unit: int, table: str,
                     address: int) -> Callable[[], int]:
        """The read of one Modbus point, a :meth:`_read_modbus` with the
        point's request bytes and reply header bound. Called once per point,
        when the historian registers it."""
        key = (unit, table, address)
        prepared = self._read_requests.get(key)
        if prepared is None:
            fc = READ_FUNCTIONS[table]
            request = modbus.encode_frame(modbus.MbapFrame(
                1, unit, modbus.read_request(fc, address, 1)))
            header = (None if fc == modbus.READ_COILS
                      else modbus.read_reply_header(1, unit, fc))
            prepared = self._read_requests[key] = (request, header)
        return partial(self._read_modbus, host, *prepared)

    def _read_modbus(self, host: str, request: bytes,
                     header: bytes | None) -> int:
        """Send a read of one point to ``host`` and return its value.
        ``header`` is what a reply carrying the one register starts with,
        ``None`` for a coil."""
        raw = self.fabric.deliver(
            self.scenario.historian_node, host, "modbus", request)
        if len(raw) == 11 and raw[:9] == header:
            return raw[9] << 8 | raw[10]      # the register, big-endian
        frame, _ = modbus.decode_frame(raw)
        if header is None:
            return int(modbus.parse_read_coils_response(frame.pdu, 1)[0])
        return modbus.parse_read_registers_response(frame.pdu)[0]

    def _write_modbus_coil(self, host: str, unit: int, address: int,
                           on: bool) -> None:
        key = (unit, address, on)
        request = self._coil_requests.get(key)
        if request is None:
            request = modbus.encode_frame(modbus.MbapFrame(
                1, unit, modbus.write_coil_request(address, on)))
        raw = self.fabric.deliver(
            self.scenario.historian_node, host, "modbus", request)
        if raw == request:            # the echo: the write is done
            self._coil_requests[key] = request
            return
        frame, _ = modbus.decode_frame(raw)
        if frame.pdu.is_exception():
            raise CommandFailure(
                f"coil write rejected: exception {frame.pdu.payload[0]}")

    def _serve_historian_api(self, request: dict):
        kind = request.get("type")
        if kind == "getAll":
            return self.historian.get_all()
        if kind == "latest":
            t, v = self.historian.get_latest(request["xid"])
            return {"timestamp": t, "value": v}
        if kind == "command":
            return self.historian.issue_command(request["target"],
                                                request["value"])
        raise CommandFailure(f"unknown API request {kind!r}")

    # ── scheduler ─────────────────────────────────────────────────────

    def _schedule(self, t: float, phase: int, fn: Callable[[float], None]) -> None:
        heapq.heappush(self._heap, (t, phase, next(self._seqs), fn))

    def _schedule_periodic(
            self, tasks: list[tuple[float, int, Callable[[float], None]]]) -> None:
        """Run each ``(period, phase, fn)`` task every ``period`` s from
        ``period``: one event per ``(period, phase)`` group, which runs its
        members in the order given."""
        groups: dict[tuple[float, int], list] = {}
        for period, phase, fn in tasks:
            groups.setdefault((period, phase), []).append(fn)
        for (period, phase), members in groups.items():
            self._schedule_group(period, phase, members)

    def _schedule_group(self, period: float, phase: int,
                        members: list[Callable[[float], None]]) -> None:
        heap, push, seq = self._heap, heapq.heappush, self._seqs

        def group(t: float) -> None:
            for fn in members:
                fn(t)
            push(heap, (t + period, phase, next(seq), group))
        self._schedule(period, phase, group)

    def _schedule_plc_scan(self, building: str, now: float) -> None:
        plc = self.plcs[building]
        t = (int(now / plc.scan_period_s) + 1) * plc.scan_period_s
        due = self._scans_due.get(t)
        if due is None:
            due = self._scans_due[t] = {}
            self._schedule(t, PHASE_PLC, self._run_scans)
        due[building] = None

    def _run_scans(self, t: float) -> None:
        for building in self._scans_due.pop(t):
            rf = self.cabinets[building].register_file
            self._scanned[building] = rf.input_registers[CONSUMPTION_REGISTER]
            self.plcs[building].scan(rf)

    # ── periodic tasks ────────────────────────────────────────────────

    def _task_occupancy(self, t: float) -> None:
        persons = occupancy.turnout_at(self.population.model,
                                       self._week_offset_h + t / 3600.0)
        diff = self.population.sync(persons)
        # a spawn or a retire moves its building's loads
        self._marked.update(c.cabinet for c in diff.spawned)
        self._marked.update(c.cabinet for c in diff.retired)
        self.broker.put_property(TURNOUT_THING, "campus", "persons",
                                 float(persons))

    def _cabinet_written(self, building: str) -> None:
        """A served Modbus write changed one of the cabinet's registers: its
        master coil may have moved, and its PLC scans the change."""
        self._marked.add(building)
        self._schedule_plc_scan(building, self.clock.now())

    def _set_tripped(self, building: str, tripped: bool) -> None:
        """A PLC's trip or reset: the building's clients stop or resume
        their load."""
        self.population.set_building_tripped(building, tripped)
        self._marked.add(building)

    def _task_cabinets(self, buildings: tuple[str, ...], t: float) -> None:
        """Check each of ``buildings`` marked since its last check, in the
        order given."""
        marked = self._marked
        for building in buildings:
            if building in marked:
                marked.remove(building)
                self._task_cabinet_sample(building, t)

    def _task_cabinet_sample(self, building: str, t: float) -> None:
        consumption = self.cabinets[building].sample(
            self.population.building_loads_w(building))
        if consumption != self._scanned.get(building):
            self._schedule_plc_scan(building, t)

    def _task_controller(self, thing: str, node: str, period: float,
                         t: float) -> None:
        """Publish ``thing``'s telemetry from ``node``, one broker PUT per
        property; a storage or turbine first advances by ``period``, the
        time since its last publish (its task runs every ``period`` s from
        ``period``)."""
        ctl = self.storage.get(thing) or self.turbine.get(thing)
        if ctl is not None:
            ctl.advance(period)
            values = ctl.telemetry()
        else:     # an interpolation thing publishes nothing
            values = self.solar[thing].telemetry(t) if thing in self.solar else {}
        feature = self._features[thing]
        deliver, broker_node = self.fabric.deliver, self.scenario.broker_node
        for prop, value in values.items():
            try:
                result = deliver(node, broker_node, "http", tuple.__new__(
                    BrokerRequest, ("PUT", thing, feature, prop, value)))
                if result["status"] not in (200, 204):
                    self.artifacts.publish_errors += 1
            except netfabric.Blocked:
                self.artifacts.publish_errors += 1

    def _ems_latest(self, xid: str, now: float) -> float:
        reply = self.fabric.deliver(
            self.scenario.ems.node, self.scenario.historian_node, "api",
            {"type": "latest", "xid": xid})
        if now - reply["timestamp"] > self.ems_cfg.timer_period_s:
            raise ems_mod.StaleMeasurements(
                f"{xid} is {now - reply['timestamp']:.0f}s old")
        return reply["value"]

    def _ems_command(self, target: str, value) -> None:
        if self._last_commands.get(target) == value:
            return
        self.fabric.deliver(
            self.scenario.ems.node, self.scenario.historian_node, "api",
            {"type": "command", "target": target, "value": value})
        self._last_commands[target] = value

    def _task_ems(self, t: float) -> None:
        try:
            solar_kw = self._ems_latest("DP_solar_power", t) / 1000.0
            consumption_kw = self._ems_latest("DP_campus_consumption", t)
            level = self._ems_latest("DP_storage_level", t)
            turbine_kw = self._ems_latest("DP_turbine_power", t)
            rpm = self._ems_latest("DP_turbine_rpm", t)
        except (ems_mod.StaleMeasurements, HistorianError, netfabric.Blocked) as exc:
            self._skip_ems_tick(t, exc)
            return
        self._ems_skip_reason = None
        turbine = next(iter(self.turbine.values()), None)
        running = turbine is not None and turbine.runs_at(rpm)
        level = min(100.0, max(0.0, level))
        m = ems_mod.Measurements(
            solar_generation_kw=solar_kw,
            total_consumption_kw=consumption_kw,
            storage_level_pct=level,
            turbine_running=running,
        )
        actions = ems_mod.ems_tick(self.ems_cfg, m)

        for name in self.storage:
            self._ems_command(f"broker:{name}/{self._features[name]}/mode",
                              actions.storage_mode)
        for name in self.turbine:
            if actions.turbine_command != ems_mod.NONE:
                self._ems_command(
                    f"broker:{name}/{self._features[name]}/command",
                    actions.turbine_command)

        self._account(t, solar_kw, consumption_kw, level, turbine_kw, actions)

    def _skip_ems_tick(self, t: float, exc: Exception) -> None:
        """Count a skipped tick by its reason; log only a change of reason,
        not every tick skipped for the same one."""
        reason = ("stale" if isinstance(exc, ems_mod.StaleMeasurements)
                  else "blocked" if isinstance(exc, netfabric.Blocked)
                  else "no data")
        self.artifacts.skipped_by_reason[reason] += 1
        if reason != self._ems_skip_reason:
            self._ems_skip_reason = reason
            log.warning("EMS ticks skipped from t=%s (%s): %s", t, reason, exc)

    def _account(self, t: float, solar_kw: float, consumption_kw: float,
                 level: float, turbine_kw: float,
                 actions: ems_mod.ActionSet) -> None:
        """Slack-source energy bookkeeping: the grid and the dissipator pick
        up whatever the dispatched subsystems do not cover."""
        surplus = max(0.0, solar_kw - consumption_kw)
        deficit = max(0.0, consumption_kw - solar_kw)
        charge = (min(self._charge_kw, surplus)
                  if actions.storage_mode == ems_mod.CHARGE else 0.0)
        discharge = (min(self._discharge_kw, deficit)
                     if actions.storage_mode == ems_mod.DISCHARGE else 0.0)
        grid = max(0.0, consumption_kw - solar_kw - discharge - turbine_kw)
        dissipated = max(0.0, solar_kw + turbine_kw + discharge
                         - consumption_kw - charge)
        if t < self.scenario.duration_s:
            self.artifacts.add_tick(EmsTickRecord(
                timestamp=t, solar_kw=solar_kw, consumption_kw=consumption_kw,
                storage_level_pct=level, turbine_kw=turbine_kw,
                storage_mode=actions.storage_mode,
                turbine_command=actions.turbine_command,
                charge_kw=charge, discharge_kw=discharge,
                grid_import_kw=grid, dissipated_kw=dissipated))

    # ── operator requests ─────────────────────────────────────────────

    def inject(self, target: str, value) -> dict:
        """Make an operator command at once, routed management -> historian.
        Fails once the run has ended."""
        if self._closed:
            raise CommandFailure(
                f"run has ended; injection of {target!r} not delivered")
        try:
            return self.fabric.deliver(
                self._mgmt_node, self.scenario.historian_node, "api",
                {"type": "command", "target": target, "value": value})
        except CommandFailure:
            raise
        except Exception as exc:
            raise CommandFailure(str(exc)) from exc

    def serve_broker_request(self, request: BrokerRequest) -> dict:
        """Serve one request from the broker HTTP server as a management ->
        broker delivery, made at once. A refusal by the firewall is 403, a
        run that ended is 503."""
        if self._closed:
            what = (f"{request.thing}/{request.feature}/{request.prop}"
                    if request.thing is not None else "thing list")
            return {"status": 503, "body": {"error": (
                f"run has ended; broker {request.method} of {what!r} "
                "not delivered")}}
        try:
            return self.fabric.deliver(
                self._mgmt_node, self.scenario.broker_node, "http", request)
        except netfabric.Blocked as exc:
            return {"status": 403, "body": {"error": str(exc)}}

    def _drain_injections(self) -> bool:
        """Serve the HTTP front ends at an instant boundary. Paced: until
        the next event is due; returns whether it is still ahead, read from
        the clock after serving, since a request may have ended the wait
        early or scheduled an earlier event. A wait that ran out returns
        False, so the loop runs the event with no second serve. Unpaced:
        what is ready, at most once per millisecond of wall time; returns
        False.

        The name is from when this step made the commands other threads
        had queued. ``twinbench/spans.py`` wraps it by that name and counts
        a command issued inside it as injected, so it stays until the
        benchmark changes with it."""
        if self.pace:
            self._front_ends.serve(max(self._lag(), 0.0))
            return self._lag() > 0
        if (now := time.monotonic()) >= self._next_serve:
            self._front_ends.serve(0)
            self._next_serve = now + 0.001
        return False

    def _lag(self) -> float:
        """Wall seconds until the next event is due, paced."""
        return (self._heap[0][0] / self.clock.scale
                - (time.monotonic() - self._wall_start))

    # ── run loop ──────────────────────────────────────────────────────

    def _start_servers(self) -> None:
        s = self.scenario
        try:
            self.broker_http = broker = JsonHttpServer(
                ("127.0.0.1", s.broker_http_port),
                broker_routes(self.serve_broker_request))
            try:
                self.historian_http = JsonHttpServer(
                    ("127.0.0.1", s.historian_http_port),
                    historian_routes(self.historian, self.inject))
            except OSError:
                # bound but not yet in _servers, so no _stop_servers closes it
                broker.server_close()
                raise
        except OSError as exc:
            raise StartupError(f"cannot bind service port: {exc}") from exc
        self._servers = [self.broker_http, self.historian_http]
        self._front_ends = FrontEnds(self._servers)

    def _stop_servers(self) -> None:
        front_ends, self._front_ends = self._front_ends, None
        # answer the requests that have come: the run has ended, so
        # commands are 502 and broker requests 503
        front_ends.serve(0)
        front_ends.close()
        # ordered shutdown: historian -> broker
        for server in reversed(self._servers):
            server.server_close()
        self._servers = []

    def run(self, out_dir: str | None = None,
            on_listening: Callable[[], None] | None = None) -> RunArtifacts:
        """Run the scenario to its end; ``on_listening`` is called once the
        HTTP servers listen, before the first event."""
        s = self.scenario
        self._start_servers()
        try:
            try:
                self.artifacts.open_sinks(out_dir)
            except OSError as exc:
                raise StartupError(f"cannot write artifacts: {exc}") from exc
            tasks = [(s.turnout.period_s, PHASE_OCCUPANCY, self._task_occupancy)]
            by_period: dict[float, list[str]] = {}
            for cab in s.cabinets:
                by_period.setdefault(cab.sample_period_s, []).append(cab.building)
            tasks += [(period, PHASE_CABINET,
                       partial(self._task_cabinets, tuple(buildings)))
                      for period, buildings in by_period.items()]
            tasks += [(ctrl.publish_period_s, PHASE_CONTROLLER,
                       partial(self._task_controller, ctrl.thing, ctrl.node,
                               ctrl.publish_period_s))
                      for ctrl in s.controllers]
            tasks += [(s.poll_period_s, PHASE_POLL, self.historian.poll_sourced),
                      (s.poll_period_s, PHASE_DERIVED, self.historian.poll_derived),
                      (s.ems.timer_period_s, PHASE_EMS, self._task_ems)]
            self._schedule_periodic(tasks)
            if on_listening is not None:
                on_listening()

            self._wall_start = self._next_serve = time.monotonic()
            heap, pop, clock, end = (self._heap, heapq.heappop, self.clock,
                                     s.duration_s)
            t = None
            while heap and heap[0][0] <= end:
                # an instant boundary: serve HTTP first
                if heap[0][0] != t and self._drain_injections():
                    continue
                t, phase, _seq, fn = pop(heap)
                # looked up per event: a caller may wrap it on the instance
                clock.advance_to(t)
                try:
                    fn(t)
                except Exception as exc:
                    raise RunAbort(
                        f"task failed at sim t={t}: {exc!r}") from exc
            self.artifacts.completed = True
        finally:
            self._closed = True
            self._stop_servers()
            self.artifacts.blocked_count = self.fabric.blocked_count
            if self.artifacts.ems_ticks is not None:   # the sinks are open
                self.artifacts.export(out_dir)
        return self.artifacts


def run_scenario(scenario: Scenario, out_dir: str | None = None,
                 pace: bool = True) -> RunArtifacts:
    return Runner(scenario, pace=pace).run(out_dir)
