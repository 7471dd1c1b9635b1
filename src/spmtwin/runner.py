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
``(t, phase)`` they shared.

Cabinet sampling and PLC scanning are change-driven. A cabinet's inputs are
its building's client loads, which change only at a spawn, a retire or a trip
change (each moves ``ClientPopulation.version``), and its master coil; a
sample whose ``(version, master coil)`` equals that of the building's last
sample would write the same consumption, so it is skipped. A sample that does
run asks for a PLC scan only if it wrote a consumption other than the one the
building's last scan read. Skipping is exact: a scan of unchanged inputs gives
the trip coil it already holds (``coil or cons > maxcons`` twice is ``coil``
once), ``on_trip``/``on_reset`` fire only on a change of that coil, and every
other change of a cabinet's registers, a Modbus coil or register write, asks
for its own scan. The loads are summed in the same order either way, so the
artifacts are the same bytes as with a sample and a scan every period.

One thread owns the plant: the thread that calls :meth:`Runner.run` is the
only one that touches the fabric, the devices, the register files and the
historian's registry, none of which takes a lock, and a run starts no other
thread. It serves the HTTP servers, two ``JsonHttpServer``s over the
broker's and the historian's route tables, between two instants, never
between two phases of one instant. The routes that change the plant make
fabric deliveries from the management node: :meth:`Runner.inject` for
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

Each Modbus read the historian polls is prepared once: its request bytes,
and the 9-byte header a reply to it starts with when it carries the one
register asked for. Every poll sends those bytes through the fabric, and a
reply of 11 bytes that starts with that header is read with one unpack; any
other reply is decoded and parsed in full, exceptions included. A single-coil
write is done when its reply echoes the request, as the specification says a
successful one does; any other reply is decoded and checked. Its bytes are
kept once a device has echoed them, so a command repeated on a coil, like a
poll, sends bytes the device has prepared (see :mod:`spmtwin.modbus`).
"""

from __future__ import annotations

import heapq
import logging
import os
import time
from dataclasses import dataclass, field
from datetime import timedelta
from functools import partial
from typing import Callable, NamedTuple

from . import ems as ems_mod
from . import modbus, netfabric, occupancy, rng
from .broker import Broker, ChangeEvent, http_routes as broker_routes
from .devices import (
    CONSUMPTION_REGISTER,
    MASTER_COIL,
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


class Runner:
    """Owns the clock, the fabric, and every service of one scenario run."""

    def __init__(self, scenario: Scenario, pace: bool = True):
        self.scenario = scenario
        self.pace = pace
        self.clock = SimClock(scale=scenario.clock_scale)
        self.rng = rng.Generator(scenario.seed)
        self.fabric = netfabric.Fabric(scenario.policy)
        self._heap: list = []
        self._seq = 0
        self._closed = False          # set once the run ends
        # monotonic time the loop started at, and of the next unpaced serve
        self._wall_start = self._next_serve = 0.0
        self._servers: list = []
        self._front_ends: FrontEnds | None = None    # while the servers listen
        # (unit, table, address) -> (request bytes, the reply header of a
        # register read; None for a coil)
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
        radiance_tables = {
            spec.name: load_radiance_csv(s.path(spec.source_csv), mode=spec.mode)
            for spec in s.things if isinstance(spec, InterpolationThingSpec)}
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
                on_trip=lambda b=building: self.population.set_building_tripped(b, True),
                on_reset=lambda b=building: self.population.set_building_tripped(b, False),
            )
            self.cabinets[building] = cabinet
            self.plcs[building] = plc
            self.fabric.register_handler(
                cab.node, "modbus",
                lambda data, c=cabinet, b=building: self._serve_modbus(c, b, data))

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
        model = s.turnout.model(
            occupancy.load_schedule_csv(s.path(s.turnout.schedule_csv)))
        self.population = occupancy.ClientPopulation(
            model, [c.building for c in s.cabinets] or ["campus"], self.rng)

        # historian
        self.historian = Historian(
            read_broker=self._read_broker,
            read_modbus=self._read_modbus,
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
        # building -> (population version, master coil) at its last sample
        self._sampled: dict[str, tuple[int, bool]] = {}
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
        xids = tuple(f"DP_{cab.building}_consumption" for cab in s.cabinets)
        for xid, cab in zip(xids, s.cabinets):
            self.historian.register(Datapoint(
                xid, f"Building {cab.building} consumption (W)", ModbusSource(
                    cab.node, cab.unit_id, "input", CONSUMPTION_REGISTER)))
        self.historian.register(Datapoint(
            "DP_campus_consumption", "Campus consumption (kW)", source=None,
            derive=lambda h: sum(h.get_latest(x)[1] for x in xids) / 1000.0))

    # ── fabric-routed transport ───────────────────────────────────────

    def _serve_modbus(self, cabinet: SmartCabinet, building: str,
                      data: bytes) -> bytes:
        response = modbus.serve_frame_bytes(cabinet.register_file, data)
        # serve_frame_bytes decoded and validated the frame: byte 7 is its
        # function code
        if data[7] in (modbus.WRITE_COIL, modbus.WRITE_REGISTER):
            self._schedule_plc_scan(building, self.clock.now())
        return response

    def _dispatch_command(self, node: str, event: ChangeEvent) -> None:
        """Forward a broker change event to its subscriber through the fabric."""
        try:
            self.fabric.deliver(self.scenario.broker_node, node, "command", event)
        except netfabric.Blocked:
            log.warning("command event to %s blocked by policy", node)

    def _broker_request(self, src: str, method: str, thing: str,
                        feature: str, prop: str, body=None) -> dict:
        """Deliver a structured ``method`` request on one property, src -> broker."""
        return self.fabric.deliver(src, self.scenario.broker_node, "http", {
            "method": method, "thing": thing, "feature": feature,
            "prop": prop, "body": body})

    def _read_broker(self, thing: str, feature: str, prop: str):
        result = self._broker_request(self.scenario.historian_node, "GET",
                                      thing, feature, prop)
        if result["status"] != 200:
            raise CommandFailure(f"broker read failed: {result}")
        return result["body"]

    def _write_broker(self, thing: str, feature: str, prop: str, value) -> None:
        result = self._broker_request(self.scenario.historian_node, "PUT",
                                      thing, feature, prop, value)
        if result["status"] not in (200, 204):
            raise CommandFailure(f"broker write failed: {result}")

    def _read_modbus(self, host: str, unit: int, table: str, address: int) -> int:
        key = (unit, table, address)
        prepared = self._read_requests.get(key)
        if prepared is None:
            fc = READ_FUNCTIONS[table]
            request = modbus.encode_frame(modbus.MbapFrame(
                1, unit, modbus.read_request(fc, address, 1)))
            header = (None if fc == modbus.READ_COILS
                      else modbus.read_reply_header(1, unit, fc))
            prepared = self._read_requests[key] = (request, header)
        request, header = prepared
        raw = self.fabric.deliver(
            self.scenario.historian_node, host, "modbus", request)
        if len(raw) == 11 and raw[:9] == header:
            return modbus.U16.unpack_from(raw, 9)[0]
        frame, _ = modbus.decode_frame(raw)
        if table == "coil":
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
        self._seq += 1
        heapq.heappush(self._heap, (t, phase, self._seq, fn))

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
        def group(t: float) -> None:
            for fn in members:
                fn(t)
            self._schedule(t + period, phase, group)
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
        self.population.sync(persons)
        self.broker.put_property(TURNOUT_THING, "campus", "persons",
                                 float(persons))

    def _task_cabinet_sample(self, building: str, t: float) -> None:
        cabinet = self.cabinets[building]
        inputs = (self.population.version[building],
                  cabinet.register_file.coils[MASTER_COIL])
        if self._sampled.get(building) == inputs:
            return
        self._sampled[building] = inputs
        consumption = cabinet.sample(self.population.building_loads_w(building))
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
        for prop, value in values.items():
            try:
                result = self._broker_request(node, "PUT", thing, feature,
                                              prop, value)
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

    def serve_broker_request(self, request: dict) -> dict:
        """Serve one structured request from the broker HTTP server as a
        management -> broker delivery, made at once. A refusal by the
        firewall is 403, a run that ended is 503."""
        if self._closed:
            what = (f"{request['thing']}/{request['feature']}/{request['prop']}"
                    if "thing" in request else "thing list")
            return {"status": 503, "body": {"error": (
                f"run has ended; broker {request['method']} of {what!r} "
                "not delivered")}}
        try:
            return self.fabric.deliver(
                self._mgmt_node, self.scenario.broker_node, "http", request)
        except netfabric.Blocked as exc:
            return {"status": 403, "body": {"error": str(exc)}}

    def _drain_injections(self) -> bool:
        """Serve the HTTP front ends at an instant boundary. Paced: until
        the next event is due; returns whether it is still ahead, since a
        command served may have scheduled an earlier one. Unpaced: what is
        ready, at most once per millisecond of wall time; returns False.

        The name is from when this step made the commands other threads
        had queued. ``twinbench/spans.py`` wraps it by that name and counts
        a command issued inside it as injected, so it stays until the
        benchmark changes with it."""
        if self.pace:
            lag = (self._heap[0][0] / self.clock.scale
                   - (time.monotonic() - self._wall_start))
            self._front_ends.serve(max(lag, 0.0))
            return lag > 0
        if (now := time.monotonic()) >= self._next_serve:
            self._front_ends.serve(0)
            self._next_serve = now + 0.001
        return False

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
            tasks += [(cab.sample_period_s, PHASE_CABINET,
                       partial(self._task_cabinet_sample, cab.building))
                      for cab in s.cabinets]
            tasks += [(ctrl.publish_period_s, PHASE_CONTROLLER,
                       partial(self._task_controller, ctrl.thing, ctrl.node,
                               ctrl.publish_period_s))
                      for ctrl in s.controllers]
            tasks += [(s.poll_period_s, PHASE_POLL,
                       partial(self.historian.poll_host, host))
                      for host in self.historian.hosts]
            tasks += [(s.poll_period_s, PHASE_DERIVED, self.historian.poll_derived),
                      (s.ems.timer_period_s, PHASE_EMS, self._task_ems)]
            self._schedule_periodic(tasks)
            if on_listening is not None:
                on_listening()

            self._wall_start = self._next_serve = time.monotonic()
            t = None
            while self._heap and self._heap[0][0] <= s.duration_s:
                # an instant boundary: serve HTTP first
                if self._heap[0][0] != t and self._drain_injections():
                    continue
                t, phase, _seq, fn = heapq.heappop(self._heap)
                self.clock.advance_to(t)
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
