"""Accelerated scenario runner.

Drives every module from a single simulated clock using a deterministic
discrete-event scheduler: events are ordered by (sim time, phase, sequence)
so that identical seeds and scenarios yield byte-identical artifacts, at any
clock scale. Pacing only waits to honor the real-to-simulated ratio; it
never influences results.

The paced loop waits until the next event is due or a delivery is queued,
whichever comes first, so an operator's command is made as it arrives, not
after the next paced event. It peeks at the next event rather than popping
it: a queued coil write schedules a PLC scan at the next scan instant, which
can come before the event it would have popped.

Periodic tasks run as one event per ``(period, phase)`` group, which runs its
members in registration order, and PLC scans as one event per scan instant,
which scans buildings in the order their scans were asked for. That is the
order one event per task gave, because tasks of one period re-arm together
and so always ran contiguously, in registration order, at each
``(t, phase)`` they shared.

One thread owns the plant: the thread that calls :meth:`Runner.run` is the
only one that touches the fabric, the devices, the register files and the
historian's registry, none of which takes a lock. The HTTP servers' threads
only queue fabric deliveries from the management node (operator commands to
the historian, requests to the broker) and wait; the run loop makes them
between two events.

``run(out_dir)`` opens ``datapoints.csv`` and ``ems_ticks.csv`` once the
servers listen, so a run that cannot start writes nothing, and writes each
sample and EMS tick as it comes; ``summary.csv``'s per-day sums are added up
tick by tick, in the order the ticks come. So the run's memory does not grow
with its length. :meth:`RunArtifacts.export` finishes the files, at the end
of the run or when a task fails. Without ``out_dir`` the rows are kept in
memory, and ``export`` writes the same bytes after the run.
"""

from __future__ import annotations

import heapq
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import ems as ems_mod
from . import modbus, netfabric, occupancy
from .broker import Broker, BrokerHttpServer, ChangeEvent
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
    HistorianHttpServer,
    ModbusSource,
    SampleSink,
    format_value,
)
from .scenario import (
    CallbackThingSpec,
    InterpolationThingSpec,
    Scenario,
    SystemThingSpec,
)
from .simcore import (
    SimClock,
    builtin_registry,
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

TURNOUT_THING = "FDT:campus-turnout"

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
EMS_LOG_HEADER = ("timestamp,solar_kw,consumption_kw,storage_level_pct,"
                  "turbine_kw,storage_mode,turbine_command,charge_kw,"
                  "discharge_kw,grid_import_kw,dissipated_kw")


class RunAbort(Exception):
    """A task failed mid-run; partial artifacts were preserved."""


class StartupError(Exception):
    """A service could not start (e.g. port conflict)."""


@dataclass
class EmsTickRecord:
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

    header = EMS_LOG_HEADER

    def line(self, rec: EmsTickRecord) -> str:
        return ",".join([
            format_value(rec.timestamp), format_value(rec.solar_kw),
            format_value(rec.consumption_kw),
            format_value(rec.storage_level_pct), format_value(rec.turbine_kw),
            rec.storage_mode, rec.turbine_command,
            format_value(rec.charge_kw), format_value(rec.discharge_kw),
            format_value(rec.grid_import_kw), format_value(rec.dissipated_kw),
        ]) + "\n"


@dataclass
class RunArtifacts:
    """A run's outputs. The sample log and the EMS tick records are kept in
    memory, or, after :meth:`stream_to`, written to their CSV files as they
    come; summary.csv's per-day sums are added up as the ticks come, either
    way. :meth:`export` finishes the files."""

    seed: int
    duration_s: float
    historian: Historian
    tick_hours: float                 # the EMS timer period one record covers
    ems_ticks: list[EmsTickRecord] | EmsTickSink = field(default_factory=list)
    blocked_count: int = 0
    skipped_ems_ticks: int = 0
    publish_errors: int = 0
    completed: bool = False
    # day -> running sums, in SUMMARY_SUMS order
    day_sums: dict[int, list[float]] = field(default_factory=dict)

    def stream_to(self, out_dir: str) -> None:
        """Write datapoints.csv and ems_ticks.csv rows to ``out_dir`` from
        now on, as they come, instead of keeping them."""
        os.makedirs(out_dir, exist_ok=True)
        self.historian.log = SampleSink(
            os.path.join(out_dir, "datapoints.csv"))
        self.ems_ticks = EmsTickSink(os.path.join(out_dir, "ems_ticks.csv"))

    def add_tick(self, rec: EmsTickRecord) -> None:
        self.ems_ticks.append(rec)
        sums = self.day_sums.setdefault(int(rec.timestamp // 86400),
                                        [0.0] * len(SUMMARY_SUMS))
        hours = self.tick_hours
        for i, (_, attr) in enumerate(SUMMARY_SUMS):
            sums[i] += getattr(rec, attr) * hours

    def export(self, out_dir: str) -> list[str]:
        """Finish datapoints.csv and ems_ticks.csv in ``out_dir`` (close
        the streamed files, or write the kept rows) and write summary.csv."""
        os.makedirs(out_dir, exist_ok=True)
        paths = [os.path.join(out_dir, name) for name in
                 ("datapoints.csv", "summary.csv", "ems_ticks.csv")]
        dp_path, summary_path, ems_path = paths
        for rows, sink_type, path in ((self.historian.log, SampleSink, dp_path),
                                      (self.ems_ticks, EmsTickSink, ems_path)):
            if isinstance(rows, CsvSink):
                if not os.path.samefile(rows.path, path):
                    raise ValueError(f"{rows.path} was streamed, not {path}")
                rows.close()
            else:
                sink = sink_type(path)
                for row in rows:
                    sink.append(row)
                sink.close()
        with open(summary_path, "w") as fh:
            fh.write(SUMMARY_HEADER + "\n")
            for day, sums in sorted(self.day_sums.items()):
                fh.write(",".join([str(day)] + [format_value(v) for v in sums])
                         + "\n")
        return paths


class Runner:
    """Owns the clock, the fabric, and every service of one scenario run."""

    def __init__(self, scenario: Scenario, pace: bool = True):
        self.scenario = scenario
        self.pace = pace
        self.clock = SimClock(scale=scenario.clock_scale)
        self.rng = np.random.default_rng(scenario.seed)
        self.fabric = netfabric.Fabric(scenario.policy)
        self._heap: list = []
        self._seq = 0
        self._inject_lock = threading.Lock()
        # queued (src, dst, service, payload, done, box) fabric deliveries
        self._injected: list = []
        self._closed = False          # set once the run ends; guarded by _inject_lock
        self._wake = threading.Event()  # set when a delivery is queued
        self._servers: list = []
        self._read_requests: dict[tuple[int, str, int], bytes] = {}
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

        registry = builtin_registry()
        year_offset = (
            s.start_time
            - s.start_time.replace(month=1, day=1, hour=0, minute=0, second=0)
        ).total_seconds()
        year_len = year_seconds(s.start_time.year)

        # things -> physical models and broker entries
        self.solar: dict[str, SolarController] = {}
        self.storage: dict[str, StorageController] = {}
        self.turbine: dict[str, TurbineController] = {}
        specs = {t.name: t for t in s.things}
        self._features = {name: spec.feature for name, spec in specs.items()}
        radiance_tables = {}
        for spec in s.things:
            if isinstance(spec, InterpolationThingSpec):
                radiance_tables[spec.name] = load_radiance_csv(
                    s.path(spec.source_csv), mode=spec.mode)
                self.broker.create_thing(spec.name, {spec.feature: {spec.prop: 0.0}})
            elif isinstance(spec, CallbackThingSpec):
                src = specs[spec.source_thing]
                table = radiance_tables.get(spec.source_thing)
                if table is None:
                    raise StartupError(
                        f"{spec.name}: source {spec.source_thing!r} is not an "
                        f"interpolation thing")
                self.solar[spec.name] = SolarController(
                    table, registry, spec.callback_name,
                    spec.surface_m2, spec.efficiency,
                    year_offset_s=year_offset, year_len_s=year_len)
                self.broker.create_thing(spec.name, {spec.feature: {spec.prop: 0.0}})
            elif isinstance(spec, SystemThingSpec):
                system = spec.build_system()
                if system.n == 1 and system.m == 2:
                    self.storage[spec.name] = StorageController(system)
                    self.broker.create_thing(spec.name, {
                        spec.feature: {"level": system.x[0], "mode": "idle"}})
                elif system.n == 2 and system.m == 3:
                    self.turbine[spec.name] = TurbineController(
                        system, rated_kw=spec.rated_kw or 65.0,
                        air_temp_c=spec.air_temp_c
                        if spec.air_temp_c is not None else 15.0)
                    self.broker.create_thing(spec.name, {
                        spec.feature: {"rpm": system.x[0], "power": 0.0,
                                       "exhaust-temp": system.x[1]}})
                else:
                    raise StartupError(
                        f"{spec.name}: unsupported system shape "
                        f"{system.n}x{system.m}")
        self.broker.create_thing(TURNOUT_THING, {"campus": {"persons": 0.0}})

        # storage energy-accounting constants from the rate and capacity
        self._charge_kw = self._discharge_kw = 0.0
        for spec in s.things:
            if isinstance(spec, SystemThingSpec) and spec.name in self.storage:
                cap = spec.capacity_kwh or 0.0
                rate_charge = spec.B[0][0] * spec.time_unit_scale
                rate_discharge = -spec.B[0][1] * spec.time_unit_scale
                self._charge_kw = rate_charge / 100.0 * cap * 3600.0
                self._discharge_kw = rate_discharge / 100.0 * cap * 3600.0

        # cabinets
        self.cabinets: dict[str, SmartCabinet] = {}
        self.plcs: dict[str, TripPlc] = {}
        self._cabinet_nodes: dict[str, str] = {}
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
            self._cabinet_nodes[building] = cab.node
            self.fabric.register_handler(
                cab.node, "modbus",
                lambda data, c=cabinet, b=building: self._serve_modbus(c, b, data))

        # controllers bound to broker command properties
        self._controller_nodes: dict[str, str] = {}
        for ctrl in s.controllers:
            self._controller_nodes[ctrl.thing] = ctrl.node
            target = (self.storage.get(ctrl.thing)
                      or self.turbine.get(ctrl.thing))
            if target is not None and ctrl.command_property:
                spec = specs[ctrl.thing]

                def apply(ev: ChangeEvent, controller=target):
                    try:
                        controller.apply_command(ev.new)
                    except CommandError as exc:
                        log.warning("rejected command on %s: %s",
                                    ev.thing_id, exc)

                self.fabric.register_handler(ctrl.node, "command", apply)
                self.broker.subscribe(
                    f"{ctrl.thing}/{spec.feature}/{ctrl.command_property}",
                    callback=lambda ev, n=ctrl.node:
                        self._dispatch_command(n, ev))

        # occupancy
        model = s.turnout.model(
            occupancy.load_schedule_csv(s.path(s.turnout.schedule_csv)))
        self.turnout_model = model
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
        self._scan_scheduled: dict[str, float] = {}
        self._scans_due: dict[float, list[str]] = {}   # scan instant -> buildings
        self._last_controller_advance: dict[str, float] = {}

        self.artifacts = RunArtifacts(
            seed=s.seed, duration_s=s.duration_s, historian=self.historian,
            tick_hours=s.ems.timer_period_s / 3600.0)

    def _register_datapoints(self, specs: dict) -> None:
        s = self.scenario
        poll = s.poll_period_s
        for name, ctl in self.solar.items():
            spec = specs[name]
            self.historian.register(Datapoint(
                xid="DP_solar_power", name="Solar generation (W)",
                source=BrokerSource(name, spec.feature, spec.prop,
                                    host=s.broker_node),
                poll_period_s=poll))
        for name in self.storage:
            spec = specs[name]
            self.historian.register(Datapoint(
                xid="DP_storage_level", name="Storage charge level (%)",
                source=BrokerSource(name, spec.feature, "level",
                                    host=s.broker_node),
                poll_period_s=poll))
        for name, ctl in self.turbine.items():
            spec = specs[name]
            self.historian.register(Datapoint(
                xid="DP_turbine_rpm", name="Turbine rotor speed (rpm)",
                source=BrokerSource(name, spec.feature, "rpm",
                                    host=s.broker_node),
                poll_period_s=poll))
            self.historian.register(Datapoint(
                xid="DP_turbine_power", name="Turbine output (kW)",
                source=None, poll_period_s=poll,
                derive=lambda h, c=ctl: c.power_kw()))
        self.historian.register(Datapoint(
            xid="DP_turnout", name="Campus turnout (persons)",
            source=BrokerSource(TURNOUT_THING, "campus", "persons",
                                host=s.broker_node),
            poll_period_s=poll))
        building_xids = []
        for cab in s.cabinets:
            xid = f"DP_{cab.building}_consumption"
            building_xids.append(xid)
            self.historian.register(Datapoint(
                xid=xid, name=f"Building {cab.building} consumption (W)",
                source=ModbusSource(cab.node, cab.unit_id, "input",
                                    CONSUMPTION_REGISTER),
                poll_period_s=poll))

        def campus_kw(h: Historian, xids=tuple(building_xids)) -> float:
            return sum(h.get_latest(x)[1] for x in xids) / 1000.0

        self.historian.register(Datapoint(
            xid="DP_campus_consumption", name="Campus consumption (kW)",
            source=None, poll_period_s=poll, derive=campus_kw))

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

    def _broker_request(self, src_node: str, request: dict) -> dict:
        return self.fabric.deliver(
            src_node, self.scenario.broker_node, "http", request)

    def _read_broker(self, thing: str, feature: str, prop: str):
        result = self._broker_request(self.scenario.historian_node, {
            "method": "GET",
            "path": f"/api/2/things/{thing}/features/{feature}/properties/{prop}",
        })
        if result["status"] != 200:
            raise CommandFailure(f"broker read failed: {result}")
        return result["body"]

    def _write_broker(self, thing: str, feature: str, prop: str, value) -> None:
        result = self._broker_request(self.scenario.historian_node, {
            "method": "PUT",
            "path": f"/api/2/things/{thing}/features/{feature}/properties/{prop}",
            "body": value,
        })
        if result["status"] not in (200, 204):
            raise CommandFailure(f"broker write failed: {result}")

    def _read_modbus(self, host: str, unit: int, table: str, address: int) -> int:
        key = (unit, table, address)
        request = self._read_requests.get(key)
        if request is None:
            # the same bytes every poll; the cabinet still decodes each one
            request = self._read_requests[key] = modbus.encode_frame(
                modbus.MbapFrame(1, unit, modbus.read_request(
                    READ_FUNCTIONS[table], address, 1)))
        raw = self.fabric.deliver(
            self.scenario.historian_node, host, "modbus", request)
        frame, _ = modbus.decode_frame(raw)
        if table == "coil":
            return int(modbus.parse_read_coils_response(frame.pdu, 1)[0])
        return modbus.parse_read_registers_response(frame.pdu)[0]

    def _write_modbus_coil(self, host: str, unit: int, address: int,
                           on: bool) -> None:
        request = modbus.encode_frame(modbus.MbapFrame(
            1, unit, modbus.write_coil_request(address, on)))
        raw = self.fabric.deliver(
            self.scenario.historian_node, host, "modbus", request)
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
        if self._scan_scheduled.get(building) == t:
            return
        self._scan_scheduled[building] = t
        due = self._scans_due.get(t)
        if due is None:
            due = self._scans_due[t] = []
            self._schedule(t, PHASE_PLC, self._run_scans)
        due.append(building)

    def _run_scans(self, t: float) -> None:
        for building in self._scans_due.pop(t):
            self.plcs[building].scan(self.cabinets[building].register_file)

    # ── periodic tasks ────────────────────────────────────────────────

    def _task_occupancy(self, t: float) -> None:
        s = self.scenario
        hour_of_week = (s.start_time.weekday() * 24.0
                        + s.start_time.hour + s.start_time.minute / 60.0
                        + t / 3600.0)
        persons = occupancy.turnout_at(self.turnout_model, hour_of_week)
        self.population.sync(persons)
        self.broker.put_property(TURNOUT_THING, "campus", "persons",
                                 float(persons))

    def _task_cabinet_sample(self, building: str, t: float) -> None:
        cabinet = self.cabinets[building]
        cabinet.sample(self.population.building_loads_w(building))
        self._schedule_plc_scan(building, t)

    def _publish(self, thing: str, feature: str, values: dict) -> None:
        node = self._controller_nodes.get(thing, self.scenario.broker_node)
        for prop, value in values.items():
            try:
                result = self._broker_request(node, {
                    "method": "PUT",
                    "path": f"/api/2/things/{thing}/features/{feature}"
                            f"/properties/{prop}",
                    "body": value,
                })
                if result["status"] not in (200, 204):
                    self.artifacts.publish_errors += 1
            except netfabric.Blocked:
                self.artifacts.publish_errors += 1

    def _task_controller(self, thing: str, t: float) -> None:
        feature = self._features[thing]
        last = self._last_controller_advance.get(thing, 0.0)
        dt = t - last
        self._last_controller_advance[thing] = t
        if thing in self.solar:
            self._publish(thing, feature, self.solar[thing].telemetry(t))
        elif thing in self.storage or thing in self.turbine:
            ctl = self.storage.get(thing) or self.turbine[thing]
            if dt > 0:
                ctl.advance(dt)
            self._publish(thing, feature, ctl.telemetry())

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
            self.artifacts.skipped_ems_ticks += 1
            log.warning("EMS tick skipped at t=%s: %s", t, exc)
            return
        turbine = next(iter(self.turbine.values()), None)
        running = bool(turbine and rpm >= 0.5 * turbine.nominal_rpm)
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

    # ── injection ─────────────────────────────────────────────────────

    def _queue_delivery(self, dst: str, service: str, payload,
                        timeout: float, what: str):
        """Queue a management -> ``dst`` delivery for the run loop, which
        makes it at the next event boundary; returns its reply or raises its
        error. Raises :class:`CommandFailure` once the run has ended or after
        ``timeout`` seconds, in which case the delivery is never made."""
        done = threading.Event()
        box: dict = {}
        entry = (self._mgmt_node, dst, service, payload, done, box)
        with self._inject_lock:
            if self._closed:
                raise CommandFailure(f"run has ended; {what} not delivered")
            self._injected.append(entry)
        self._wake.set()
        if not done.wait(timeout):
            with self._inject_lock:
                if entry in self._injected:
                    self._injected.remove(entry)
                    raise CommandFailure(f"{what} timed out")
            done.wait()               # the loop has taken it: take its reply
        if "ack" in box:
            return box["ack"]
        if "error" in box:
            raise box["error"]
        # closed by _close_injections before the loop reached it
        raise CommandFailure(f"run has ended; {what} not delivered")

    def inject(self, target: str, value, timeout: float = 30.0) -> dict:
        """Queue an operator command; it executes at the next event boundary,
        routed management -> historian. Fails at once after the run ends."""
        try:
            return self._queue_delivery(
                self.scenario.historian_node, "api",
                {"type": "command", "target": target, "value": value},
                timeout, f"injection of {target!r}")
        except CommandFailure:
            raise
        except Exception as exc:
            raise CommandFailure(str(exc)) from exc

    def queue_broker_request(self, request: dict,
                             timeout: float = 30.0) -> dict:
        """Serve one broker HTTP request as a management -> broker delivery
        made by the run loop; the broker HTTP server calls this. A refusal
        by the firewall is 403, a run that ended or a timeout is 503."""
        try:
            return self._queue_delivery(
                self.scenario.broker_node, "http", request, timeout,
                f"broker request {request.get('path')!r}")
        except netfabric.Blocked as exc:
            return {"status": 403, "body": {"error": str(exc)}}
        except CommandFailure as exc:
            return {"status": 503, "body": {"error": str(exc)}}

    def _drain_injections(self) -> None:
        if not self._injected:        # the common case: nothing queued
            return
        with self._inject_lock:
            pending, self._injected = self._injected, []
        for src, dst, service, payload, done, box in pending:
            try:
                box["ack"] = self.fabric.deliver(src, dst, service, payload)
            except Exception as exc:
                box["error"] = exc
            finally:
                done.set()

    def _close_injections(self) -> None:
        """Refuse further deliveries and fail any still queued."""
        with self._inject_lock:
            self._closed = True
            pending, self._injected = self._injected, []
        for *_, done, _box in pending:
            done.set()

    # ── run loop ──────────────────────────────────────────────────────

    def _start_servers(self) -> None:
        s = self.scenario
        try:
            self.broker_http = BrokerHttpServer(self.queue_broker_request,
                                                port=s.broker_http_port)
            self.historian_http = HistorianHttpServer(
                self.historian, port=s.historian_http_port,
                command_hook=self.inject)
        except OSError as exc:
            raise StartupError(f"cannot bind service port: {exc}") from exc
        self.broker_http.start()
        self.historian_http.start()
        self._servers = [self.broker_http, self.historian_http]

    def _stop_servers(self) -> None:
        # ordered shutdown: historian -> broker
        for server in reversed(self._servers):
            try:
                server.shutdown()
                server.server_close()
            except Exception:
                pass
        self._servers = []

    def run(self, out_dir: str | None = None) -> RunArtifacts:
        s = self.scenario
        self._start_servers()
        try:
            if out_dir:
                self.artifacts.stream_to(out_dir)
            tasks = [(s.turnout.period_s, PHASE_OCCUPANCY, self._task_occupancy)]
            tasks += [(cab.sample_period_s, PHASE_CABINET,
                       partial(self._task_cabinet_sample, cab.building))
                      for cab in s.cabinets]
            tasks += [(ctrl.publish_period_s, PHASE_CONTROLLER,
                       partial(self._task_controller, ctrl.thing))
                      for ctrl in s.controllers]
            tasks += [(s.poll_period_s, PHASE_POLL,
                       partial(self.historian.poll_host, host))
                      for host in [s.broker_node] + [c.node for c in s.cabinets]]
            tasks += [(s.poll_period_s, PHASE_DERIVED, self.historian.poll_derived),
                      (s.ems.timer_period_s, PHASE_EMS, self._task_ems)]
            self._schedule_periodic(tasks)

            wall_start = time.monotonic()
            while self._heap and self._heap[0][0] <= s.duration_s:
                self._drain_injections()
                if self.pace:
                    lag = (self._heap[0][0] / self.clock.scale
                           - (time.monotonic() - wall_start))
                    if lag > 0:
                        # cleared before the next drain, so a delivery
                        # queued after that drain still wakes the next wait
                        if self._wake.wait(lag):
                            self._wake.clear()
                        continue
                t, phase, _seq, fn = heapq.heappop(self._heap)
                self.clock.advance_to(t)
                try:
                    fn(t)
                except Exception as exc:
                    self._finalize(out_dir)
                    raise RunAbort(
                        f"task failed at sim t={t}: {exc!r}") from exc
            self._drain_injections()
            self.artifacts.completed = True
        finally:
            self._close_injections()
            self._stop_servers()
        self._finalize(out_dir)
        return self.artifacts

    def _finalize(self, out_dir: str | None) -> None:
        self.artifacts.blocked_count = self.fabric.blocked_count
        if out_dir:
            self.artifacts.export(out_dir)


def run_scenario(scenario: Scenario, out_dir: str | None = None,
                 pace: bool = True) -> RunArtifacts:
    return Runner(scenario, pace=pace).run(out_dir)
