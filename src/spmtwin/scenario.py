"""Scenario configuration: parsing and cross-validation.

A scenario JSON file declares the things (simulator type + parameters), the
devices binding them to the broker and Modbus, the network topology and
policy, the EMS configuration, the turnout model, and the run parameters
(duration, clock, seed). Loading dimension-checks every matrix and rejects
dangling references by name.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields
from datetime import datetime

from . import netfabric
from .ems import EmsConfig
from .occupancy import TurnoutModel
from .simcore import (
    INTERPOLATION_MODES,
    LinearStateSpace,
    SimClock,
    builtin_registry,
)


class ScenarioError(Exception):
    """Malformed or inconsistent scenario file."""


# ── thing specs ────────────────────────────────────────────────────────────


@dataclass
class InterpolationThingSpec:
    name: str
    feature: str
    prop: str
    mode: str
    source_csv: str


@dataclass
class CallbackThingSpec:
    name: str
    feature: str
    prop: str
    callback_name: str
    surface_m2: float
    efficiency: float
    source_thing: str


@dataclass
class SystemThingSpec:
    name: str
    feature: str
    A: list[list[float]]
    B: list[list[float]]
    x0: list[float]
    inputs: list[str]
    time_unit_scale: float = 1.0
    capacity_kwh: float | None = None
    rated_kw: float | None = None
    air_temp_c: float | None = None

    def build_system(self, dt: float = 1.0) -> LinearStateSpace:
        scale = self.time_unit_scale
        A = [[a * scale for a in row] for row in self.A]
        B = [[b * scale for b in row] for row in self.B]
        return LinearStateSpace(A=A, B=B, x=list(self.x0), dt=dt)


ThingSpec = InterpolationThingSpec | CallbackThingSpec | SystemThingSpec


# ── device specs ───────────────────────────────────────────────────────────


@dataclass
class ControllerSpec:
    thing: str
    node: str
    publish_period_s: float = 10.0
    command_property: str | None = None   # watched for mode/command writes


@dataclass
class CabinetSpec:
    building: str
    node: str
    base_load_w: float
    max_consumption_w: float
    unit_id: int = 1
    plc_scan_period_s: float = 0.1
    sample_period_s: float = 10.0


@dataclass
class NodeSpec:
    id: str
    segment: str


@dataclass
class EmsSpec:
    node: str = "ems"
    charge_ceiling: float = 90.0
    discharge_floor: float = 10.0
    turbine_threshold_kw: float = 65.0
    timer_period_s: float = 60.0

    def config(self) -> EmsConfig:
        return EmsConfig(self.charge_ceiling, self.discharge_floor,
                         self.turbine_threshold_kw, self.timer_period_s)


@dataclass
class TurnoutSpec:
    cluster_size: int = 10
    base_load_kw: float = 1.5
    mu_w: float = 25.0
    sigma_w: float = 5.0
    schedule_csv: str = "schedule.csv"
    period_s: float = 60.0

    def model(self, schedule: list[tuple[float, float]]) -> TurnoutModel:
        return TurnoutModel(self.cluster_size, self.base_load_kw, self.mu_w,
                            self.sigma_w, schedule)


@dataclass
class Scenario:
    name: str
    start_time: datetime
    duration_s: float
    seed: int
    clock_scale: float
    nodes: list[NodeSpec]
    policy: list[netfabric.FirewallRule]
    broker_node: str
    broker_http_port: int
    historian_node: str
    historian_http_port: int
    poll_period_s: float
    things: list[ThingSpec]
    controllers: list[ControllerSpec]
    cabinets: list[CabinetSpec]
    ems: EmsSpec
    turnout: TurnoutSpec
    base_dir: str = "."

    def path(self, rel: str) -> str:
        return rel if os.path.isabs(rel) else os.path.join(self.base_dir, rel)

    def thing(self, name: str) -> ThingSpec:
        for spec in self.things:
            if spec.name == name:
                return spec
        raise ScenarioError(f"unknown thing {name!r}")


def _req(obj: dict, key: str, where: str):
    try:
        return obj[key]
    except (KeyError, TypeError):
        raise ScenarioError(f"{where}: missing required key {key!r}") from None


def _object(raw, where: str, known, ignored=()) -> dict:
    """``raw`` as a JSON object, naming any key outside ``known``; keys in
    ``ignored`` are accepted and dropped."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = sorted(set(raw) - set(known) - set(ignored))
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {unknown}")
    return {k: v for k, v in raw.items() if k not in ignored}


def _typed(value, kind: str, where: str):
    """``value`` checked against the declared type ``kind``: ``"str"``,
    ``"int"`` or ``"float"`` (any finite JSON number, returned as float)."""
    if kind == "str" and isinstance(value, str):
        return value
    if not isinstance(value, bool):
        if kind == "int" and isinstance(value, int):
            return value
        if (kind == "float" and isinstance(value, (int, float))
                and math.isfinite(value)):
            return float(value)
    expected = {"str": "a string", "int": "an integer",
                "float": "a finite number"}[kind]
    raise ScenarioError(f"{where}: expected {expected}, got {value!r}")


def _get(obj: dict, key: str, kind: str, where: str, default=None):
    """The ``kind``-typed value of ``obj[key]``, or ``default`` if absent."""
    if key not in obj:
        return default
    return _typed(obj[key], kind, f"{where}.{key}")


def _section(cls, raw, where: str, ignored: tuple[str, ...] = ()):
    """Build the dataclass ``cls`` from the JSON object ``raw``, naming any
    key it does not declare, misses or holds with the wrong type; keys in
    ``ignored`` are accepted and dropped."""
    decl = {f.name: f for f in fields(cls)}
    raw = _object(raw, where, decl, ignored)
    args = {}
    for name, f in decl.items():
        if name not in raw:
            if f.default is MISSING:
                raise ScenarioError(f"{where}: missing required key {name!r}")
            continue
        # annotations are strings here; optional fields read "str | None"
        kind, _, optional = f.type.partition(" | ")
        value = raw[name]
        args[name] = (None if value is None and optional
                      else _typed(value, kind, f"{where}.{name}"))
    return cls(**args)


def _floats(raw, where: str) -> list[float]:
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: expected a list")
    return [_typed(v, "float", f"{where}[{i}]") for i, v in enumerate(raw)]


def _matrix(raw, where: str) -> list[list[float]]:
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: expected a list of rows")
    return [_floats(row, f"{where}[{i}]") for i, row in enumerate(raw)]


_THING_KEYS = {
    "interpolation": ("property", "mode", "source_csv"),
    "callback": ("property", "callbackName", "source", "args"),
    "systemSimulator": ("system", "x0", "inputs", "time_unit_scale",
                        "capacity_kwh", "rated_kw", "air_temp_c"),
}


def _parse_thing(raw: dict) -> ThingSpec:
    name = _req(raw, "name", "thing")
    where = f"thing {name!r}"
    kind = _req(raw, "type", where)
    feature = _req(raw, "feature", where)
    if kind not in _THING_KEYS:
        raise ScenarioError(f"{where}: unknown thing type {kind!r}")
    _object(raw, where, ("name", "type", "feature") + _THING_KEYS[kind])
    if kind == "interpolation":
        return InterpolationThingSpec(
            name=name, feature=feature,
            prop=_req(raw, "property", where),
            mode=raw.get("mode", "nearest-record"),
            source_csv=_req(raw, "source_csv", where),
        )
    if kind == "callback":
        args = _object(raw.get("args", {}), f"{where}.args",
                       ("surface_m2", "efficiency"))
        return CallbackThingSpec(
            name=name, feature=feature,
            prop=_req(raw, "property", where),
            callback_name=_req(raw, "callbackName", where),
            surface_m2=_typed(_req(args, "surface_m2", where), "float",
                              f"{where}.args.surface_m2"),
            efficiency=_typed(_req(args, "efficiency", where), "float",
                              f"{where}.args.efficiency"),
            source_thing=_req(raw, "source", where),
        )
    system = _object(_req(raw, "system", where), f"{where}.system", ("A", "B"))
    return SystemThingSpec(
        name=name, feature=feature,
        A=_matrix(_req(system, "A", where), f"{where}: A"),
        B=_matrix(_req(system, "B", where), f"{where}: B"),
        x0=_floats(_req(raw, "x0", where), f"{where}: x0"),
        inputs=list(raw.get("inputs", [])),
        time_unit_scale=_get(raw, "time_unit_scale", "float", where, 1.0),
        capacity_kwh=_get(raw, "capacity_kwh", "float", where),
        rated_kw=_get(raw, "rated_kw", "float", where),
        air_temp_c=_get(raw, "air_temp_c", "float", where),
    )


_TOP_LEVEL_KEYS = ("name", "start_time", "duration_s", "seed", "transport",
                   "clock", "network", "broker", "historian", "ems", "turnout",
                   "things", "devices")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None

    base_dir = os.path.dirname(os.path.abspath(path))
    raw = _object(raw, "scenario", _TOP_LEVEL_KEYS)
    transport = raw.get("transport", "inproc")
    if transport != "inproc":
        raise ScenarioError(
            f"unknown transport {transport!r}: only 'inproc' is supported")
    # clock.tick is a key of older scenario files; pacing has no tick
    clock = _object(raw.get("clock", {}), "clock", ("scale",), ignored=("tick",))
    network = _object(_req(raw, "network", "scenario"), "network",
                      ("policy", "policy_file", "nodes"))

    policy_raw = network.get("policy")
    if policy_raw is None and "policy_file" in network:
        policy_path = network["policy_file"]
        if not os.path.isabs(policy_path):
            policy_path = os.path.join(base_dir, policy_path)
        try:
            policy = netfabric.load_policy(policy_path)
        except FileNotFoundError:
            raise ScenarioError(f"policy file not found: {policy_path}") from None
    else:
        policy = netfabric.parse_policy(policy_raw or [])

    broker = _object(raw.get("broker", {}), "broker", ("node", "http_port"))
    historian = _object(raw.get("historian", {}), "historian",
                        ("node", "http_port", "poll_period_s"))
    devices = _object(raw.get("devices", {}), "devices",
                      ("controllers", "cabinets"))
    start_time = _get(raw, "start_time", "str", "scenario", "2016-06-06T00:00:00")
    try:
        start = datetime.fromisoformat(start_time)
    except ValueError:
        raise ScenarioError(
            f"scenario.start_time: not an ISO date-time: {start_time!r}") from None
    scenario = Scenario(
        name=_get(raw, "name", "str", "scenario", os.path.basename(path)),
        start_time=start,
        duration_s=_get(raw, "duration_s", "float", "scenario", 604800.0),
        seed=_get(raw, "seed", "int", "scenario", 0),
        clock_scale=_get(clock, "scale", "float", "clock", 1000.0),
        nodes=[_section(NodeSpec, n, "node") for n in network.get("nodes", [])],
        policy=policy,
        broker_node=_get(broker, "node", "str", "broker", "broker"),
        broker_http_port=_get(broker, "http_port", "int", "broker", 0),
        historian_node=_get(historian, "node", "str", "historian", "scada"),
        historian_http_port=_get(historian, "http_port", "int", "historian", 0),
        poll_period_s=_get(historian, "poll_period_s", "float", "historian", 10.0),
        things=[_parse_thing(t) for t in raw.get("things", [])],
        # a controller's feature is a key of older scenario files; its
        # thing's feature is the one published to
        controllers=[_section(ControllerSpec, c, "controller",
                              ignored=("feature",))
                     for c in devices.get("controllers", [])],
        cabinets=[_section(CabinetSpec, c, "cabinet")
                  for c in devices.get("cabinets", [])],
        # setpoint_kw is an EMS key of older scenario files; no dispatch
        # rule reads it
        ems=_section(EmsSpec, raw.get("ems", {}), "ems", ignored=("setpoint_kw",)),
        turnout=_section(TurnoutSpec, raw.get("turnout", {}), "turnout"),
        base_dir=base_dir,
    )
    validate_scenario(scenario)
    return scenario


def _check(where: str, build) -> None:
    """Run a model's own parameter checks on scenario values at load time."""
    try:
        build()
    except ValueError as exc:     # simcore's ConfigurationError included
        raise ScenarioError(f"{where}: {exc}") from None


def _check_file(s: Scenario, key: str, rel: str) -> None:
    """The run opens ``rel`` at start-up; only its existence is checked here."""
    if not os.path.isfile(s.path(rel)):
        raise ScenarioError(f"{key}: no such file {s.path(rel)!r}")


def validate_scenario(s: Scenario) -> None:
    # the loader admits only finite numbers; CLI overrides arrive here unchecked
    if not (math.isfinite(s.duration_s) and s.duration_s >= 0):
        raise ScenarioError(
            f"duration_s must be a finite number >= 0, got {s.duration_s!r}")
    if s.seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {s.seed}")
    if not math.isfinite(s.clock_scale):
        raise ScenarioError(
            f"clock.scale must be a finite number, got {s.clock_scale!r}")
    _check("clock.scale", lambda: SimClock(scale=s.clock_scale))
    _check("ems", s.ems.config)
    _check("turnout", lambda: s.turnout.model([]))
    # a period of 0 reschedules its task at the same instant forever
    periods = [("ems.timer_period_s", s.ems.timer_period_s),
               ("turnout.period_s", s.turnout.period_s),
               ("historian.poll_period_s", s.poll_period_s)]
    periods += [(f"controller {c.thing!r}: publish_period_s", c.publish_period_s)
                for c in s.controllers]
    for cab in s.cabinets:
        periods += [(f"cabinet {cab.building!r}: sample_period_s",
                     cab.sample_period_s),
                    (f"cabinet {cab.building!r}: plc_scan_period_s",
                     cab.plc_scan_period_s)]
    for key, period in periods:
        if period <= 0:
            raise ScenarioError(f"{key} must be > 0, got {period!r}")

    node_ids = set()
    for node in s.nodes:
        if node.id in node_ids:
            raise ScenarioError(f"duplicate node id {node.id!r}")
        if node.segment not in netfabric.SEGMENTS:
            raise ScenarioError(
                f"node {node.id!r}: unknown segment {node.segment!r}"
            )
        node_ids.add(node.id)
    for required in (s.broker_node, s.historian_node, s.ems.node):
        if required not in node_ids:
            raise ScenarioError(f"dangling node reference {required!r}")

    thing_names = set()
    registry = builtin_registry()
    for spec in s.things:
        if spec.name in thing_names:
            raise ScenarioError(f"duplicate thing {spec.name!r}")
        thing_names.add(spec.name)
        if isinstance(spec, SystemThingSpec):
            n = len(spec.A)
            if any(len(row) != n for row in spec.A):
                raise ScenarioError(f"thing {spec.name!r}: A must be square")
            if len(spec.B) != n or len({len(row) for row in spec.B}) > 1:
                raise ScenarioError(
                    f"thing {spec.name!r}: B rows must match A dimension"
                )
            m = len(spec.B[0]) if spec.B else 0
            if len(spec.x0) != n:
                raise ScenarioError(
                    f"thing {spec.name!r}: x0 length {len(spec.x0)} != {n}"
                )
            if spec.inputs and len(spec.inputs) != m:
                raise ScenarioError(
                    f"thing {spec.name!r}: {len(spec.inputs)} input bindings "
                    f"for a {m}-input system"
                )
        elif isinstance(spec, InterpolationThingSpec):
            if spec.mode not in INTERPOLATION_MODES:
                raise ScenarioError(
                    f"thing {spec.name!r}: unknown interpolation mode "
                    f"{spec.mode!r}"
                )
        elif isinstance(spec, CallbackThingSpec):
            if spec.callback_name not in registry:
                raise ScenarioError(
                    f"thing {spec.name!r}: unknown callbackName "
                    f"{spec.callback_name!r}"
                )
    sources = {spec.name for spec in s.things
               if isinstance(spec, InterpolationThingSpec)}
    for spec in s.things:
        if not isinstance(spec, CallbackThingSpec) or spec.source_thing in sources:
            continue
        if spec.source_thing not in thing_names:
            raise ScenarioError(
                f"thing {spec.name!r}: dangling source reference "
                f"{spec.source_thing!r}"
            )
        raise ScenarioError(
            f"thing {spec.name!r}: source {spec.source_thing!r} is not an "
            f"interpolation thing")

    for ctrl in s.controllers:
        if ctrl.thing not in thing_names:
            raise ScenarioError(
                f"controller: dangling thing reference {ctrl.thing!r}"
            )
        if ctrl.node not in node_ids:
            raise ScenarioError(
                f"controller {ctrl.thing!r}: dangling node reference {ctrl.node!r}"
            )
    buildings = set()
    for cab in s.cabinets:
        if cab.building in buildings:
            raise ScenarioError(f"duplicate cabinet building {cab.building!r}")
        buildings.add(cab.building)
        if cab.node not in node_ids:
            raise ScenarioError(
                f"cabinet {cab.building!r}: dangling node reference {cab.node!r}"
            )
        # the range a Modbus frame can carry (modbus.encode_frame)
        if not 0 <= cab.unit_id <= 0xFF:
            raise ScenarioError(
                f"cabinet {cab.building!r}: unit_id must be 0..255, "
                f"got {cab.unit_id}")

    # last, once the structure is valid: the files the run opens at start-up
    # (existence only; parsing them stays with the run)
    for spec in s.things:
        if isinstance(spec, InterpolationThingSpec):
            _check_file(s, f"thing {spec.name!r}: source_csv", spec.source_csv)
    _check_file(s, "turnout.schedule_csv", s.turnout.schedule_csv)
