"""Scenario configuration: parsing and cross-validation.

A scenario JSON file declares the things (simulator type + parameters), the
devices binding them to the broker and Modbus, the network topology and
policy, the EMS configuration, the turnout model, and the run parameters
(duration, clock, seed). Loading reads every key with its declared type,
builds each model and field controller once to run its own parameter checks,
and rejects dangling references by name, so a file that loads can run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields
from datetime import datetime

from . import netfabric
from .broker import THING_ID_RE
from .devices import StorageController, TurbineController
from .ems import EmsConfig
from .occupancy import TurnoutModel
from .simcore import (
    CALLBACKS,
    NEAREST,
    ConfigurationError,
    InterpolationTable,
    LinearStateSpace,
    SimClock,
)


class ScenarioError(Exception):
    """Malformed or inconsistent scenario file."""


# the thing the run creates for the campus turnout, beside the file's things
TURNOUT_THING = "FDT:campus-turnout"


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

    def build_controller(self) -> StorageController | TurbineController:
        """The field controller of this system's shape: 1 state x 2 inputs
        is a storage, 2 states x 3 inputs a turbine."""
        system = self.build_system()
        shape = (system.n, system.m)
        if shape == (1, 2):
            return StorageController(system)
        if shape == (2, 3):
            given = {"rated_kw": self.rated_kw, "air_temp_c": self.air_temp_c}
            return TurbineController(system, **{
                key: value for key, value in given.items() if value is not None})
        raise ConfigurationError(
            f"system shape {system.n}x{system.m} is neither 1x2 (storage) "
            f"nor 2x3 (turbine)")


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


# the default of a key that must be present; a dataclass field without a
# default has this one
_REQUIRED = MISSING


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"{what} not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None


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
    ``"int"``, ``"float"`` (any finite JSON number, returned as float), or
    ``"list[<kind>]"`` of any of these, each item checked."""
    if kind.startswith("list["):
        if isinstance(value, list):
            return [_typed(item, kind[5:-1], f"{where}[{i}]")
                    for i, item in enumerate(value)]
    elif kind == "str":
        if isinstance(value, str):
            return value
    elif not isinstance(value, bool):
        if kind == "int" and isinstance(value, int):
            return value
        if (kind == "float" and isinstance(value, (int, float))
                and math.isfinite(value)):
            return float(value)
    expected = {"str": "a string", "int": "an integer", "float": "a finite number",
                "list": "a list"}[kind.partition("[")[0]]
    raise ScenarioError(f"{where}: expected {expected}, got {value!r}")


def _get(obj: dict, key: str, kind: str, where: str, default=None):
    """The ``kind``-typed value of ``obj[key]``, or ``default`` if absent; a
    key whose default is ``_REQUIRED`` must be present."""
    if key in obj:
        return _typed(obj[key], kind, f"{where}.{key}")
    if default is _REQUIRED:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return default


def _section(cls, raw, where: str, ignored: tuple[str, ...] = ()):
    """Build the dataclass ``cls`` from the JSON object ``raw``, naming any
    key it does not declare, misses or holds with the wrong type; keys in
    ``ignored`` are accepted and dropped."""
    decl = {f.name: f for f in fields(cls)}
    raw = _object(raw, where, decl, ignored)
    args = {}
    for name, f in decl.items():
        # annotations are strings here; optional fields read "str | None"
        kind, _, optional = f.type.partition(" | ")
        args[name] = (None if optional and raw.get(name) is None
                      else _get(raw, name, kind, where, f.default))
    return cls(**args)


def parse_policy(raw, where: str = "network.policy") -> list[netfabric.FirewallRule]:
    """Firewall rules from a JSON list of ``{src, dst, verdict, priority}``
    objects; :class:`netfabric.FirewallRule` checks each rule's values."""
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: expected a list, got {raw!r}")
    rules = []
    for i, entry in enumerate(raw):
        at = f"{where}[{i}]"
        entry = _object(entry, at, ("src", "dst", "verdict", "priority"))
        src, dst, verdict = (_get(entry, key, "str", at, _REQUIRED)
                             for key in ("src", "dst", "verdict"))
        priority = _get(entry, "priority", "int", at, 0)
        rules.append(_check(at, lambda: netfabric.FirewallRule(
            src, dst, verdict, priority)))
    return rules


_THING_KEYS = {
    "interpolation": ("property", "mode", "source_csv"),
    "callback": ("property", "callbackName", "source", "args"),
    "systemSimulator": ("system", "x0", "inputs", "time_unit_scale",
                        "capacity_kwh", "rated_kw", "air_temp_c"),
}


def _parse_thing(raw) -> ThingSpec:
    if not isinstance(raw, dict):
        raise ScenarioError(f"thing: expected an object, got {raw!r}")
    name = _get(raw, "name", "str", "thing", _REQUIRED)
    where = f"thing {name!r}"
    kind = _get(raw, "type", "str", where, _REQUIRED)
    if kind not in _THING_KEYS:
        raise ScenarioError(f"{where}: unknown thing type {kind!r}")
    _object(raw, where, ("name", "type", "feature") + _THING_KEYS[kind])
    feature = _get(raw, "feature", "str", where, _REQUIRED)
    if kind == "interpolation":
        return InterpolationThingSpec(
            name=name, feature=feature,
            prop=_get(raw, "property", "str", where, _REQUIRED),
            mode=_get(raw, "mode", "str", where, NEAREST),
            source_csv=_get(raw, "source_csv", "str", where, _REQUIRED),
        )
    if kind == "callback":
        args = _object(raw.get("args", {}), f"{where}.args",
                       ("surface_m2", "efficiency"))
        return CallbackThingSpec(
            name=name, feature=feature,
            prop=_get(raw, "property", "str", where, _REQUIRED),
            callback_name=_get(raw, "callbackName", "str", where, _REQUIRED),
            surface_m2=_get(args, "surface_m2", "float", f"{where}.args",
                            _REQUIRED),
            efficiency=_get(args, "efficiency", "float", f"{where}.args",
                            _REQUIRED),
            source_thing=_get(raw, "source", "str", where, _REQUIRED),
        )
    system = _object(raw.get("system"), f"{where}.system", ("A", "B"))
    return SystemThingSpec(
        name=name, feature=feature,
        A=_get(system, "A", "list[list[float]]", f"{where}.system", _REQUIRED),
        B=_get(system, "B", "list[list[float]]", f"{where}.system", _REQUIRED),
        x0=_get(raw, "x0", "list[float]", where, _REQUIRED),
        inputs=_get(raw, "inputs", "list[str]", where, []),
        time_unit_scale=_get(raw, "time_unit_scale", "float", where, 1.0),
        capacity_kwh=_get(raw, "capacity_kwh", "float", where),
        rated_kw=_get(raw, "rated_kw", "float", where),
        air_temp_c=_get(raw, "air_temp_c", "float", where),
    )


_TOP_LEVEL_KEYS = ("name", "start_time", "duration_s", "seed", "transport",
                   "clock", "network", "broker", "historian", "ems", "turnout",
                   "things", "devices")


def load_scenario(path: str) -> Scenario:
    raw = _read_json(path, "scenario file")
    base_dir = os.path.dirname(os.path.abspath(path))
    raw = _object(raw, "scenario", _TOP_LEVEL_KEYS)
    transport = raw.get("transport", "inproc")
    if transport != "inproc":
        raise ScenarioError(
            f"unknown transport {transport!r}: only 'inproc' is supported")
    # clock.tick is a key of older scenario files; pacing has no tick
    clock = _object(raw.get("clock", {}), "clock", ("scale",), ignored=("tick",))
    network = _object(raw.get("network"), "network",
                      ("policy", "policy_file", "nodes"))
    if "policy" not in network and "policy_file" in network:
        policy_path = os.path.join(
            base_dir, _get(network, "policy_file", "str", "network"))
        policy = parse_policy(_read_json(policy_path, "policy file"),
                              policy_path)
    else:
        policy = parse_policy(network.get("policy", []))

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


def _check(where: str, build):
    """Run a model's own parameter checks on scenario values at load time;
    returns what ``build`` built."""
    try:
        return build()
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
    single: dict[str, str] = {}   # kind -> its thing: a run takes one of each
    for spec in s.things:
        where = f"thing {spec.name!r}"
        kind = None
        if spec.name in thing_names or spec.name == TURNOUT_THING:
            raise ScenarioError(f"duplicate thing {spec.name!r}")
        thing_names.add(spec.name)
        # the broker's rule for a thing id
        if not THING_ID_RE.match(spec.name):
            raise ScenarioError(
                f"{where}: name must be 'namespace:name' "
                f"(pattern {THING_ID_RE.pattern})")
        if isinstance(spec, SystemThingSpec):
            ctl = _check(where, spec.build_controller)
            kind = "storage" if isinstance(ctl, StorageController) else "turbine"
            m = ctl.system.m
            if spec.inputs and len(spec.inputs) != m:
                raise ScenarioError(
                    f"{where}: {len(spec.inputs)} input bindings "
                    f"for a {m}-input system"
                )
        elif isinstance(spec, InterpolationThingSpec):
            # the table's own mode check; its points are read by the run
            _check(where, lambda: InterpolationTable([0.0], [0.0], spec.mode))
        else:
            kind = "solar field"
            if spec.callback_name not in CALLBACKS:
                raise ScenarioError(
                    f"{where}: unknown callbackName {spec.callback_name!r}")
        if kind and single.setdefault(kind, spec.name) != spec.name:
            raise ScenarioError(f"{where}: a second {kind} after "
                                f"{single[kind]!r}; a run takes one")
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

    controlled = set()
    for ctrl in s.controllers:
        if ctrl.thing in controlled:
            raise ScenarioError(f"duplicate controller for thing {ctrl.thing!r}")
        controlled.add(ctrl.thing)
        if ctrl.thing not in thing_names:
            raise ScenarioError(
                f"controller: dangling thing reference {ctrl.thing!r}"
            )
        if ctrl.node not in node_ids:
            raise ScenarioError(
                f"controller {ctrl.thing!r}: dangling node reference {ctrl.node!r}"
            )
    buildings, cabinet_nodes = set(), set()
    for cab in s.cabinets:
        if cab.building in buildings:
            raise ScenarioError(f"duplicate cabinet building {cab.building!r}")
        buildings.add(cab.building)
        if cab.node not in node_ids:
            raise ScenarioError(
                f"cabinet {cab.building!r}: dangling node reference {cab.node!r}"
            )
        # a node serves one Modbus register file
        if cab.node in cabinet_nodes:
            raise ScenarioError(
                f"cabinet {cab.building!r}: node {cab.node!r} already has a "
                f"cabinet")
        cabinet_nodes.add(cab.node)
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
