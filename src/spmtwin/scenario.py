"""Scenario configuration: parsing and cross-validation.

A scenario JSON file declares the things (simulator type + parameters), the
devices binding them to the broker and Modbus, the network topology and
policy, the EMS configuration, the turnout model, and the run parameters
(duration, clock, seed). Loading dimension-checks every matrix and rejects
dangling references by name.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from datetime import datetime

from . import netfabric
from .simcore import LinearStateSpace, builtin_registry


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
    feature: str
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


@dataclass
class TurnoutSpec:
    cluster_size: int = 10
    base_load_kw: float = 1.5
    mu_w: float = 25.0
    sigma_w: float = 5.0
    schedule_csv: str = "schedule.csv"
    period_s: float = 60.0


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


def _section(cls, raw, where: str, ignored: tuple[str, ...] = ()):
    """Build the dataclass ``cls`` from the JSON object ``raw``, naming any
    key it does not declare; keys in ``ignored`` are accepted and dropped."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected an object")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(raw) - known - set(ignored))
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {unknown}")
    return cls(**{k: v for k, v in raw.items() if k in known})


def _parse_thing(raw: dict) -> ThingSpec:
    name = _req(raw, "name", "thing")
    where = f"thing {name!r}"
    kind = _req(raw, "type", where)
    feature = _req(raw, "feature", where)
    if kind == "interpolation":
        return InterpolationThingSpec(
            name=name, feature=feature,
            prop=_req(raw, "property", where),
            mode=raw.get("mode", "nearest-record"),
            source_csv=_req(raw, "source_csv", where),
        )
    if kind == "callback":
        args = raw.get("args", {})
        return CallbackThingSpec(
            name=name, feature=feature,
            prop=_req(raw, "property", where),
            callback_name=_req(raw, "callbackName", where),
            surface_m2=float(_req(args, "surface_m2", where)),
            efficiency=float(_req(args, "efficiency", where)),
            source_thing=_req(raw, "source", where),
        )
    if kind == "systemSimulator":
        system = _req(raw, "system", where)
        return SystemThingSpec(
            name=name, feature=feature,
            A=_req(system, "A", where), B=_req(system, "B", where),
            x0=list(_req(raw, "x0", where)),
            inputs=list(raw.get("inputs", [])),
            time_unit_scale=float(raw.get("time_unit_scale", 1.0)),
            capacity_kwh=raw.get("capacity_kwh"),
            rated_kw=raw.get("rated_kw"),
            air_temp_c=raw.get("air_temp_c"),
        )
    raise ScenarioError(f"{where}: unknown thing type {kind!r}")


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
    transport = raw.get("transport", "inproc")
    if transport != "inproc":
        raise ScenarioError(
            f"unknown transport {transport!r}: only 'inproc' is supported")
    clock = raw.get("clock", {})
    network = _req(raw, "network", "scenario")

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

    broker = raw.get("broker", {})
    historian = raw.get("historian", {})
    scenario = Scenario(
        name=raw.get("name", os.path.basename(path)),
        start_time=datetime.fromisoformat(
            raw.get("start_time", "2016-06-06T00:00:00")),
        duration_s=float(raw.get("duration_s", 604800)),
        seed=int(raw.get("seed", 0)),
        clock_scale=float(clock.get("scale", 1000.0)),
        nodes=[NodeSpec(_req(n, "id", "node"), _req(n, "segment", "node"))
               for n in network.get("nodes", [])],
        policy=policy,
        broker_node=broker.get("node", "broker"),
        broker_http_port=int(broker.get("http_port", 0)),
        historian_node=historian.get("node", "scada"),
        historian_http_port=int(historian.get("http_port", 0)),
        poll_period_s=float(historian.get("poll_period_s", 10.0)),
        things=[_parse_thing(t) for t in raw.get("things", [])],
        controllers=[
            ControllerSpec(
                thing=_req(c, "thing", "controller"),
                node=_req(c, "node", "controller"),
                feature=c.get("feature", ""),
                publish_period_s=float(c.get("publish_period_s", 10.0)),
                command_property=c.get("command_property"),
            )
            for c in raw.get("devices", {}).get("controllers", [])
        ],
        cabinets=[
            CabinetSpec(
                building=_req(c, "building", "cabinet"),
                node=_req(c, "node", "cabinet"),
                base_load_w=float(_req(c, "base_load_w", "cabinet")),
                max_consumption_w=float(_req(c, "max_consumption_w", "cabinet")),
                unit_id=int(c.get("unit_id", 1)),
                plc_scan_period_s=float(c.get("plc_scan_period_s", 0.1)),
                sample_period_s=float(c.get("sample_period_s", 10.0)),
            )
            for c in raw.get("devices", {}).get("cabinets", [])
        ],
        # setpoint_kw is an EMS key of older scenario files; no dispatch
        # rule reads it
        ems=_section(EmsSpec, raw.get("ems", {}), "ems", ignored=("setpoint_kw",)),
        turnout=_section(TurnoutSpec, raw.get("turnout", {}), "turnout"),
        base_dir=base_dir,
    )
    validate_scenario(scenario)
    return scenario


def validate_scenario(s: Scenario) -> None:
    if s.duration_s < 0:
        raise ScenarioError("duration_s must be >= 0")

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
        elif isinstance(spec, CallbackThingSpec):
            if spec.callback_name not in registry:
                raise ScenarioError(
                    f"thing {spec.name!r}: unknown callbackName "
                    f"{spec.callback_name!r}"
                )
    for spec in s.things:
        if isinstance(spec, CallbackThingSpec) and spec.source_thing not in thing_names:
            raise ScenarioError(
                f"thing {spec.name!r}: dangling source reference "
                f"{spec.source_thing!r}"
            )

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
