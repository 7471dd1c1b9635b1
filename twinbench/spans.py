"""Span tracing installed from outside the program.

:func:`install` wraps the public functions of each ``spmtwin`` layer (and the
few runner hooks that bind them) so that every call records a span: name,
start, end and the span that caused it. Spans are kept in flat in-memory
arrays and written with :meth:`Tracer.dump` when the run ends. Self time, a
span's duration minus the time its child spans cover, is summed per name as
spans close, so the per-layer numbers do not depend on the span cap.

Install before the ``Runner`` is built: it binds several methods (fabric
handlers, historian transport) at construction time.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from array import array
from collections import Counter, defaultdict

# Spans kept for the dump; self times and counts cover every span regardless.
SPAN_CAP = 1_000_000

# Fabric service -> span name of the handler that serves it, so that
# ``netfabric.deliver`` self time excludes the destination's work.
HANDLER_SPANS = {
    "modbus": "modbus.serve",
    "http": "broker.request",
    "api": "historian.api",
    "command": "devices.command",
}


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self.main_thread = threading.get_ident()
        self.main_top_s = 0.0         # main-thread time inside top-level spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self.dropped = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int, parent: int, start: float) -> int:
        with self._lock:
            idx = len(self._name)
            if idx >= self.span_cap:
                self.dropped += 1
                return -1
            self._name.append(nid)
            self._parent.append(parent)
            self._start.append(start)
            self._end.append(math.nan)
        return idx

    def wrap(self, name: str, fn, keep_durations: bool = False):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self._id(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][1] if stack else -1
            start = perf()
            frame = [0.0, self._open(nid, parent, start)]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
                if keep_durations:
                    self.durations[name].append(duration)
                if frame[1] >= 0:
                    self._end[frame[1]] = end
                if stack:
                    stack[-1][0] += duration
                elif threading.get_ident() == self.main_thread:
                    self.main_top_s += duration

        return traced

    def count(self, name: str, fn):
        """Return ``fn`` wrapped to count calls only (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        """Write the kept spans as an ``.npz`` of parallel arrays."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self._name, "i4"),
            parent=np.frombuffer(self._parent, "i4"),
            start=np.frombuffer(self._start, "f8"), end=np.frombuffer(self._end, "f8"),
            dropped=np.array(self.dropped))


def _substeps(dt_sub: float, dt: float) -> int:
    # same arithmetic as LinearStateSpace.step's sub-step loop
    n, remaining = 0, dt
    while remaining > 1e-12:
        remaining -= min(dt_sub, remaining)
        n += 1
    return n


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions in place (process-wide)."""
    from spmtwin import broker, devices, historian, modbus, netfabric
    from spmtwin import occupancy, runner, simcore

    t = tracer

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, t.wrap(name, getattr(owner, attr), **kw))

    simcore.SimClock.advance_to = t.count("runner.events", simcore.SimClock.advance_to)
    counts = t.counts

    # simcore: state-space stepping, with the RK4 sub-step count
    step = simcore.LinearStateSpace.step

    def counted_step(self, u, dt):
        counts["simcore.rk4_substeps"] += _substeps(self.dt, dt)
        return step(self, u, dt)

    simcore.LinearStateSpace.step = t.wrap("simcore.step", functools.wraps(step)(counted_step))

    # devices
    patch(devices.SolarController, "telemetry", "devices.controller")
    patch(devices.StorageController, "advance", "devices.controller")
    patch(devices.TurbineController, "advance", "devices.controller")
    patch(devices.TurbineController, "telemetry", "devices.controller")
    patch(devices.SmartCabinet, "sample", "devices.cabinet.sample")
    scan = devices.TripPlc.scan

    def counted_scan(self, rf):
        before = self._last_coil
        coil = scan(self, rf)
        if coil and not before:
            counts["devices.plc.trips"] += 1
        return coil

    devices.TripPlc.scan = t.wrap("devices.plc.scan", functools.wraps(scan)(counted_scan))

    # occupancy
    sync = occupancy.ClientPopulation.sync

    def counted_sync(self, persons):
        diff = sync(self, persons)
        counts["occupancy.clients_spawned"] += len(diff.spawned)
        return diff

    occupancy.ClientPopulation.sync = t.wrap("occupancy.sync", functools.wraps(sync)(counted_sync))
    patch(occupancy.ClientPopulation, "building_loads_w", "occupancy.building_loads")

    # modbus codec and device endpoint
    for fn in ("encode_frame", "decode_frame"):
        setattr(modbus, fn, t.wrap("modbus.codec", t.count("modbus.frames", getattr(modbus, fn))))
    for fn in ("read_request", "write_coil_request", "parse_read_registers_response",
               "parse_read_coils_response"):
        patch(modbus, fn, "modbus.codec")
    patch(modbus, "serve_frame_bytes", "modbus.serve")

    # netfabric: deliveries, with every registered handler as a child span
    patch(netfabric.Fabric, "deliver", "netfabric.deliver")
    register = netfabric.Fabric.register_handler

    def traced_register(self, node_id, service, fn):
        return register(self, node_id, service,
                        t.wrap(HANDLER_SPANS.get(service, "netfabric.handler"), fn))

    netfabric.Fabric.register_handler = traced_register

    # broker
    patch(broker.Broker, "handle_request", "broker.request")
    patch(broker.Broker, "put_property", "broker.put")
    patch(broker.Broker, "get_property", "broker.get")
    broker.Subscription._offer = t.count("broker.events", broker.Subscription._offer)

    # historian: polling, transport glue, commands
    patch(historian.Historian, "poll_host", "historian.poll_host")
    patch(historian.Historian, "poll_derived", "historian.poll_derived")
    historian.Historian.poll = t.count("historian.poll", historian.Historian.poll)
    for fn in ("_read_broker", "_read_modbus", "_write_broker", "_write_modbus_coil"):
        patch(runner.Runner, fn, "historian.transport")
    # an injected command is the one issued while the loop drains the queue
    issue = historian.Historian.issue_command
    drain = runner.Runner._drain_injections
    injected = t.durations["historian.command.injected"]
    perf = time.perf_counter
    draining = [False]

    def timed_issue(self, target, value):
        if not draining[0]:
            return issue(self, target, value)
        start = perf()
        try:
            return issue(self, target, value)
        finally:
            injected.append(perf() - start)

    def flagged_drain(self):
        draining[0] = True
        try:
            return drain(self)
        finally:
            draining[0] = False

    historian.Historian.issue_command = t.wrap(
        "historian.command", functools.wraps(issue)(timed_issue))
    runner.Runner._drain_injections = functools.wraps(drain)(flagged_drain)

    # ems and the runner's injection path
    patch(runner.Runner, "_task_ems", "ems.tick")
    patch(runner.Runner, "inject", "runner.inject", keep_durations=True)
