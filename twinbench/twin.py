"""One twin process: set up a scenario several times, run it once, report.

Usage: ``python3 twinbench/twin.py SPEC.json``. The spec names the scenario,
its overrides, whether the run is paced or traced, and an optional operator
stream. The last line of standard output is a JSON object with the timings,
the run's counters and, when traced, the per-layer numbers. Set-ups and the
unpaced loop are interleaved with calibration slices (``cal_slice``), whose
CPU times ``run.py`` uses to scale CPU-bound times to a host of fixed
speed. A paced run first prints ``{"port": N}`` once the historian HTTP API is listening. With
``"setup_only": true`` the process only sets up and reports those times.

``spmtwin`` is imported from the ``src`` directory of the checkout that
holds this file, never from an installed copy.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import spmtwin  # noqa: E402

if os.path.dirname(os.path.abspath(spmtwin.__file__)) != os.path.join(SRC, "spmtwin"):
    sys.exit(f"spmtwin imported from {spmtwin.__file__}, not from {SRC}")

from datetime import datetime  # noqa: E402

from spmtwin import runner as runner_mod  # noqa: E402
from spmtwin import scenario as scenario_mod  # noqa: E402
from spmtwin.historian import HistorianError  # noqa: E402
from spmtwin.netfabric import Blocked  # noqa: E402

import spans as tracing  # noqa: E402
import stream as stream_mod  # noqa: E402

# after every built-in phase, so an operator op sees the state of its instant
PHASE_STREAM = runner_mod.PHASE_EMS + 1

# Wall seconds of the unpaced loop between two calibration slices.
CAL_EVERY_S = 0.05


def cal_slice() -> float:
    """Run a fixed piece of pure-Python work and return its CPU time.

    A shared host's CPUs can change speed by a third from minute to minute,
    and every time a run measures moves with them. Slices run before each set-up
    and every ``CAL_EVERY_S`` of the unpaced loop measure that speed where
    the twin runs, so that ``run.py`` can scale its times to a host of fixed
    speed. The slice's own time is left out of every measured interval."""
    c0 = time.process_time()
    table = {}
    acc = 0.0
    recent = []
    for i in range(6000):
        key = i & 255
        acc = acc * 0.999 + table.get(key, 0.5) * 1.5
        table[key] = acc - i
        recent.append((key, acc))
        if len(recent) > 64:
            recent.clear()
    return time.process_time() - c0


def calibrate_loop(runner, result: dict) -> None:
    """Run a calibration slice between two events whenever ``CAL_EVERY_S``
    of loop wall time has passed since the last one, recording its CPU time
    in ``cal_loop_s`` and its wall time in ``cal_loop_wall_s``."""
    clock = runner.clock
    advance_to = clock.advance_to
    perf = time.perf_counter
    due = [perf() + CAL_EVERY_S]
    cpu, wall = result["cal_loop_s"], result["cal_loop_wall_s"]

    def advance(t):
        now = perf()
        if now >= due[0]:
            cpu.append(cal_slice())
            end = perf()
            wall.append(end - now)
            due[0] = end + CAL_EVERY_S
        return advance_to(t)

    clock.advance_to = advance


def load(spec: dict):
    scenario = scenario_mod.load_scenario(spec["scenario"])
    scenario.duration_s = float(spec["duration_s"])
    if spec.get("start_time"):
        scenario.start_time = datetime.fromisoformat(spec["start_time"])
    if spec.get("clock_scale"):
        scenario.clock_scale = float(spec["clock_scale"])
    return scenario


def schedule_stream(runner, stream: dict, result: dict) -> None:
    """Queue the operator stream as events every ``period_s`` of sim time
    from ``offset_s``, delivered management -> historian API exactly as the
    runner delivers a drained injection. Each op is delivered twice in a
    row and the second delivery is timed: a single delivery between
    thousands of other events runs from cold caches, and on a shared host
    its time follows other tenants' memory traffic more than the twin's
    own work."""
    s = runner.scenario
    mgmt = next(n.id for n in s.nodes if n.segment == "management")
    cabinets = [c.node for c in s.cabinets]
    xids = [p["xid"] for p in runner.historian.get_all()]
    times = stream_mod.times(s.duration_s, stream["period_s"], stream["offset_s"])
    perf = time.perf_counter

    def deliver(t, request):
        try:
            return runner.fabric.deliver(mgmt, s.historian_node, "api", request)
        except (HistorianError, Blocked) as exc:
            print(f"stream op {request} at t={t} failed: {exc}", file=sys.stderr)
            return None

    def op(t, is_command, target, value):
        request = ({"type": "command", "target": target, "value": value}
                   if is_command else {"type": "latest", "xid": target})
        warm = deliver(t, request)
        start = perf()
        reply = deliver(t, request)
        latency = perf() - start
        if warm is None or reply is None:
            result["stream_failed"] += 1
            return
        if is_command:
            result["cmd_lat_s"].append(latency)
            ok = warm.get("ok") is True and reply.get("ok") is True
        else:
            result["read_lat_s"].append(latency)
            ok = min(warm.get("timestamp", -1), reply.get("timestamp", -1)) >= 0
        if not ok:
            result["stream_failed"] += 1

    for t, o in zip(times, stream_mod.ops(stream["seed"], len(times))):
        args = stream_mod.resolve(o, cabinets, xids)
        runner._schedule(t, PHASE_STREAM, lambda t, a=args: op(t, *a))


def set_up(spec: dict, n: int, result: dict):
    """Set up ``n`` times, each after a calibration slice, appending the CPU
    times to ``result``; returns the last runner."""
    cpu = time.process_time
    for _ in range(n):
        result["cal_setup_s"].append(cal_slice())
        t0 = cpu()
        scenario = load(spec)
        t1 = cpu()
        runner = runner_mod.Runner(scenario, pace=spec["pace"])
        result["load_s"].append(t1 - t0)
        result["build_s"].append(cpu() - t1)
        # discarded runners hold reference cycles: free them now, so that
        # repeated set-ups do not inflate the run's peak RSS
        gc.collect()
    return runner


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    os.sched_setaffinity(0, [spec["cpu"]])
    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer()
        tracing.install(tracer)

    # half the set-ups before the run and half after it, so that setup_s
    # samples the host over the whole process, not one burst
    result = {"load_s": [], "build_s": [], "cal_setup_s": [],
              "cal_loop_s": [], "cal_loop_wall_s": [],
              "cmd_lat_s": [], "read_lat_s": [], "stream_failed": 0}
    runner = set_up(spec, spec["setups"] // 2, result)
    scenario = runner.scenario
    if spec.get("setup_only"):
        set_up(spec, spec["setups"] - len(result["load_s"]), result)
        print(json.dumps(result))
        return
    if spec.get("stream"):
        schedule_stream(runner, spec["stream"], result)
    if not spec["pace"]:
        calibrate_loop(runner, result)

    marks = {}
    start_servers, stop_servers = runner._start_servers, runner._stop_servers
    export = runner.artifacts.export

    def top_s():
        return tracer.main_top_s if tracer is not None else 0.0

    def timed_start():
        start_servers()
        marks["top_start"] = top_s()
        marks["loop_start"] = time.perf_counter()
        marks["loop_start_cpu"] = time.process_time()
        if spec["pace"]:
            print(json.dumps({"port": runner.historian_http.port}), flush=True)

    def timed_stop():
        marks["loop_end"] = time.perf_counter()
        marks["loop_end_cpu"] = time.process_time()
        marks["top_s"] = top_s() - marks["top_start"]
        stop_servers()

    def timed_export(out_dir):
        t0 = time.perf_counter()
        try:
            return export(out_dir)
        finally:
            marks["export_s"] = time.perf_counter() - t0

    runner._start_servers, runner._stop_servers = timed_start, timed_stop
    runner.artifacts.export = timed_export

    t0, c0 = time.perf_counter(), time.process_time()
    artifacts = runner.run(spec["out_dir"])
    result["run_s"] = time.perf_counter() - t0
    # CPU time leaves out the servers' shutdown poll, a sleep of 0-0.5 s each
    cal_s = sum(result["cal_loop_s"])
    result["run_cpu_s"] = time.process_time() - c0 - cal_s
    result["loop_cpu_s"] = marks["loop_end_cpu"] - marks["loop_start_cpu"] - cal_s
    result["loop_s"] = (marks["loop_end"] - marks["loop_start"]
                        - sum(result["cal_loop_wall_s"]))
    result["export_s"] = marks["export_s"]
    result["loop_top_s"] = marks["top_s"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    hist = runner.historian
    result["counters"] = {
        "duration_s": scenario.duration_s,
        "samples": len(hist.log),
        "gaps": sum(hist.point(x).error_count for x in hist._order),
        "ems_ticks": len(artifacts.ems_ticks),
        "ems_skipped": artifacts.skipped_ems_ticks,
        "publish_errors": artifacts.publish_errors,
        "delivered": runner.fabric.delivered_count,
        "blocked": runner.fabric.blocked_count,
        "nodes_final": len(runner.fabric._nodes),
        "completed": artifacts.completed,
    }
    if tracer is not None:
        result["trace"] = layer_metrics(tracer, result)
        result["span_calls"] = dict(tracer.calls)
        # an injection waits for the loop, minus the command it then runs
        result["inject_wait_s"] = [a - b for a, b in zip(
            tracer.durations["runner.inject"], tracer.durations["historian.command.injected"])]
        if spec.get("spans_path"):
            tracer.dump(spec["spans_path"])
    del runner, artifacts
    gc.collect()
    set_up(spec, spec["setups"] - len(result["load_s"]), result)
    print(json.dumps(result))


def layer_metrics(t: tracing.Tracer, result: dict) -> dict:
    """Per-layer numbers of one traced run, keyed as in BENCHMARK.json."""
    c = result["counters"]
    attempts = t.counts["historian.poll"]
    self_s = t.self_s
    return {
        "scenario.load_s": statistics.median(result["load_s"]),
        "runner.build_s": statistics.median(result["build_s"]),
        "runner.events": t.counts["runner.events"],
        "runner.loop_s": result["loop_s"],
        "runner.loop_self_s": result["loop_s"] - result["loop_top_s"],
        "simcore.step.calls": t.calls["simcore.step"],
        "simcore.step.self_s": self_s["simcore.step"],
        "simcore.rk4_substeps": t.counts["simcore.rk4_substeps"],
        "devices.controller.self_s": self_s["devices.controller"],
        "devices.cabinet.sample.calls": t.calls["devices.cabinet.sample"],
        "devices.cabinet.sample.self_s": self_s["devices.cabinet.sample"],
        "devices.plc.scan.calls": t.calls["devices.plc.scan"],
        "devices.plc.scan.self_s": self_s["devices.plc.scan"],
        "devices.plc.trips": t.counts["devices.plc.trips"],
        "occupancy.sync.self_s": self_s["occupancy.sync"],
        "occupancy.building_loads.self_s": self_s["occupancy.building_loads"],
        "occupancy.clients_spawned": t.counts["occupancy.clients_spawned"],
        "modbus.frames": t.counts["modbus.frames"],
        "modbus.codec.self_s": self_s["modbus.codec"],
        "modbus.serve.self_s": self_s["modbus.serve"],
        "netfabric.deliveries": c["delivered"],
        "netfabric.blocked": c["blocked"],
        "netfabric.deliver.self_s": self_s["netfabric.deliver"],
        "netfabric.nodes_final": c["nodes_final"],
        "broker.puts": t.calls["broker.put"],
        "broker.gets": t.calls["broker.get"],
        "broker.events": t.counts["broker.events"],
        "broker.request.self_s": self_s["broker.request"],
        "broker.put.self_s": self_s["broker.put"],
        "broker.get.self_s": self_s["broker.get"],
        "historian.samples": c["samples"],
        "historian.gaps": c["gaps"],
        "historian.useful_ratio": c["samples"] / attempts if attempts else 0.0,
        "historian.poll_attempts": attempts,
        "historian.poll_host.self_s": self_s["historian.poll_host"],
        "historian.poll_derived.self_s": self_s["historian.poll_derived"],
        "historian.transport.self_s": self_s["historian.transport"],
        "historian.log_rows": c["samples"],
        "historian.export_s": result["export_s"],
        "ems.ticks": t.calls["ems.tick"],
        "ems.skipped": c["ems_skipped"],
        "ems.tick.self_s": self_s["ems.tick"],
        "trace.spans_dropped": t.dropped,
    }


if __name__ == "__main__":
    main(sys.argv[1])
