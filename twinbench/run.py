#!/usr/bin/env python3
"""Benchmark of the spmtwin digital twin.

    python3 twinbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (each chosen for the layer it stresses; see README.md):

- ``reference``: ``scenarios/spm.json`` unpaced, the paper's plant.
- ``campus-scaled``: a 60-building variant generated from it, unpaced.
- ``live-ops``: the reference plant paced at 1:1440 in its own process while
  this process sends an open-loop stream to its historian HTTP API.

Every twin run is a fresh process (``twin.py``) whose artifacts must match
the committed digest (``digests.json``), whose operator ops must all succeed
and whose fabric delivery count must equal the digest's plus those the
stream adds; any difference exits 1 without a result.
CPU-bound times (set-ups, the unpaced runs) are scaled to a host of fixed
speed by calibration slices run in the same process (``CAL_REF_S``).
The plant seed is the scenario's own (42) in every workload, so that every
run is checked; ``--seed`` draws the operator stream (op order and targets).
With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics from a traced
run plus an untraced one for ``trace.overhead_ratio``. Human-readable lines
go first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
TWIN = os.path.join(HERE, "twin.py")
SPM = os.path.join(ROOT, "scenarios", "spm.json")

sys.path.insert(0, HERE)
import campus  # noqa: E402
import digest  # noqa: E402
import stream  # noqa: E402

SETUPS = 40             # set-ups per twin process, half before its run and half after
TWIN_TIMEOUT_S = 150
# CPU seconds of one calibration slice (twin.cal_slice) on the build host at
# its usual speed. CPU-bound times are reported at the host speed that runs
# the slice in this time: measured time * CAL_REF_S / mean slice time.
CAL_REF_S = 0.002

# rep_s: nominal seconds of one unpaced twin process, so that a run makes
# round(--seconds / rep_s) of them. The stream period gives each process at
# least 1000 commands and 1000 reads, so that ten samples lie beyond p99.
# setup_procs: set-up-only processes that live-ops runs, half before its one
# twin process and half after, so that its setup_s, like the unpaced ones,
# pools set-ups from several moments of the run.
WORKLOADS = {
    "reference": {
        "digest": "spm", "duration_s": 86400.0, "rep_s": 10.0,
        "stream_period_s": 40.0, "stream_offset_s": 15.0,
    },
    "campus-scaled": {
        "digest": "campus-x60", "buildings": 60, "start_time": "2016-06-06T10:00:00",
        "duration_s": 14400.0, "rep_s": 10.0,
        "stream_period_s": 6.0, "stream_offset_s": 10.5,
    },
    "live-ops": {
        "digest": "spm", "duration_s": 43200.0, "clock_scale": 1440.0,
        "rate_hz": 75.0, "warmup_s": 0.5, "tail_s": 1.5, "setup_procs": 4,
    },
}


class BenchError(Exception):
    """The program or the checkout failed; no result is reported."""


def percentile_ms(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method) of seconds, in ms."""
    if not values:
        raise BenchError("no latency samples")
    if len(values) < 2:
        return 1000.0 * values[0]
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scenario_path(wl: dict, work: str = WORK) -> str:
    if "buildings" in wl:
        return campus.generate(SPM, work, wl["buildings"])
    return SPM


# ── twin processes ─────────────────────────────────────────────────────────


def start_twin(wl: dict, scenario: str, work: str, *, pace: bool, trace: bool,
               stream_spec: dict | None, spans_path: str | None = None,
               layout: int = 1, setup_only: bool = False):
    """Start one twin process. ``layout`` fixes its string-hash seed: the
    seed moves the twin's speed by ~10 % through dict and set layouts, so
    every run measures the same layouts 1..n instead of random ones. The twin
    pins itself to the first CPU this process may use: the CPUs of a shared
    host can differ in speed by a quarter, and an unpinned twin would land on
    either."""
    out_dir = os.path.join(work, f"out-{time.monotonic_ns()}")
    spec = {
        "scenario": scenario, "duration_s": wl["duration_s"],
        "start_time": wl.get("start_time"), "clock_scale": wl.get("clock_scale"),
        "pace": pace, "trace": trace, "setups": SETUPS, "out_dir": out_dir,
        "stream": stream_spec, "spans_path": spans_path, "setup_only": setup_only,
        "cpu": min(os.sched_getaffinity(0)),
    }
    spec_path = out_dir + ".json"
    os.makedirs(work, exist_ok=True)
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen([sys.executable, TWIN, spec_path], stdout=subprocess.PIPE,
                            text=True, env=dict(os.environ, PYTHONHASHSEED=str(layout)))
    return proc, out_dir


def finish_twin(proc, out_dir: str, check: dict | None) -> dict:
    """Wait for the twin, parse its result and check its artifacts against
    ``check``, an entry of ``digests.json``."""
    try:
        out, _ = proc.communicate(timeout=TWIN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        if proc.returncode != 0:
            raise BenchError(f"twin process exited with {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        if "counters" in result:    # a run, not set-ups only
            if not result["counters"]["completed"]:
                raise BenchError("twin run did not complete")
            result["digest"] = digest.compute(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if os.path.exists(out_dir + ".json"):
            os.remove(out_dir + ".json")
    if check is not None:
        diffs = digest.compare(check["artifacts"], result["digest"])
        if diffs:
            raise BenchError("artifacts differ from the committed digest:\n  "
                             + "\n  ".join(diffs[:20]))
    return result


def run_unpaced_rep(wl: dict, scenario: str, stream: dict | None, trace: bool,
                    check: dict | None, work: str = WORK,
                    spans_path: str | None = None, layout: int = 1) -> dict:
    proc, out_dir = start_twin(wl, scenario, work, pace=False, trace=trace,
                               stream_spec=stream, spans_path=spans_path, layout=layout)
    return finish_twin(proc, out_dir, check)


def run_setups(wl: dict, scenario: str, work: str, layout: int) -> dict:
    """A twin process that only sets up, ``SETUPS`` times."""
    proc, out_dir = start_twin(wl, scenario, work, pace=True, trace=False,
                               stream_spec=None, layout=layout, setup_only=True)
    return finish_twin(proc, out_dir, None)


def check_stream(result: dict, ops: int, delivered: int) -> None:
    """Every op of the operator stream must have succeeded, and the fabric
    must have made ``delivered`` deliveries: a command that never reaches its
    device leaves the artifacts unchanged, but not this count."""
    commands = stream.commands(ops)
    got = (len(result["cmd_lat_s"]), len(result["read_lat_s"]), result["stream_failed"])
    if got != (commands, ops - commands, 0):
        raise BenchError(f"operator stream: {got[0]} commands, {got[1]} reads and "
                         f"{got[2]} failures; expected {commands}, {ops - commands} and 0")
    if result["counters"]["delivered"] != delivered:
        raise BenchError(f"{result['counters']['delivered']} fabric deliveries, "
                         f"expected {delivered}")


# ── live-ops load generator ────────────────────────────────────────────────


def read_port(proc, timeout: float) -> int:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            raise BenchError("twin did not announce its HTTP port")
    line = proc.stdout.readline()
    if not line:
        raise BenchError("twin exited before announcing its HTTP port")
    return json.loads(line)["port"]


def http_json(port: int, method: str, path: str, body: dict | None = None):
    """One request on its own connection, as ``spmtwin inject`` sends it."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        if body is None:
            conn.request(method, path)
        else:
            conn.request(method, path, body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def generate_load(port: int, loop_start: float, wl: dict, seed: int,
                  cabinets: list[str]) -> dict:
    """Open loop from one thread: op k is due at
    ``loop_start + warmup_s + k / rate_hz`` whatever happened to op k-1, and
    its latency runs from that due time."""
    _, points = http_json(port, "GET", "/datapoint/getAll")
    xids = [p["xid"] for p in points]
    window = wl["duration_s"] / wl["clock_scale"] - wl["warmup_s"] - wl["tail_s"]
    rate = wl["rate_hz"]
    t0 = loop_start + wl["warmup_s"]
    cmd, read, late = [], [], []
    failed = 0
    perf = time.perf_counter
    for k, op in enumerate(stream.ops(seed, int(window * rate))):
        is_command, target, value = stream.resolve(op, cabinets, xids)
        due = t0 + k / rate
        wait = due - perf()
        if wait > 0:
            time.sleep(wait)
        late.append(perf() - due)
        try:
            if is_command:
                status, reply = http_json(port, "POST", "/command",
                                          {"target": target, "value": value})
                ok = status == 200 and reply.get("ok") is True
            else:
                status, reply = http_json(port, "GET", f"/datapoint/{target}/latest")
                ok = status == 200 and "timestamp" in reply
        except (OSError, http.client.HTTPException, ValueError) as exc:
            print(f"request {target} failed: {exc!r}", file=sys.stderr)
            ok = False
        if ok:
            (cmd if is_command else read).append(perf() - due)
        else:
            failed += 1
    return {"cmd_lat_s": cmd, "read_lat_s": read, "late_s": late,
            "sent": len(late), "failed": failed}


def run_live_rep(wl: dict, scenario: str, seed: int, trace: bool, check: dict,
                 work: str = WORK, spans_path: str | None = None) -> dict:
    """The twin and this generator each get a CPU of their own, so that the
    generator takes no time from the twin and the twin's threads share one
    CPU, as they share one interpreter lock."""
    with open(scenario) as fh:
        cabinets = [c["node"] for c in json.load(fh)["devices"]["cabinets"]]
    cpus = sorted(os.sched_getaffinity(0))
    proc, out_dir = start_twin(wl, scenario, work, pace=True, trace=trace,
                               stream_spec=None, spans_path=spans_path)
    try:
        if len(cpus) >= 2:
            os.sched_setaffinity(0, cpus[1:2])
        port = read_port(proc, TWIN_TIMEOUT_S)
        load = generate_load(port, time.perf_counter(), wl, seed, cabinets)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.sched_setaffinity(0, cpus)
    result = finish_twin(proc, out_dir, check)
    result.update(load)
    result["stream_failed"] = load["failed"]
    return result


# ── metrics ────────────────────────────────────────────────────────────────


def host_factor(slices: list[float]) -> float:
    """Scale from this host's speed, as the calibration ``slices`` measured
    it, to the reference speed of ``CAL_REF_S``."""
    return CAL_REF_S / statistics.fmean(slices)


def loop_factor(result: dict) -> float:
    """1 for a paced run, whose times the clock sets; else the host factor
    of the slices run during its loop."""
    return host_factor(result["cal_loop_s"]) if result["cal_loop_s"] else 1.0


def sim_rate(result: dict) -> float:
    """Unpaced: simulated seconds per loop CPU second at reference speed.
    Paced: per loop wall second, the pace kept."""
    if result["cal_loop_s"]:
        return result["counters"]["duration_s"] / (result["loop_cpu_s"] * loop_factor(result))
    return result["counters"]["duration_s"] / result["loop_s"]


def end_to_end(results: list[dict], setup_runs: list[dict]) -> tuple[dict, dict]:
    """(metrics, notes): medians over twin processes, latencies pooled;
    setup_s over every set-up of ``setup_runs``. CPU-bound times are scaled
    to the reference host speed; the times of a paced run are not."""
    setups = [(a + b) * host_factor(r["cal_setup_s"]) for r in setup_runs
              for a, b in zip(r["load_s"], r["build_s"])]
    cmd = [x * loop_factor(r) for r in results for x in r["cmd_lat_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["run_cpu_s"] * loop_factor(r) if r["cal_loop_s"]
                                    else r["run_s"] for r in results),
        "sim_rate": statistics.median(sim_rate(r) for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "cmd_latency_p50_ms": percentile_ms(cmd, 50),
    }
    n = len(results)
    slices = sum(len(r["cal_loop_s"]) for r in results)
    per_proc = f"median of {n} twin processes"
    notes = {"setup_s": f"median of {len(setups)} set-ups in {len(setup_runs)} processes",
             "wall_s": per_proc, "sim_rate": per_proc, "peak_rss_mb": per_proc,
             "cmd_latency_p50_ms": f"{len(cmd)} samples"}
    if slices:
        factor = statistics.median(loop_factor(r) for r in results)
        for name in ("wall_s", "sim_rate", "cmd_latency_p50_ms"):
            notes[name] += f", {slices} calibration slices, host factor {factor:.3f}"
    factor = statistics.median(host_factor(r["cal_setup_s"]) for r in setup_runs)
    notes["setup_s"] += f", host factor {factor:.3f}"
    return metrics, notes


def attempted_failed(results: list[dict], live: bool) -> tuple[int, int]:
    """Live: requests sent and failed. Unpaced: poll attempts, EMS ticks,
    fabric deliveries and stream ops, against poll gaps, skipped ticks,
    publish errors, blocked deliveries and failed stream ops. Any failure is
    an error: none occurs on a healthy run."""
    if live:
        attempted = sum(r["sent"] for r in results)
        failed = sum(r["failed"] for r in results)
    else:
        attempted = failed = 0
        for r in results:
            c = r["counters"]
            attempted += (c["samples"] + c["gaps"] + c["ems_ticks"] + c["ems_skipped"]
                          + c["delivered"] + c["blocked"]
                          + len(r["cmd_lat_s"]) + len(r["read_lat_s"]) + r["stream_failed"])
            failed += (c["gaps"] + c["ems_skipped"] + c["publish_errors"] + c["blocked"]
                       + r["stream_failed"])
    if failed:
        raise BenchError(f"{failed} of {attempted} operations failed")
    return attempted, failed


# ── main ───────────────────────────────────────────────────────────────────


def check_checkout() -> dict:
    for path in (os.path.join(ROOT, "src", "spmtwin", "__init__.py"), SPM,
                 os.path.join(ROOT, "BENCHMARK.json"), digest.DIGESTS):
        if not os.path.isfile(path):
            raise BenchError(f"not a checkout of the twin: {path} is missing")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool, work: str) -> tuple[dict, dict, int, int]:
    wl = WORKLOADS[workload]
    live = "clock_scale" in wl
    check = digest.load()[digest.key(wl["digest"], wl["duration_s"])]
    scenario = scenario_path(wl, work)
    stream_spec = None if live else {"seed": seed, "period_s": wl["stream_period_s"],
                                     "offset_s": wl["stream_offset_s"]}

    def rep(traced: bool, layout: int = 1) -> dict:
        spans = os.path.join(WORK, f"spans-{workload}.npz") if traced else None
        if live:
            # each command is delivered management -> historian -> device;
            # reads are served by the HTTP server without the fabric
            r = run_live_rep(wl, scenario, seed, traced, check, work, spans)
            check_stream(r, r["sent"], check["delivered"] + 2 * stream.commands(r["sent"]))
        else:
            # each op is delivered twice management -> historian, and each
            # command on to its device
            r = run_unpaced_rep(wl, scenario, stream_spec, traced, check, work, spans, layout)
            ops = len(stream.times(wl["duration_s"], wl["stream_period_s"],
                                   wl["stream_offset_s"]))
            check_stream(r, ops, check["delivered"] + 2 * (ops + stream.commands(ops)))
        return r

    if not trace:
        if live:
            half = wl["setup_procs"] // 2
            before = [run_setups(wl, scenario, work, layout) for layout in range(1, half + 1)]
            results = [rep(False)]
            after = [run_setups(wl, scenario, work, layout)
                     for layout in range(half + 1, wl["setup_procs"] + 1)]
            setup_runs = before + results + after
        else:
            reps = max(1, round(seconds / wl["rep_s"]))
            results = [rep(False, layout) for layout in range(1, reps + 1)]
            setup_runs = results
        metrics, notes = end_to_end(results, setup_runs)
        return (metrics, notes) + attempted_failed(results, live)

    plain, traced = rep(False), rep(True)
    metrics = dict(traced["trace"])
    for q in (50, 99):   # only live-ops injects; the others report 0.0
        metrics[f"runner.inject_wait_p{q}_ms"] = (
            percentile_ms(traced["inject_wait_s"], q) if live else 0.0)
    metrics["trace.overhead_ratio"] = sim_rate(plain) / sim_rate(traced)
    # latencies too unsteady between runs to bound (see README): the untraced
    # process reports them here, unbounded
    for name, qs in (("cmd", (95, 99)), ("read", (50, 95, 99))):
        for q in qs:
            metrics[f"loadgen.{name}_p{q}_ms"] = percentile_ms(plain[f"{name}_lat_s"], q)
    if live:
        metrics["loadgen.sent"] = traced["sent"]
        metrics["loadgen.late_p99_ms"] = percentile_ms(traced["late_s"], 99)
    else:
        metrics["loadgen.sent"] = (len(traced["cmd_lat_s"]) + len(traced["read_lat_s"])
                                   + traced["stream_failed"])
        metrics["loadgen.late_p99_ms"] = 0.0   # in-process ops run when due
    notes = {f"{span}.self_s": f"{calls} calls" for span, calls in traced["span_calls"].items()}
    notes["trace.overhead_ratio"] = "untraced / traced sim_rate"
    notes["historian.useful_ratio"] = (f"{traced['trace']['historian.samples']} samples / "
                                       f"{traced['trace']['historian.poll_attempts']} poll attempts")
    return (metrics, notes) + attempted_failed([plain, traced], live)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        bench = check_checkout()
        metrics, notes, attempted, failed = run(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"twinbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"twinbench: no value for {missing}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:14s} {name:34s} {value:>16.6f} {units.get(name, '')}{note}")
    print(f"{args.workload:14s} {'failed_ratio':34s} {failed / attempted:>16.6f} ratio"
          f"  ({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
