"""Command-line entry point.

Subcommands: ``validate`` checks a scenario file and the rows of the data
files it names, ``run`` executes it on the accelerated clock and writes
artifacts (``--no-pace`` runs it as fast as the host allows), ``inject``
posts an operator command to a live run's management API.

Exit codes: 0 success, 2 scenario validation failure, 3 runtime abort,
130 interrupted (Ctrl-C; a run finishes its artifacts first).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .runner import RunAbort, Runner, StartupError, read_data_files
from .scenario import ScenarioError, load_scenario, validate_scenario
from .simcore import ConfigurationError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RUNTIME = 3
EXIT_INTERRUPTED = 130


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spmtwin",
        description="Microgrid digital twin: accelerated scenario engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario")

    p_run = sub.add_parser("run", help="run a scenario on the paced clock")
    p_run.add_argument("scenario")
    p_run.add_argument("--duration", type=float, default=None,
                       help="override duration in simulated seconds")
    p_run.add_argument("--scale", type=float, default=None,
                       help="override real-to-simulated clock ratio")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario RNG seed")
    p_run.add_argument("--out", default=None,
                       help="directory for datapoints.csv, ems_ticks.csv "
                            "and summary.csv (default: write no file)")
    p_run.add_argument("--no-pace", action="store_true",
                       help="run as fast as possible (results are identical)")
    p_run.add_argument("--quiet", action="store_true")

    p_inject = sub.add_parser(
        "inject", help="send a command to a running scenario's historian")
    p_inject.add_argument("--url", default="http://127.0.0.1:8081",
                          help="historian HTTP base URL")
    p_inject.add_argument("--target", required=True,
                          help="broker:THING/feature/prop or modbus:HOST/coil/ADDR")
    p_inject.add_argument("--value", required=True)
    return parser


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _load(path: str, args) -> "object":
    scenario = load_scenario(path)
    if args.duration is not None:
        scenario.duration_s = args.duration
    if args.scale is not None:
        scenario.clock_scale = args.scale
    if args.seed is not None:
        scenario.seed = args.seed
    validate_scenario(scenario)   # the overrides get the file's checks too
    return scenario


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    read_data_files(scenario)     # a bad row fails here as it would fail a run
    print(f"{args.scenario}: OK ({scenario.name}, "
          f"{len(scenario.things)} things, {len(scenario.cabinets)} cabinets, "
          f"duration {scenario.duration_s:.0f}s)")
    return EXIT_OK


def cmd_run(args) -> int:
    scenario = _load(args.scenario, args)
    runner = Runner(scenario, pace=not args.no_pace)
    if not args.quiet:
        print(f"running {scenario.name}: {scenario.duration_s:.0f}s simulated "
              f"at 1:{scenario.clock_scale:g}, seed {scenario.seed}")

    def say_where():     # `spmtwin inject --url` takes the historian URL
        print(f"listening: broker {runner.broker_http.url}, "
              f"historian {runner.historian_http.url}", flush=True)

    artifacts = runner.run(out_dir=args.out,
                           on_listening=None if args.quiet else say_where)
    if not args.quiet:
        print(f"done: {len(artifacts.ems_ticks)} control ticks, "
              f"{artifacts.blocked_count} blocked deliveries, "
              f"{artifacts.skipped_ems_ticks} skipped ticks ("
              + ", ".join(f"{reason} {n}" for reason, n
                          in artifacts.skipped_by_reason.items()) + ")")
        if args.out:
            print(f"artifacts in {args.out}")
    return EXIT_OK


def cmd_inject(args) -> int:
    import urllib.error         # here: no other verb makes an HTTP request
    import urllib.request
    body = json.dumps(
        {"target": args.target, "value": _parse_value(args.value)}).encode()
    request = urllib.request.Request(
        args.url.rstrip("/") + "/command", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            print(resp.read().decode())
    except urllib.error.HTTPError as exc:
        print(exc.read().decode(), file=sys.stderr)
        return EXIT_RUNTIME
    except urllib.error.URLError as exc:
        print(f"cannot reach historian at {args.url}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING)
    args = build_parser().parse_args(argv)
    handlers = {"validate": cmd_validate, "run": cmd_run, "inject": cmd_inject}
    try:
        return handlers[args.command](args)
    except (ScenarioError, ConfigurationError) as exc:   # bad data files too
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (RunAbort, StartupError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:     # a run's artifacts are finished by now
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
