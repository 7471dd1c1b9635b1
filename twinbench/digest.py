"""Digest of a run's artifacts, and the check against the committed one.

A digest keeps what must not change when the program is made faster:

- row counts, and a SHA-256 over every categorical column (timestamps,
  xids, storage mode, turbine command), which must match exactly;
- per float column (per xid for ``datapoints.csv``): count, sum, a
  position-weighted mean, min, max, first and last, which must match within
  ``REL_TOL`` relative (``ABS_TOL`` absolute near zero);
- every value of ``summary.csv``, within the same tolerance.

Each entry of ``digests.json`` holds the digest (``artifacts``) and the
fabric's delivery count (``delivered``) of one plain run: plant seed 42, no
operator stream, unpaced. ``python3 twinbench/digest.py`` re-records them
for the scenario and length of every workload. Only do that when a change
is meant to alter the artifacts, and say so.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys

REL_TOL = 1e-9
ABS_TOL = 1e-9
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def _floats(values: list[float]) -> dict:
    n = len(values)
    return {
        "n": n,
        "sum": math.fsum(values),
        "wmean": math.fsum((i + 1) * v for i, v in enumerate(values)) / n if n else 0.0,
        "min": min(values, default=0.0),
        "max": max(values, default=0.0),
        "first": values[0] if n else 0.0,
        "last": values[-1] if n else 0.0,
    }


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def compute(out_dir: str) -> dict:
    header, rows = _read(os.path.join(out_dir, "datapoints.csv"))
    per_xid: dict[str, tuple[list[str], list[float]]] = {}
    order = hashlib.sha256()
    for t, xid, value in rows:
        order.update(f"{t},{xid}\n".encode())
        ts, vs = per_xid.setdefault(xid, ([], []))
        ts.append(t)
        vs.append(float(value))
    datapoints = {
        "header": header, "rows": len(rows), "order_sha256": order.hexdigest(),
        "xids": {x: _floats(vs) for x, (_, vs) in sorted(per_xid.items())},
    }

    header, rows = _read(os.path.join(out_dir, "ems_ticks.csv"))
    categorical = {"timestamp", "storage_mode", "turbine_command"}
    cat_idx = [i for i, h in enumerate(header) if h in categorical]
    cats = hashlib.sha256()
    for row in rows:
        cats.update((",".join(row[i] for i in cat_idx) + "\n").encode())
    ems = {
        "header": header, "rows": len(rows), "categorical_sha256": cats.hexdigest(),
        "columns": {h: _floats([float(r[i]) for r in rows])
                    for i, h in enumerate(header) if h not in categorical},
    }

    header, rows = _read(os.path.join(out_dir, "summary.csv"))
    summary = {"header": header,
               "rows": [[r[0]] + [float(v) for v in r[1:]] for r in rows]}
    return {"datapoints.csv": datapoints, "ems_ticks.csv": ems, "summary.csv": summary}


def compare(expected, actual, path: str = "") -> list[str]:
    """Differences between two digests, as readable lines; empty if equal."""
    if isinstance(expected, float) or isinstance(actual, float):
        if (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
                and math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)):
            return []
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys differ: {sorted(expected.keys() ^ actual.keys())[:10]}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{path}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: {len(expected)} entries expected, got {len(actual)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path}: expected {expected!r}, got {actual!r}"]


def key(scenario_name: str, duration_s: float) -> str:
    return f"{scenario_name}@{duration_s:g}s"


def load() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def record() -> None:
    import shutil

    import run  # the workload table and the twin launcher

    digests = {}
    work = os.path.join(run.WORK, f"digest-{os.getpid()}")
    try:
        for name, wl in run.WORKLOADS.items():
            k = key(wl["digest"], wl["duration_s"])
            if k in digests:
                continue
            out = run.run_unpaced_rep(wl, run.scenario_path(wl, work), stream=None,
                                      trace=False, check=None, work=work)
            digests[k] = {"artifacts": out["digest"],
                          "delivered": out["counters"]["delivered"]}
            print(f"recorded {k} ({name}): {out['counters']}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
