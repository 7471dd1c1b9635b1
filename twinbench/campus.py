"""Generate the N-building ``campus-scaled`` variant of the reference plant.

Every building of ``scenarios/spm.json`` keeps its cabinet parameters; the
variant has ``buildings`` of them, each with its own field node, cabinet and
Modbus consumption datapoint. The weekly turnout schedule is scaled by
``buildings / 6`` so that per-building load, and with it the trip rate, stays
that of the reference plant.
"""

from __future__ import annotations

import csv
import json
import os


def generate(reference: str, out_dir: str, buildings: int) -> str:
    """Write the variant (scenario, schedule) into ``out_dir``; returns the
    scenario path. Files the variant shares with the reference are referenced
    by absolute path, so nothing is copied."""
    with open(reference) as fh:
        raw = json.load(fh)
    ref_dir = os.path.dirname(os.path.abspath(reference))
    template = raw["devices"]["cabinets"][0]
    scale = buildings / len(raw["devices"]["cabinets"])

    cabinet_nodes = {c["node"] for c in raw["devices"]["cabinets"]}
    nodes = [n for n in raw["network"]["nodes"] if n["id"] not in cabinet_nodes]
    cabinets = []
    for i in range(buildings):
        node = f"cab-{i:03d}"
        nodes.append({"id": node, "segment": "field"})
        cabinets.append(dict(template, building=f"b{i:03d}", node=node))
    raw["network"]["nodes"] = nodes
    raw["devices"]["cabinets"] = cabinets
    raw["name"] = f"{raw['name']}-x{buildings}"

    raw["network"]["policy_file"] = os.path.join(ref_dir, raw["network"]["policy_file"])
    for thing in raw["things"]:
        if "source_csv" in thing:
            thing["source_csv"] = os.path.join(ref_dir, thing["source_csv"])

    os.makedirs(out_dir, exist_ok=True)
    schedule = os.path.join(out_dir, f"schedule-x{buildings}.csv")
    with open(os.path.join(ref_dir, raw["turnout"]["schedule_csv"]), newline="") as src, \
            open(schedule, "w", newline="") as dst:
        rows = csv.reader(src)
        out = csv.writer(dst, lineterminator="\n")
        out.writerow(next(rows))
        for day, hour, persons in rows:
            out.writerow([day, hour, repr(float(persons) * scale)])
    raw["turnout"]["schedule_csv"] = os.path.basename(schedule)

    path = os.path.join(out_dir, f"campus-x{buildings}.json")
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1)
    return path
