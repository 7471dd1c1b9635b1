"""The operator stream: latest-value reads and state-preserving commands.

Both generators draw from here: the in-process one that queues ops as
simulated-time events (unpaced workloads) and the HTTP one that sends them
on a wall-clock schedule (``live-ops``). Every command rewrites a value the
plant already holds, so a run with the stream must export the same
artifacts as the run without it.
"""

from __future__ import annotations

import random

# devices.MASTER_COIL: every cabinet's feed is on and nothing switches it off
# during a run, so re-asserting it is a no-op write through Modbus + PLC.
MASTER_COIL = 101
# No controller publishes the sun simulator's radiance and no datapoint polls
# it, so it keeps its initial 0.0.
RADIANCE = "broker:FDT:sun-simulator/sky/radiance"


def times(duration_s: float, period_s: float, offset_s: float) -> list[float]:
    """Simulated times of the in-process stream: every ``period_s`` from
    ``offset_s`` up to the end of the run."""
    return [offset_s + k * period_s
            for k in range(int((duration_s - offset_s) // period_s) + 1)]


def commands(n: int) -> int:
    """How many of ``ops(seed, n)`` are commands; the rest are reads."""
    return n // 2


def ops(seed: int, n: int) -> list[tuple[str, int]]:
    """``n`` ops: half reads, a quarter coil writes, a quarter broker writes,
    in an order and with target indices drawn from ``seed``."""
    rng = random.Random(seed)
    kinds = ["read"] * (n - n // 2) + ["coil"] * (n // 2 - n // 4) + ["radiance"] * (n // 4)
    rng.shuffle(kinds)
    return [(kind, rng.randrange(1 << 30)) for kind in kinds]


def resolve(op: tuple[str, int], cabinet_nodes: list[str],
            xids: list[str]) -> tuple[bool, str, object]:
    """(is_command, target or xid, value) of one op."""
    kind, index = op
    if kind == "coil":
        node = cabinet_nodes[index % len(cabinet_nodes)]
        return True, f"modbus:{node}/coil/{MASTER_COIL}", True
    if kind == "radiance":
        return True, RADIANCE, 0.0
    return False, xids[index % len(xids)], None
