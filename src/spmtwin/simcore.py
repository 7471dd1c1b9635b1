"""Simulation clock and the physical-layer model primitives.

Three modelling methods are provided: interpolation over finite datasets,
linear state-space stepping (a cached closed-form propagator equal to
fixed-step RK4 with sub-step ``dt``), and named callbacks (:data:`CALLBACKS`)
for closed-form pipelines such as the solar surface model.

A radiance CSV is the header ``timestamp,watt_per_msq`` and unquoted ASCII
rows ``<ISO 8601 time>,<float>``, times increasing and all naive or all aware,
LF or CRLF, blank lines skipped. A run reads it as it starts; a bad row raises
:class:`ConfigurationError` naming ``path:line``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import reduce
from itertools import islice, repeat
from operator import add, lt, mul, sub
from typing import Callable, Sequence


class ConfigurationError(ValueError):
    """A model or clock was built or queried with inconsistent parameters."""


# ── Clock ──────────────────────────────────────────────────────────────────


@dataclass
class SimClock:
    """Simulated time source.

    All module logic reads time from here, never from the wall clock.
    ``scale`` is the ratio of simulated to real elapsed seconds that paced
    runs keep.
    """

    scale: float = 1000.0
    sim_epoch: float = 0.0

    def __post_init__(self):
        if self.scale < 1:
            raise ConfigurationError("clock scale must be >= 1")

    def advance_to(self, sim_time: float) -> float:
        """Jump directly to ``sim_time`` (used by the event-driven runner)."""
        if sim_time < self.sim_epoch:
            raise ValueError(
                f"sim time may not go backwards: {sim_time} < {self.sim_epoch}"
            )
        self.sim_epoch = sim_time
        return self.sim_epoch

    def now(self) -> float:
        return self.sim_epoch


# ── Interpolation ──────────────────────────────────────────────────────────

LINEAR = "linear-bracketing"
NEAREST = "nearest-record"
INTERPOLATION_MODES = (LINEAR, NEAREST)


@dataclass
class InterpolationTable:
    """Finite dataset, columns ``xs`` and ``ys``, queried by interpolation.

    ``linear-bracketing`` interpolates linearly over the smallest bracketing
    interval; ``nearest-record`` returns the y of the temporally closest
    record. Out-of-range queries clamp to the nearest endpoint.
    """

    xs: Sequence[float]
    ys: Sequence[float]
    mode: str = LINEAR

    def __post_init__(self):
        if not self.xs:
            raise ConfigurationError("interpolation table must have at least one point")
        if self.mode not in INTERPOLATION_MODES:
            raise ConfigurationError(f"unknown interpolation mode {self.mode!r}")
        if not all(map(lt, self.xs, islice(self.xs, 1, None))):
            raise ConfigurationError("table x values must be strictly increasing")


def interpolate(table: InterpolationTable, x: float) -> float:
    """Evaluate ``table`` at ``x`` according to its mode."""
    xs, ys = table.xs, table.ys
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    hi = bisect_right(xs, x)
    lo = hi - 1
    if table.mode == NEAREST:
        return ys[lo] if (x - xs[lo]) <= (xs[hi] - x) else ys[hi]
    frac = (x - xs[lo]) / (xs[hi] - xs[lo])
    return ys[lo] + frac * (ys[hi] - ys[lo])


# ── Linear state-space ─────────────────────────────────────────────────────

def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    # a left-to-right fold, not sum(): from Python 3.12 on sum() of floats is
    # compensated, and a seed's artifacts would depend on the interpreter
    return reduce(add, map(mul, a, b), 0.0)


def _matmul(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


# step horizons cached per system; a run steps each system with one horizon,
# its controller's publish period
_PROPAGATOR_CACHE_SIZE = 4


@dataclass
class LinearStateSpace:
    """x' = A x + B u with constant matrices, advanced by fixed-step RK4.

    ``dt`` is the RK4 sub-step in simulated seconds. ``step`` covers any
    horizon with the sub-steps of size ``dt`` plus one partial remainder,
    applied as one affine propagator that composes them; it is built on the
    first step of each horizon and cached, so ``A``, ``B`` and ``dt`` are
    fixed once the system has stepped.

    A system at rest is not stepped again. A step that leaves ``x`` equal to
    what it was keeps its horizon, its input and a copy of the state; the
    next step with an equal horizon, input and state returns that copy. This
    is exact. Each row's sum folds from ``+0.0``, so it never yields
    ``-0.0``, and a step's result depends only on the values of ``x`` and
    ``u``, not on the signs of their zeros. So an equal state steps to the
    kept copy, bit for bit. A NaN never compares equal, so a NaN state is
    always stepped. ``x`` may be written in place between steps (a storage
    clamps its level so): the copy is compared, not the list.
    """

    A: Sequence[Sequence[float]]
    B: Sequence[Sequence[float]]
    x: Sequence[float]
    dt: float = 1.0

    def __post_init__(self):
        n = len(self.A)
        if any(len(row) != n for row in self.A):
            raise ConfigurationError("A must be square")
        if len(self.B) != n:
            raise ConfigurationError("B rows must match the A dimension")
        m = len(self.B[0]) if self.B else 0
        if any(len(row) != m for row in self.B):
            raise ConfigurationError("B rows must have equal length")
        if len(self.x) != n:
            raise ConfigurationError("state x0 length must equal the A dimension")
        if self.dt <= 0:
            raise ConfigurationError("dt must be > 0")
        self.A = [list(map(float, row)) for row in self.A]
        self.B = [list(map(float, row)) for row in self.B]
        self.x = list(map(float, self.x))
        self._n, self._m = n, m
        self._propagators: dict[float, list[list[float]]] = {}
        # (dt, u, x) of the last step that left x as it was, else None
        self._rest: tuple[float, tuple[float, ...], list[float]] | None = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    def _propagator(self, dt: float) -> list[list[float]]:
        """Rows ``[Φ | Γ]`` of the map ``x⁺ = Φ x + Γ u`` that the RK4
        sub-steps covering ``dt`` compose to, for ``u`` held constant.

        With ``u`` constant, ``z = (x, u)`` obeys ``z' = Z z`` with
        ``Z = [[A, B], [0, 0]]``, and one RK4 sub-step of size ``h`` is
        exactly ``z⁺ = Σ_{k=0..4} (hZ)^k/k! z``. The sub-steps are those of a
        fixed-step integrator: ``self.dt`` each plus one partial remainder,
        a remainder of 1e-12 s or less dropped.
        """
        rows = self._propagators.get(dt)
        if rows is not None:
            return rows
        n, m = self._n, self._m
        Z = [row + brow for row, brow in zip(self.A, self.B)]
        Z += [[0.0] * (n + m) for _ in range(m)]
        eye = [[float(i == j) for j in range(n + m)] for i in range(n + m)]
        prop = eye
        remaining = dt
        while remaining > 1e-12:
            h = min(self.dt, remaining)
            term = sub = eye
            for k in range(1, 5):
                c = h / k
                term = [[v * c for v in row] for row in _matmul(term, Z)]
                sub = [list(map(add, r, t)) for r, t in zip(sub, term)]
            prop = _matmul(sub, prop)
            remaining -= h
        rows = prop[:n]
        if len(self._propagators) >= _PROPAGATOR_CACHE_SIZE:
            del self._propagators[next(iter(self._propagators))]
        self._propagators[dt] = rows
        return rows

    def step(self, u: Sequence[float], dt: float) -> list[float]:
        """Advance the state by ``dt`` simulated seconds under input ``u``,
        held constant over the step; returns a copy of the new state."""
        if len(u) != self._m:
            raise ConfigurationError(
                f"input length {len(u)} does not match B columns {self._m}"
            )
        if dt <= 0:
            raise ConfigurationError("step dt must be > 0")
        x, rest = self.x, self._rest
        if rest is not None and rest[0] == dt and rest[2] == x \
                and rest[1] == tuple(u):
            # at rest: the kept copy, not x, whose zeros may be -0.0
            self.x = list(rest[2])
            return list(rest[2])
        xu = [*x, *u]
        # _dot, inlined: a call per row would cost ~0.4 us
        self.x = new = [reduce(add, map(mul, row, xu), 0.0)
                        for row in self._propagator(dt)]
        self._rest = (dt, tuple(u), list(new)) if new == x else None
        return list(new)

    def steady_state(self, u: Sequence[float]) -> list[float]:
        """Solve A x* + B u = 0 by Gaussian elimination with partial
        pivoting, as LAPACK ``gesv`` does; raises for singular A."""
        if len(u) != self._m:
            raise ConfigurationError("input length does not match B columns")
        n = self._n
        # the augmented rows [A | -B u]
        rows = [[*a, -_dot(b, u)] for a, b in zip(self.A, self.B)]
        for k in range(n):
            p = max(range(k, n), key=lambda i: abs(rows[i][k]))
            if rows[p][k] == 0.0:
                raise ConfigurationError("no unique steady state: A is singular")
            rows[k], rows[p] = rows[p], rows[k]
            for i in range(k + 1, n):
                f = rows[i][k] / rows[k][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
        x = [0.0] * n
        for k in reversed(range(n)):
            x[k] = (rows[k][n] - _dot(rows[k][k + 1:n], x[k + 1:])) \
                / rows[k][k]
        if not all(map(math.isfinite, x)):
            raise ConfigurationError("no unique steady state: A is singular")
        return x


# ── Callbacks ──────────────────────────────────────────────────────────────


def solar_surface(radiance_w_msq: float, surface_m2: float, efficiency: float) -> float:
    """Panel output in watts: radiance x surface x efficiency."""
    return radiance_w_msq * surface_m2 * efficiency


# the closed-form pipelines a scenario's ``callbackName`` may bind;
# "getSolarSurfaceInterpolant" is the historical alias of "solar-surface"
CALLBACKS: dict[str, Callable[..., float]] = {
    "solar-surface": solar_surface,
    "getSolarSurfaceInterpolant": solar_surface,
}


# ── Radiance ingestion ─────────────────────────────────────────────────────


_NOT_SEPARATORS = dict.fromkeys(c for c in range(128) if chr(c) not in ",\n")


def load_radiance_csv(path: str, mode: str = NEAREST) -> InterpolationTable:
    """Read a ``timestamp,watt_per_msq`` CSV into a table keyed by seconds
    since the start of the first row's year, as two flat columns converted
    by one ``map`` each; each list is dropped once the next is made."""
    # universal newlines: CRLF reads as LF; a byte that is not UTF-8 reads
    # as U+FFFD, which the ASCII check below refuses with its line
    with open(path, errors="replace") as fh:
        header, _, body = fh.read().partition("\n")
    if [h.strip() for h in header.split(",")] != ["timestamp", "watt_per_msq"]:
        raise ConfigurationError(
            f"{path}: expected header 'timestamp,watt_per_msq'")
    while "\n\n" in body:               # blank lines
        body = body.replace("\n\n", "\n")
    body = body.strip("\n")
    try:
        # ASCII, one comma per row: deleting all else leaves ",\n" per row
        if body.translate(_NOT_SEPARATORS) != ",\n" * body.count("\n") + ",":
            raise ValueError
        body = body.replace("\n", ",")
        fields = body.split(",")
        del body
        stamps, values = fields[::2], fields[1::2]
        del fields
        ys = list(map(float, values))
        del values
        first = datetime.fromisoformat(stamps[0])
        year_start = datetime(first.year, 1, 1, tzinfo=first.tzinfo)
        xs = list(map(timedelta.total_seconds, map(
            sub, map(datetime.fromisoformat, stamps), repeat(year_start))))
        return InterpolationTable(xs, ys, mode=mode)
    except (ValueError, TypeError) as exc:   # ConfigurationError included
        raise ConfigurationError(_radiance_fault(path) or f"{path}: {exc}") \
            from None


def _radiance_fault(path: str) -> str | None:
    """``path:line: fault`` of the first row that breaks the format, if any."""
    year_start, last = None, -math.inf
    with open(path, errors="replace") as fh:
        for number, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(",")
            if number == 1 or fields == [""]:      # the header, a blank line
                continue
            if not line.isascii() or '"' in line or len(fields) != 2:
                return (f"{path}:{number}: {line.rstrip()!r} is not one "
                        f"unquoted ASCII row timestamp,watt_per_msq")
            try:
                ts = datetime.fromisoformat(fields[0])
                float(fields[1])
                year_start = year_start or datetime(ts.year, 1, 1, tzinfo=ts.tzinfo)
                x = (ts - year_start).total_seconds()   # TypeError: naive - aware
            except (ValueError, TypeError) as exc:
                return f"{path}:{number}: {exc}"
            if x <= last:
                return f"{path}:{number}: not after the row before"
            last = x
    return None if year_start else f"{path}: no rows"


def year_seconds(year: int) -> float:
    days = 366 if (year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)) else 365
    return days * 86400.0
