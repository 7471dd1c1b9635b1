"""Simulation clock and the physical-layer model primitives.

Three modelling methods are provided: interpolation over finite datasets,
linear state-space stepping (a cached closed-form propagator equal to
fixed-step RK4 with sub-step ``dt``), and a named callback registry for
closed-form pipelines such as the solar surface model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime
from operator import mul
from typing import Callable, Sequence

import numpy as np


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
    """Finite (x, y) dataset queried by interpolation.

    ``linear-bracketing`` interpolates linearly over the smallest bracketing
    interval; ``nearest-record`` returns the y of the temporally closest
    record. Out-of-range queries clamp to the nearest endpoint.
    """

    points: Sequence[tuple[float, float]]
    mode: str = LINEAR

    def __post_init__(self):
        if not self.points:
            raise ConfigurationError("interpolation table must have at least one point")
        if self.mode not in INTERPOLATION_MODES:
            raise ConfigurationError(f"unknown interpolation mode {self.mode!r}")
        xs = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ConfigurationError("table x values must be strictly increasing")
        self._xs = xs
        self._ys = [p[1] for p in self.points]

    def __call__(self, x: float) -> float:
        return interpolate(self, x)


def interpolate(table: InterpolationTable, x: float) -> float:
    """Evaluate ``table`` at ``x`` according to its mode."""
    xs, ys = table._xs, table._ys
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    hi = _bisect(xs, x)
    lo = hi - 1
    if table.mode == NEAREST:
        return ys[lo] if (x - xs[lo]) <= (xs[hi] - x) else ys[hi]
    frac = (x - xs[lo]) / (xs[hi] - xs[lo])
    return ys[lo] + frac * (ys[hi] - ys[lo])


def _bisect(xs: Sequence[float], x: float) -> int:
    lo, hi = 0, len(xs)
    while lo < hi:
        mid = (lo + hi) // 2
        if xs[mid] <= x:
            lo = mid + 1
        else:
            hi = mid
    return lo


# ── Linear state-space ─────────────────────────────────────────────────────

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
            raise ConfigurationError("B row count must equal the A dimension")
        m = len(self.B[0]) if self.B else 0
        if any(len(row) != m for row in self.B):
            raise ConfigurationError("B rows must have equal length")
        if len(self.x) != n:
            raise ConfigurationError("state length must equal the A dimension")
        if self.dt <= 0:
            raise ConfigurationError("dt must be > 0")
        self.A = [list(map(float, row)) for row in self.A]
        self.B = [list(map(float, row)) for row in self.B]
        self.x = list(map(float, self.x))
        self._n, self._m = n, m
        self._propagators: dict[float, list[list[float]]] = {}

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
        Z = np.zeros((n + m, n + m))
        Z[:n, :n], Z[:n, n:] = self.A, self.B
        prop = np.eye(n + m)
        remaining = dt
        while remaining > 1e-12:
            h = min(self.dt, remaining)
            term = sub = np.eye(n + m)
            for k in range(1, 5):
                term = term @ Z * (h / k)
                sub = sub + term
            prop = sub @ prop
            remaining -= h
        rows = prop[:n].tolist()
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
        xu = [*self.x, *u]
        self.x = [sum(map(mul, row, xu)) for row in self._propagator(dt)]
        return list(self.x)

    def steady_state(self, u: Sequence[float]) -> list[float]:
        """Solve A x* + B u = 0; raises for singular A."""
        if len(u) != self._m:
            raise ConfigurationError("input length does not match B columns")
        A = np.array(self.A, dtype=float)
        rhs = -np.array(self.B, dtype=float) @ np.array(u, dtype=float)
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError("no unique steady state: A is singular") from exc
        if not np.all(np.isfinite(sol)):
            raise ConfigurationError("no unique steady state: A is singular")
        return [float(v) for v in sol]


# ── Callback registry ──────────────────────────────────────────────────────


class CallbackRegistry:
    """Named, pure callback functions bound at configuration time."""

    def __init__(self):
        self._entries: dict[str, Callable[..., float]] = {}

    def register(self, name: str, fn: Callable[..., float]) -> None:
        if name in self._entries:
            raise ConfigurationError(f"callback {name!r} already registered")
        self._entries[name] = fn

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def eval(self, name: str, args: Sequence) -> float:
        if name not in self._entries:
            raise ConfigurationError(f"unknown callback {name!r}")
        return float(self._entries[name](*args))


def solar_surface(radiance_w_msq: float, surface_m2: float, efficiency: float) -> float:
    """Panel output in watts: radiance x surface x efficiency."""
    return radiance_w_msq * surface_m2 * efficiency


def builtin_registry() -> CallbackRegistry:
    reg = CallbackRegistry()
    reg.register("solar-surface", solar_surface)
    # configuration files may bind the historical alias for the same pipeline
    reg.register("getSolarSurfaceInterpolant", solar_surface)
    return reg


# ── Radiance ingestion ─────────────────────────────────────────────────────


def load_radiance_csv(path: str, mode: str = NEAREST) -> InterpolationTable:
    """Read a ``timestamp,watt_per_msq`` CSV into a table keyed by seconds
    since the start of the reference year."""
    points: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["timestamp", "watt_per_msq"]:
            raise ConfigurationError(
                f"{path}: expected header 'timestamp,watt_per_msq'"
            )
        year_start = None
        for row in reader:
            if not row:
                continue
            ts = datetime.fromisoformat(row[0])
            if year_start is None:
                year_start = datetime(ts.year, 1, 1, tzinfo=ts.tzinfo)
            points.append(((ts - year_start).total_seconds(), float(row[1])))
    return InterpolationTable(points, mode=mode)


def year_seconds(year: int) -> float:
    days = 366 if (year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)) else 365
    return days * 86400.0
