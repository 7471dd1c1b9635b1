"""Human-layer simulation: campus turnout and stochastic building loads.

Turnout follows a weekly hour-anchored schedule with linear interpolation.
Each cluster of C persons becomes one client entity whose electrical load is
C times a truncated-normal per-person draw; a building's consumption is its
base load plus the loads of its active clients.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

HOURS_PER_WEEK = 168.0


@dataclass
class TurnoutModel:
    cluster_size: int = 10
    base_load_kw: float = 1.5
    mu_w: float = 25.0
    sigma_w: float = 5.0
    # anchors: sorted (hour_of_week, persons); hour 0 = Monday 00:00
    schedule: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        if self.base_load_kw < 0 or self.sigma_w < 0:
            raise ValueError("base_load and sigma must be non-negative")
        if any(t < 0 for _, t in self.schedule):
            raise ValueError("schedule values must be non-negative")
        self.schedule = sorted(self.schedule)


def turnout_at(model: TurnoutModel, hour_of_week: float) -> float:
    """Persons on campus at ``hour_of_week`` (0 = Monday 00:00), linearly
    interpolated between schedule anchors with weekly wraparound."""
    anchors = model.schedule
    if not anchors:
        return 0.0
    h = hour_of_week % HOURS_PER_WEEK
    if len(anchors) == 1:
        return anchors[0][1]
    # wrap: treat the first anchor as repeating one week later
    prev = (anchors[-1][0] - HOURS_PER_WEEK, anchors[-1][1])
    for x, t in anchors:
        if h < x:
            frac = (h - prev[0]) / (x - prev[0])
            return prev[1] + frac * (t - prev[1])
        prev = (x, t)
    nxt = (anchors[0][0] + HOURS_PER_WEEK, anchors[0][1])
    frac = (h - prev[0]) / (nxt[0] - prev[0])
    return prev[1] + frac * (nxt[1] - prev[1])


def cluster_count(model: TurnoutModel, persons: float) -> int:
    return int(math.ceil(persons / model.cluster_size)) if persons > 0 else 0


def building_load(model: TurnoutModel, persons: float, rng: np.random.Generator) -> float:
    """E in kW: base load plus one truncated-normal C*P_i term per cluster."""
    if persons < 0:
        raise ValueError("persons must be >= 0")
    total_w = 0.0
    for _ in range(cluster_count(model, persons)):
        p = rng.normal(model.mu_w, model.sigma_w) if model.sigma_w > 0 else model.mu_w
        total_w += model.cluster_size * max(0.0, p)
    return model.base_load_kw + total_w / 1000.0


@dataclass
class ClientEntity:
    id: str
    cabinet: str            # building id
    load_w: float           # nominal consumption of the whole cluster


@dataclass
class SyncDiff:
    spawned: list[ClientEntity] = field(default_factory=list)
    retired: list[ClientEntity] = field(default_factory=list)


class ClientPopulation:
    """Client entities distributed round-robin across buildings.

    A client is active while it is in ``clients``. Retirement is
    last-in-first-out so a seeded run reproduces ids, loads and spawn order
    exactly. A tripped building's clients contribute no load until the trip
    is reset.
    """

    def __init__(self, model: TurnoutModel, buildings: list[str],
                 rng: np.random.Generator):
        if not buildings:
            raise ValueError("at least one building required")
        self.model = model
        self.buildings = list(buildings)
        self.rng = rng
        self.clients: list[ClientEntity] = []
        self._spawn_counter = 0
        self._tripped: set[str] = set()
        # each building's client loads in spawn order: a LIFO retire pops
        # the tail, so cabinet sums add in the same order as a full scan
        self._loads_w: dict[str, list[float]] = {b: [] for b in self.buildings}

    def sync(self, persons: float) -> SyncDiff:
        """Match the client population to ceil(T/C) entities."""
        target = cluster_count(self.model, persons)
        diff = SyncDiff()
        while len(self.clients) < target:
            i = self._spawn_counter
            self._spawn_counter += 1
            building = self.buildings[i % len(self.buildings)]
            p = (self.rng.normal(self.model.mu_w, self.model.sigma_w)
                 if self.model.sigma_w > 0 else self.model.mu_w)
            client = ClientEntity(
                id=f"client-{i:05d}",
                cabinet=building,
                load_w=self.model.cluster_size * max(0.0, p),
            )
            self.clients.append(client)
            self._loads_w[building].append(client.load_w)
            diff.spawned.append(client)
        while len(self.clients) > target:
            client = self.clients.pop()
            self._loads_w[client.cabinet].pop()
            diff.retired.append(client)
        return diff

    def set_building_tripped(self, building: str, tripped: bool) -> None:
        if tripped:
            self._tripped.add(building)
        else:
            self._tripped.discard(building)

    def building_loads_w(self, building: str) -> list[float]:
        """The loads of ``building``'s clients in spawn order (the
        population's own list: read it, do not change it)."""
        if building in self._tripped:
            return []
        return self._loads_w[building]

    def active_count(self) -> int:
        return sum(1 for c in self.clients if c.cabinet not in self._tripped)


def load_schedule_csv(path: str) -> list[tuple[float, float]]:
    """Read ``day_of_week,hour,persons`` rows (day 0 = Monday) into weekly
    hour anchors."""
    anchors: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["day_of_week", "hour", "persons"]:
            raise ValueError(f"{path}: expected header 'day_of_week,hour,persons'")
        for row in reader:
            if not row:
                continue
            day, hour, persons = int(row[0]), float(row[1]), float(row[2])
            if not 0 <= day <= 6:
                raise ValueError(f"{path}: day_of_week must be 0..6, got {day}")
            anchors.append((day * 24.0 + hour, persons))
    return sorted(anchors)
