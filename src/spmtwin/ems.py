"""Energy Management System decision engine.

A timer-driven guarded-transition process: on each tick it compares solar
generation against campus consumption and dispatches the storage, the gas
turbine, and (implicitly) the grid. Thresholds follow the plant defaults:
charge ceiling 90 %, discharge floor 10 %, turbine convenience 65 kW.
"""

from __future__ import annotations

from dataclasses import dataclass

CHARGE = "charge"
DISCHARGE = "discharge"
IDLE = "idle"

START = "start"
STOP = "stop"
NONE = "none"


class StaleMeasurements(Exception):
    """Measurements are older than one timer period; the tick is skipped."""


@dataclass(frozen=True)
class EmsConfig:
    charge_ceiling: float = 90.0      # percent
    discharge_floor: float = 10.0     # percent
    turbine_threshold_kw: float = 65.0
    timer_period_s: float = 60.0

    def __post_init__(self):
        if not 0 <= self.discharge_floor < self.charge_ceiling <= 100:
            raise ValueError("need 0 <= discharge_floor < charge_ceiling <= 100")
        if self.turbine_threshold_kw <= 0:
            raise ValueError("turbine_threshold_kw must be > 0")


@dataclass(frozen=True)
class Measurements:
    solar_generation_kw: float
    total_consumption_kw: float
    storage_level_pct: float
    turbine_running: bool

    def __post_init__(self):
        if self.solar_generation_kw < 0 or self.total_consumption_kw < 0:
            raise ValueError("generation and consumption must be non-negative")
        if not 0 <= self.storage_level_pct <= 100:
            raise ValueError("storage level must be in [0, 100]")


@dataclass(frozen=True)
class ActionSet:
    storage_mode: str          # charge | discharge | idle
    turbine_command: str       # start | stop | none
    dissipate_surplus: bool
    grid_import_expected_kw: float


def charge_viable(cfg: EmsConfig, level_pct: float) -> bool:
    """Charging helps only strictly below the ceiling."""
    return level_pct < cfg.charge_ceiling


def discharge_viable(cfg: EmsConfig, level_pct: float) -> bool:
    """Discharging helps only strictly above the floor."""
    return level_pct > cfg.discharge_floor


def turbine_convenient(cfg: EmsConfig, deficit_kw: float) -> bool:
    """Starting the turbine pays off only for deficits strictly above the
    efficiency threshold."""
    return deficit_kw > cfg.turbine_threshold_kw


def ems_tick(cfg: EmsConfig, m: Measurements) -> ActionSet:
    """One EMS decision. Balance >= 0 routes to the surplus branch (charge or
    dissipate, turbine stop); a strict deficit routes to discharge, then the
    turbine-start convenience test, then the grid."""
    balance = m.solar_generation_kw - m.total_consumption_kw

    if balance >= 0:
        if charge_viable(cfg, m.storage_level_pct):
            return ActionSet(CHARGE, STOP, False, 0.0)
        return ActionSet(IDLE, STOP, True, 0.0)

    deficit = -balance
    if discharge_viable(cfg, m.storage_level_pct):
        return ActionSet(DISCHARGE, NONE, False, 0.0)
    if turbine_convenient(cfg, deficit):
        residual = max(0.0, deficit - cfg.turbine_threshold_kw)
        return ActionSet(IDLE, START, False, residual)
    return ActionSet(IDLE, STOP, False, deficit)
