"""Virtual field devices.

Smart cabinets expose building consumption over Modbus registers with a
trip-protection PLC; solar, storage, and turbine controllers bridge the
physical models to the twin broker and react to command property changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Callable

from .modbus import RegisterFile
from .simcore import (
    CALLBACKS,
    InterpolationTable,
    LinearStateSpace,
    interpolate,
)

CONSUMPTION_REGISTER = 100   # input: current consumption, watts
MAX_CONSUMPTION_REGISTER = 101  # input: rated maximum, watts
TRIP_COIL = 100
MASTER_COIL = 101


class CommandError(Exception):
    """Unknown command value; device state is unchanged."""


# ── Smart cabinet ──────────────────────────────────────────────────────────


@dataclass
class SmartCabinet:
    building_id: str
    base_load_w: float
    max_consumption_w: float
    register_file: RegisterFile = field(default_factory=RegisterFile)

    def __post_init__(self):
        rf = self.register_file
        rf.set_input(CONSUMPTION_REGISTER, int(self.base_load_w))
        rf.set_input(MAX_CONSUMPTION_REGISTER, int(self.max_consumption_w))
        rf.coils.setdefault(TRIP_COIL, False)
        rf.coils.setdefault(MASTER_COIL, True)

    def sample(self, client_loads_w: list[float]) -> int:
        """Sum constant and variable loads into input register 100.

        Master off means the whole feed is dead: consumption reads 0.
        Values saturate at the u16 ceiling.
        """
        if not self.register_file.get_coil(MASTER_COIL):
            consumption = 0
        else:
            # a left-to-right fold, not sum(): see simcore._dot
            loads = reduce(add, client_loads_w, 0.0)
            consumption = int(round(self.base_load_w + loads))
            consumption = min(consumption, 0xFFFF)
        self.register_file.set_input(CONSUMPTION_REGISTER, consumption)
        return consumption


@dataclass
class TripPlc:
    """Overcurrent protection: TRIPSW := CONS > MAXCONS, guarded by
    MAXCONS > 0. The coil latches until an explicit reset write."""

    scan_period_s: float = 0.1
    on_trip: Callable[[], None] | None = None
    on_reset: Callable[[], None] | None = None
    _last_coil: bool = False

    def scan(self, rf: RegisterFile) -> bool:
        maxcons = rf.input_registers.get(MAX_CONSUMPTION_REGISTER, 0)
        cons = rf.input_registers.get(CONSUMPTION_REGISTER, 0)
        coil = rf.coils.get(TRIP_COIL, False)
        if maxcons > 0:
            coil = coil or cons > maxcons  # latch
            rf.coils[TRIP_COIL] = coil
        if coil and not self._last_coil and self.on_trip:
            self.on_trip()
        if self._last_coil and not coil and self.on_reset:
            self.on_reset()
        self._last_coil = coil
        return coil


# ── Field controllers ──────────────────────────────────────────────────────


class StorageController:
    """Energy-storage field controller.

    Modes map to structural inputs: charge (1,0), discharge (0,1), idle
    (0,0) so charge and discharge can never run together. The level is
    clamped to [0, 100] % and the mode forced to idle at either bound.
    """

    MODES = {"charge": (1.0, 0.0), "discharge": (0.0, 1.0), "idle": (0.0, 0.0)}

    def __init__(self, system: LinearStateSpace):
        if system.n != 1 or system.m != 2:
            raise ValueError("storage model must be 1 state x 2 inputs")
        self.system = system
        self.mode = "idle"
        self.u = (0.0, 0.0)

    @property
    def level_pct(self) -> float:
        return self.system.x[0]

    def apply_command(self, value) -> None:
        if value not in self.MODES:
            raise CommandError(f"unknown storage mode {value!r}")
        self.mode = value
        self.u = self.MODES[value]

    def advance(self, dt: float) -> float:
        self.system.step(self.u, dt)
        level = self.system.x[0]
        if level <= 0.0 or level >= 100.0:
            self.system.x[0] = min(100.0, max(0.0, level))
            self.apply_command("idle")
        return self.system.x[0]

    def telemetry(self) -> dict:
        return {"level": self.level_pct, "mode": self.mode}


class TurbineController:
    """Gas-turbine field controller.

    start opens both the startup and ignition valves; stop closes both and
    the rpm decays toward zero. Output power is the rated 65 kW scaled by
    the rpm fraction of nominal (a modeling convention, clamped to [0, 1]).
    """

    def __init__(self, system: LinearStateSpace, rated_kw: float = 65.0,
                 air_temp_c: float = 15.0):
        if system.n != 2 or system.m != 3:
            raise ValueError("turbine model must be 2 states x 3 inputs")
        self.system = system
        self.rated_kw = rated_kw
        self.air_temp_c = air_temp_c
        self.valves = (0.0, 0.0)
        # nominal rpm taken at both valves open with the reference air temp
        self.nominal_rpm = system.steady_state((1.0, 1.0, 15.0))[0]
        if not self.nominal_rpm > 0:
            raise ValueError(f"nominal rpm must be > 0, got {self.nominal_rpm}")

    @property
    def rpm(self) -> float:
        return self.system.x[0]

    @property
    def exhaust_temp_c(self) -> float:
        return self.system.x[1]

    def runs_at(self, rpm: float) -> bool:
        """Whether the turbine counts as running at ``rpm``: from half its
        nominal rpm up."""
        return rpm >= 0.5 * self.nominal_rpm

    @property
    def running(self) -> bool:
        return self.runs_at(self.rpm)

    def power_kw(self) -> float:
        frac = min(1.0, max(0.0, self.rpm / self.nominal_rpm))
        return self.rated_kw * frac

    def apply_command(self, value) -> None:
        if value == "start":
            self.valves = (1.0, 1.0)
        elif value == "stop":
            self.valves = (0.0, 0.0)
        else:
            raise CommandError(f"unknown turbine command {value!r}")

    def advance(self, dt: float) -> float:
        u = (self.valves[0], self.valves[1], self.air_temp_c)
        self.system.step(u, dt)
        return self.rpm

    def telemetry(self) -> dict:
        return {"rpm": self.rpm, "power": self.power_kw(),
                "exhaust-temp": self.exhaust_temp_c}


class SolarController:
    """Solar field controller: radiance lookup piped through the configured
    surface callback."""

    def __init__(self, radiance: InterpolationTable, callback_name: str,
                 surface_m2: float, efficiency: float,
                 year_offset_s: float = 0.0, year_len_s: float = 366 * 86400.0):
        if callback_name not in CALLBACKS:
            raise ValueError(f"unknown callback {callback_name!r}")
        self.radiance = radiance
        self.callback = CALLBACKS[callback_name]
        self.surface_m2 = surface_m2
        self.efficiency = efficiency
        self.year_offset_s = year_offset_s
        self.year_len_s = year_len_s

    def radiance_at(self, sim_time: float) -> float:
        x = (self.year_offset_s + sim_time) % self.year_len_s
        return interpolate(self.radiance, x)

    def power_w(self, sim_time: float) -> float:
        y = self.radiance_at(sim_time)
        return float(self.callback(y, self.surface_m2, self.efficiency))

    def telemetry(self, sim_time: float) -> dict:
        return {"power": self.power_w(sim_time)}
