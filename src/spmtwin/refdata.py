"""Reference-data generation and ingestion helpers.

The engine only ever reads local CSV files; these helpers populate them.
``synthesize_radiance_csv`` writes a deterministic clear-sky hourly radiance
table for a reference year.
"""

from __future__ import annotations

import csv
import math
from datetime import datetime, timedelta

DEFAULT_LATITUDE = 44.18
DEFAULT_YEAR = 2016


def clear_sky_radiance(latitude_deg: float, day_of_year: int, hour: float) -> float:
    """Clear-sky plane radiance in W/m^2 from a solar-elevation model.

    Simple declination + hour-angle geometry; peaks below 1000 W/m^2 at
    mid-latitudes and is exactly 0 while the sun is below the horizon.
    """
    lat = math.radians(latitude_deg)
    decl = math.radians(-23.44 * math.cos(2 * math.pi * (day_of_year + 10) / 365.0))
    hour_angle = math.radians(15.0 * (hour - 12.0))
    sin_elev = (math.sin(lat) * math.sin(decl)
                + math.cos(lat) * math.cos(decl) * math.cos(hour_angle))
    return 1000.0 * max(0.0, sin_elev)


def synthesize_radiance_csv(
    path: str,
    latitude: float = DEFAULT_LATITUDE,
    year: int = DEFAULT_YEAR,
) -> int:
    """Write one row per hour of ``year``, as ``load_radiance_csv`` reads
    it; returns the row count."""
    start = datetime(year, 1, 1)
    end = datetime(year + 1, 1, 1)
    rows = 0
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,watt_per_msq\r\n")
        ts = start
        while ts < end:
            doy = ts.timetuple().tm_yday
            y = clear_sky_radiance(latitude, doy, ts.hour + 0.5)
            fh.write(f"{ts.isoformat()},{y:.1f}\r\n")
            ts += timedelta(hours=1)
            rows += 1
    return rows


# Default weekly turnout: weekday trapezoid rising at 08:00, peaking at
# 12:00, falling by 18:00; weekend at 10 % of the weekday peak.
WEEKDAY_ANCHORS = [(0, 0.0), (6, 0.0), (8, 400.0), (12, 1200.0), (14, 1200.0),
                   (18, 200.0), (20, 0.0)]
WEEKEND_ANCHORS = [(0, 0.0), (8, 0.0), (10, 60.0), (12, 120.0), (16, 120.0),
                   (18, 0.0)]


def write_default_schedule_csv(path: str) -> int:
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day_of_week", "hour", "persons"])
        for day in range(7):
            anchors = WEEKDAY_ANCHORS if day < 5 else WEEKEND_ANCHORS
            for hour, persons in anchors:
                writer.writerow([day, hour, persons])
                rows += 1
    return rows
