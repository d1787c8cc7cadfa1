"""Shared domain types: coordinates, hourly epochs, meteorological factors.

Everything here is an immutable value; instances can be shared freely
between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import DataError

EARTH_RADIUS_KM = 6371.0088

TD_SANITY_BOUND_NS = 1e9  # PPS offsets are sub-second by construction

# where model inputs are taken: the receiver, every station, or l path points
LOCATION_MODES = ("receiver_only", "stations", "path")


@dataclass(frozen=True)
class GeoPoint:
    """WGS-84 coordinate in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinate ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True, order=True)
class EpochHour:
    """UTC timestamp truncated to a whole hour."""

    instant: datetime

    def __post_init__(self):
        t = self.instant
        if t.tzinfo is None or t.utcoffset() != timezone.utc.utcoffset(None):
            raise ValueError(f"epoch {t!r} must be timezone-aware UTC")
        if t.minute or t.second or t.microsecond:
            raise ValueError(f"epoch {t!r} not truncated to a whole hour")
        object.__setattr__(self, "instant", t.astimezone(timezone.utc))

    @classmethod
    def of(cls, year: int, month: int, day: int, hour: int = 0) -> "EpochHour":
        return cls(datetime(year, month, day, hour, tzinfo=timezone.utc))

    @classmethod
    def from_hours(cls, hours_since_epoch: int) -> "EpochHour":
        return cls(datetime.fromtimestamp(hours_since_epoch * 3600, tz=timezone.utc))

    @classmethod
    def parse(cls, text: str) -> "EpochHour":
        return cls(parse_utc(text))

    @property
    def hours_since_epoch(self) -> int:
        return int(self.instant.timestamp()) // 3600

    def isoformat(self) -> str:
        return self.instant.strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp; a trailing 'Z' is accepted."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    t = datetime.fromisoformat(raw)
    if t.tzinfo is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    if t.utcoffset().total_seconds() != 0:
        raise ValueError(f"timestamp {text!r} is not UTC")
    return t.astimezone(timezone.utc)


class MetFactor(Enum):
    """The eleven hourly meteorological factors; declaration order is the
    canonical column order everywhere."""

    PRESSURE = "pressure_hpa"
    CLOUD_COVER = "cloud_cover_unitless"
    HUMIDITY = "humidity_pct"
    PRECIPITATION = "precipitation_mm"
    SNOW_DEPTH = "snow_depth_cm"
    SUNSHINE = "sunshine_hr"
    TEMPERATURE = "temperature_c"
    VAPOR_PRESSURE = "vapor_pressure_hpa"
    VISIBILITY = "visibility_m"
    WIND_DIR = "wind_dir_deg"
    WIND_SPEED = "wind_speed_ms"

    @property
    def column(self) -> str:
        return self.value

    @property
    def bounds(self) -> tuple[float, float]:
        return _FACTOR_SPECS[self][:2]

    @property
    def integer_valued(self) -> bool:
        return _FACTOR_SPECS[self][2]

    @classmethod
    def from_column(cls, name: str) -> "MetFactor":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown meteorological factor column {name!r}") from None


# lower bound, upper bound, integer-valued (each column name ends in its unit)
_FACTOR_SPECS = {
    MetFactor.PRESSURE: (850.0, 1100.0, False),
    MetFactor.CLOUD_COVER: (0.0, 10.0, True),
    MetFactor.HUMIDITY: (0.0, 100.0, False),
    MetFactor.PRECIPITATION: (0.0, 500.0, False),
    MetFactor.SNOW_DEPTH: (0.0, 500.0, False),
    MetFactor.SUNSHINE: (0.0, 1.0, False),
    MetFactor.TEMPERATURE: (-60.0, 60.0, False),
    MetFactor.VAPOR_PRESSURE: (0.0, 110.0, False),
    MetFactor.VISIBILITY: (0.0, 100000.0, False),
    MetFactor.WIND_DIR: (0.0, 360.0, False),
    MetFactor.WIND_SPEED: (0.0, 120.0, False),
}

FactorSet = tuple[MetFactor, ...]

_CANONICAL_ORDER = {f: i for i, f in enumerate(MetFactor)}


def factor_set(factors: Iterable[MetFactor | str]) -> FactorSet:
    """Canonicalize a factor collection: declaration order, duplicates rejected."""
    resolved = [f if isinstance(f, MetFactor) else MetFactor.from_column(f) for f in factors]
    if len(set(resolved)) != len(resolved):
        raise ValueError("duplicate factors in factor set")
    return tuple(sorted(resolved, key=_CANONICAL_ORDER.__getitem__))


ALL_FACTORS: FactorSet = tuple(MetFactor)

# Factor combinations used for model comparisons. The 3- and 5-factor sets
# follow earlier propagation-delay work; the 7-factor set is the
# correlation-selected one.
FACTORS_3 = factor_set([MetFactor.TEMPERATURE, MetFactor.HUMIDITY, MetFactor.PRESSURE])
FACTORS_5 = factor_set(
    [
        MetFactor.TEMPERATURE,
        MetFactor.HUMIDITY,
        MetFactor.VAPOR_PRESSURE,
        MetFactor.VISIBILITY,
        MetFactor.WIND_SPEED,
    ]
)
FACTORS_7 = factor_set(
    [
        MetFactor.PRESSURE,
        MetFactor.CLOUD_COVER,
        MetFactor.HUMIDITY,
        MetFactor.TEMPERATURE,
        MetFactor.VAPOR_PRESSURE,
        MetFactor.VISIBILITY,
        MetFactor.WIND_SPEED,
    ]
)

FACTOR_PRESETS = {"3": FACTORS_3, "5": FACTORS_5, "7": FACTORS_7}


def parse_location_mode(text: str) -> str:
    """text if it names one of LOCATION_MODES; ValueError otherwise."""
    if text not in LOCATION_MODES:
        raise ValueError(f"unknown location mode {text!r}; expected one of {LOCATION_MODES}")
    return text


def validate_factor_value(factor: MetFactor, values) -> np.ndarray:
    """Return ``values`` as a float array if all lie inside the factor's
    validity range.

    Raises DataError naming the first offending value and the column otherwise;
    used to reject corrupt weather columns.
    """
    v = np.asarray(values, dtype=float)
    lo, hi = factor.bounds
    checks = [(~np.isfinite(v), "non-finite"), ((v < lo) | (v > hi), f"outside [{lo}, {hi}]")]
    if factor.integer_valued:
        checks.append((v != np.floor(v), "must be integer-valued"))
    for bad, reason in checks:
        if bad.any():
            raise DataError(f"value {v[bad][0].item()!r} outside validity range of "
                            f"{factor.column} ({reason})")
    return v


def validate_td_ns(value: float) -> float:
    """Sanity-check a time-difference value in nanoseconds."""
    v = float(value)
    if not math.isfinite(v) or abs(v) >= TD_SANITY_BOUND_NS:
        raise DataError(f"value {value!r} outside validity range of td_ns "
                        "(non-finite or beyond sub-second bound)")
    return v


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km on a sphere of radius 6371.0088 km."""
    la1, lo1 = math.radians(a.lat), math.radians(a.lon)
    la2, lo2 = math.radians(b.lat), math.radians(b.lon)
    s = (
        math.sin((la2 - la1) / 2.0) ** 2
        + math.cos(la1) * math.cos(la2) * math.sin((lo2 - lo1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))
