"""Corpus parsing and alignment.

Four text formats: station registry CSV, hourly weather CSV, 1 Hz TD CSV,
and ESRI ASCII DEM rasters.  Floats are written with repr() so every
parse -> serialize -> parse round trip is exact.  Timestamps are UTC
ISO-8601 with a trailing Z.

One hour axis runs through ingest: integer hours since the Unix epoch.
The weather store (WeatherSeries) is a dense cube on it, values and a
presence mask of shape (hour, station, factor) with stations in registry
order and factors in ALL_FACTORS order; 1 Hz TD samples are bucketed by
the same integer hour, and alignment keeps the TD hours whose cube row
is present for every station and requested factor.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import (
    DuplicateStationError,
    EmptyIntersectionError,
    InconsistentDimensionsError,
    OutOfRangeError,
    ParseError,
    UnknownStationError,
)
from .types import (
    ALL_FACTORS,
    EpochHour,
    FactorSet,
    GeoPoint,
    MetFactor,
    factor_set,
    parse_utc,
    validate_factor_value,
    validate_td_ns,
)

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"

UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
HOUR = timedelta(hours=1)

# half an hour of 1 Hz data; hours with fewer samples are dropped
DEFAULT_MIN_SAMPLES_PER_HOUR = 1800


def format_timestamp(t: datetime) -> str:
    return t.strftime(TIMESTAMP_FORMAT)


@dataclass(frozen=True)
class StationRegistry:
    """Station ids with their coordinates; file order is preserved."""

    entries: tuple[tuple[str, GeoPoint], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("registry must contain at least one station")
        ids = [sid for sid, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("registry station ids must be unique")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(sid for sid, _ in self.entries)

    def location(self, station_id: str) -> GeoPoint:
        for sid, loc in self.entries:
            if sid == station_id:
                return loc
        raise UnknownStationError(station_id)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, station_id: str) -> bool:
        return any(sid == station_id for sid, _ in self.entries)


@dataclass(frozen=True, eq=False)
class WeatherSeries:
    """Hourly factor values per station: a dense (hour, station, factor) cube.

    hours holds the sorted integer hours since the Unix epoch that have
    any value; station_ids is registry order; the factor axis is
    ALL_FACTORS order.  present marks the values that were reported;
    the others are genuinely absent, whatever values holds there.
    Every present value lies inside its factor's validity range.
    """

    hours: np.ndarray
    station_ids: tuple[str, ...]
    values: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        shape = (len(self.hours), len(self.station_ids), len(ALL_FACTORS))
        if self.values.shape != shape or self.present.shape != shape:
            raise ValueError(f"weather cube {self.values.shape} != axes {shape}")
        if np.any(np.diff(self.hours) <= 0):
            raise ValueError("weather hours must be strictly increasing")
        if not self.present.any(axis=(1, 2)).all():
            raise ValueError("every weather hour must hold a value")
        for i, factor in enumerate(ALL_FACTORS):
            validate_factor_value(factor, self.values[:, :, i][self.present[:, :, i]])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeatherSeries)
            and np.array_equal(self.hours, other.hours)
            and self.station_ids == other.station_ids
            and np.array_equal(self.present, other.present)
            and np.array_equal(self.values[self.present], other.values[other.present])
        )


@dataclass(frozen=True)
class HourlyTdSeries:
    """Hourly-mean TD values with per-hour sample counts, epoch-sorted."""

    epochs: tuple[EpochHour, ...]
    values: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.epochs)


@dataclass(frozen=True)
class AlignedDataset:
    """Epochs where TD and every requested factor at every station exist.

    values has shape (n_epochs, n_stations, n_factors) with factor columns
    in canonical order and stations in registry order.
    """

    epochs: tuple[EpochHour, ...]
    station_ids: tuple[str, ...]
    factors: FactorSet
    values: np.ndarray
    td: np.ndarray

    def __len__(self) -> int:
        return len(self.epochs)


@dataclass(frozen=True)
class ElevationGrid:
    """Row-major elevation raster; row 0 is the northernmost row.

    origin is the lower-left corner of the raster footprint (ESRI
    convention); absent cells are NaN internally and serialize back to
    the recorded nodata sentinel.
    """

    origin: GeoPoint
    cellsize: float
    values: np.ndarray
    nodata: float = -9999.0

    def __post_init__(self):
        if self.cellsize <= 0:
            raise ValueError("cellsize must be positive")
        if self.values.ndim != 2 or min(self.values.shape) < 1:
            raise ValueError("elevation raster must be 2-d and nonempty")

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    def contains(self, p: GeoPoint) -> bool:
        return (
            self.origin.lat <= p.lat <= self.origin.lat + self.nrows * self.cellsize
            and self.origin.lon <= p.lon <= self.origin.lon + self.ncols * self.cellsize
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElevationGrid)
            and self.origin == other.origin
            and self.cellsize == other.cellsize
            and self.nodata == other.nodata
            and self.values.shape == other.values.shape
            and bool(np.array_equal(self.values, other.values, equal_nan=True))
        )


# -- station registry --------------------------------------------------------

def parse_station_registry(path) -> StationRegistry:
    entries: list[tuple[str, GeoPoint]] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["station_id", "lat", "lon"]:
            raise ParseError(path, 1, f"expected header station_id,lat,lon, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(path, lineno, f"expected 3 fields, got {len(row)}")
            sid = row[0].strip()
            if not sid:
                raise ParseError(path, lineno, "empty station id")
            if sid in seen:
                raise DuplicateStationError(sid)
            seen.add(sid)
            try:
                loc = GeoPoint(float(row[1]), float(row[2]))
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from None
            entries.append((sid, loc))
    if not entries:
        raise ParseError(path, 2, "registry has no data rows")
    return StationRegistry(tuple(entries))


def write_station_registry(registry: StationRegistry, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "lat", "lon"])
        for sid, loc in registry.entries:
            writer.writerow([sid, repr(loc.lat), repr(loc.lon)])


# -- weather ------------------------------------------------------------------

def parse_weather_csv(path, registry: StationRegistry) -> WeatherSeries:
    """Rows are checked one by one, then each factor column at once."""
    station_index = {sid: s for s, sid in enumerate(registry.ids)}
    rows: dict[tuple[int, int], tuple[list[float], list[bool]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["station_id", "timestamp"]:
            raise ParseError(path, 1, "expected header starting station_id,timestamp")
        try:
            columns = [MetFactor.from_column(name) for name in header[2:]]
        except ValueError as exc:
            raise ParseError(path, 1, str(exc)) from None
        if not columns:
            raise ParseError(path, 1, "no factor columns declared")
        if len(set(columns)) != len(columns):
            raise ParseError(path, 1, "repeated factor column")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns) + 2:
                raise ParseError(
                    path, lineno, f"expected {len(columns) + 2} fields, got {len(row)}"
                )
            sid = row[0].strip()
            if sid not in station_index:
                raise UnknownStationError(sid)
            try:
                hour = EpochHour.parse(row[1]).hours_since_epoch
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from None
            key = (hour, station_index[sid])
            if key in rows:
                raise ParseError(path, lineno, f"second row for {sid} at {row[1].strip()}")
            cells = [cell.strip() for cell in row[2:]]
            values = []
            for cell in cells:
                try:
                    values.append(float(cell) if cell else math.nan)
                except ValueError:
                    raise ParseError(path, lineno, f"bad number {cell!r}") from None
            rows[key] = values, [bool(cell) for cell in cells]

    keys = np.array(list(rows), dtype=np.int64).reshape(-1, 2)
    row_values = np.array([v for v, _ in rows.values()], dtype=float).reshape(-1, len(columns))
    row_present = np.array([p for _, p in rows.values()], dtype=bool).reshape(row_values.shape)
    reported = row_present.any(axis=1)
    hours, hour_rows = np.unique(keys[reported, 0], return_inverse=True)
    shape = (len(hours), len(registry), len(ALL_FACTORS))
    values, present = np.full(shape, np.nan), np.zeros(shape, dtype=bool)
    index = (hour_rows[:, None], keys[reported, 1, None], [ALL_FACTORS.index(f) for f in columns])
    values[index] = row_values[reported]
    present[index] = row_present[reported]
    return WeatherSeries(hours, registry.ids, values, present)


def write_weather_csv(series: WeatherSeries, path, factors: FactorSet = ALL_FACTORS) -> None:
    """One row per (station, hour) with any value: stations by id, hours ascending."""
    factors = factor_set(factors)
    columns = [ALL_FACTORS.index(f) for f in factors]
    stamps = [EpochHour.from_hours(int(h)).isoformat() for h in series.hours]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "timestamp"] + [f.column for f in factors])
        for sid in sorted(series.station_ids):
            s = series.station_ids.index(sid)
            values = series.values[:, s, columns].tolist()
            present = series.present[:, s, columns].tolist()
            for t in np.flatnonzero(series.present[:, s].any(axis=1)):
                cells = ["" if not p else repr(v) for v, p in zip(values[t], present[t])]
                writer.writerow([sid, stamps[t], *cells])


# -- 1 Hz TD ------------------------------------------------------------------

def parse_td_csv(path) -> list[tuple[datetime, float]]:
    samples: list[tuple[datetime, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["timestamp", "td_ns"]:
            raise ParseError(path, 1, f"expected header timestamp,td_ns, got {header}")
        prev: datetime | None = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(path, lineno, f"expected 2 fields, got {len(row)}")
            try:
                when = parse_utc(row[0])
                value = validate_td_ns(float(row[1]))
            except (ValueError, OutOfRangeError) as exc:
                if isinstance(exc, OutOfRangeError):
                    raise
                raise ParseError(path, lineno, str(exc)) from None
            if prev is not None and when <= prev:
                raise ParseError(path, lineno, "timestamps must be strictly increasing")
            prev = when
            samples.append((when, value))
    return samples


def write_td_csv(samples, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "td_ns"])
        for when, value in samples:
            writer.writerow([format_timestamp(when), repr(float(value))])


def aggregate_hourly(samples, min_samples: int = DEFAULT_MIN_SAMPLES_PER_HOUR) -> HourlyTdSeries:
    """Mean TD per whole UTC hour; hours with < min_samples are omitted.

    Samples are bucketed by integer hour since the Unix epoch.  Values are
    sorted before summation so the result is independent of within-hour
    sample order.
    """
    buckets: dict[int, list[float]] = {}
    for when, value in samples:
        if when.utcoffset() != timedelta(0):
            raise ValueError(f"sample time {when!r} must be timezone-aware UTC")
        buckets.setdefault((when - UNIX_EPOCH) // HOUR, []).append(float(value))
    kept = sorted(hour for hour, values in buckets.items() if len(values) >= min_samples)
    means = [np.sort(np.asarray(buckets[hour], dtype=float)).sum() / len(buckets[hour])
             for hour in kept]
    return HourlyTdSeries(
        epochs=tuple(EpochHour.from_hours(hour) for hour in kept),
        values=np.array(means, dtype=float),
        counts=np.array([len(buckets[hour]) for hour in kept], dtype=int),
    )


# -- alignment ----------------------------------------------------------------

def align_epochs(
    weather: WeatherSeries,
    td: HourlyTdSeries,
    factors: FactorSet,
    stations: StationRegistry,
) -> AlignedDataset:
    """Intersect TD hours with hours fully covered at every station."""
    factors = factor_set(factors)
    ids = stations.ids
    if not set(ids) <= set(weather.station_ids):
        raise EmptyIntersectionError(
            f"no weather rows for stations {sorted(set(ids) - set(weather.station_ids))}"
        )
    td_hours = np.array([e.hours_since_epoch for e in td.epochs], dtype=np.int64)
    rows = np.searchsorted(weather.hours, td_hours)
    found = rows < len(weather.hours)
    found[found] = weather.hours[rows[found]] == td_hours[found]
    stations_at = [weather.station_ids.index(sid) for sid in ids]
    columns = [ALL_FACTORS.index(f) for f in factors]
    found[found] = weather.present[np.ix_(rows[found], stations_at, columns)].all(axis=(1, 2))
    kept = np.flatnonzero(found)
    if not kept.size:
        raise EmptyIntersectionError(
            "no epoch has TD plus every requested factor at every station"
        )
    values = weather.values[np.ix_(rows[kept], stations_at, columns)]
    return AlignedDataset(
        tuple(td.epochs[t] for t in kept), ids, factors, values, td.values[kept]
    )


# -- DEM ----------------------------------------------------------------------

_DEM_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def parse_dem(path) -> ElevationGrid:
    """ESRI ASCII grid: six header lines then row-major values, north first."""
    header: dict[str, float] = {}
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lineno = 0
    for lineno, line in enumerate(lines[:6], start=1):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, f"bad header line {line!r}")
        key = parts[0].lower()
        if key not in _DEM_HEADER_KEYS:
            raise ParseError(path, lineno, f"unknown header keyword {parts[0]!r}")
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise ParseError(path, lineno, f"bad header value {parts[1]!r}") from None
    missing = [k for k in _DEM_HEADER_KEYS if k not in header]
    if missing:
        raise ParseError(path, lineno, f"missing header keywords {missing}")
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if ncols < 1 or nrows < 1:
        raise ParseError(path, 1, "ncols and nrows must be >= 1")
    nodata = header["nodata_value"]
    for lineno, line in enumerate(lines[6:], start=7):
        if not line.strip():
            continue
        try:
            rows.append([float(v) for v in line.split()])
        except ValueError:
            raise ParseError(path, lineno, "bad elevation value") from None
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise InconsistentDimensionsError(
            f"{path}: declared {nrows}x{ncols}, found "
            f"{len(rows)} rows of widths {sorted({len(r) for r in rows})}"
        )
    values = np.array(rows, dtype=float)
    values[values == nodata] = np.nan
    if not np.all(np.isfinite(values) | np.isnan(values)):
        raise ParseError(path, 7, "non-finite elevation value")
    return ElevationGrid(
        origin=GeoPoint(header["yllcorner"], header["xllcorner"]),
        cellsize=header["cellsize"],
        values=values,
        nodata=nodata,
    )


def write_dem(grid: ElevationGrid, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ncols {grid.ncols}\n")
        fh.write(f"nrows {grid.nrows}\n")
        fh.write(f"xllcorner {repr(grid.origin.lon)}\n")
        fh.write(f"yllcorner {repr(grid.origin.lat)}\n")
        fh.write(f"cellsize {repr(grid.cellsize)}\n")
        fh.write(f"NODATA_value {repr(grid.nodata)}\n")
        for row in grid.values:
            cells = [repr(grid.nodata) if math.isnan(v) else repr(float(v)) for v in row]
            fh.write(" ".join(cells) + "\n")
