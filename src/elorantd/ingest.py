"""Corpus parsing and alignment.

Four text formats: station registry CSV, hourly weather CSV, 1 Hz TD CSV,
and ESRI ASCII DEM rasters.  Floats are written with repr() so every
parse -> serialize -> parse round trip is exact.  Timestamps are UTC
ISO-8601 with a trailing Z.

One hour axis runs through ingest: integer hours since the Unix epoch.
The weather store (WeatherSeries) is a dense cube on it, values and a
presence mask of shape (hour, station, factor) with stations in registry
order and factors in ALL_FACTORS order.  The 1 Hz TD log (TdSamples) is
two columns, int64 microseconds since the epoch and float64 TD; its
samples are bucketed by the same integer hour, and alignment keeps the TD
hours whose cube row is present for every station and requested factor.
"""
from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError
from .types import (
    ALL_FACTORS,
    TD_SANITY_BOUND_NS,
    EpochHour,
    FactorSet,
    GeoPoint,
    MetFactor,
    factor_set,
    parse_utc,
    validate_factor_value,
    validate_td_ns,
)

UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)
MICROS_PER_SECOND = 1_000_000
MICROS_PER_HOUR = 3600 * MICROS_PER_SECOND

# half an hour of 1 Hz data; hours with fewer samples are dropped
DEFAULT_MIN_SAMPLES_PER_HOUR = 1800


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
        raise DataError(f"station id {station_id!r} not in registry")

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


@dataclass(frozen=True, eq=False)
class TdSamples:
    """A TD log as two columns: micros, int64 microseconds since the Unix
    epoch, strictly increasing; values, float64 TD in ns, each passing
    validate_td_ns.

    Indexing and iteration give (aware-UTC datetime, float) pairs.
    """

    micros: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.micros.ndim != 1 or self.micros.shape != self.values.shape:
            raise ValueError(f"TD columns {self.micros.shape} and {self.values.shape} differ")
        if np.any(self.micros[1:] <= self.micros[:-1]):
            raise ValueError("TD sample times must be strictly increasing")
        bad = ~((self.values > -TD_SANITY_BOUND_NS) & (self.values < TD_SANITY_BOUND_NS))
        if bad.any():
            validate_td_ns(self.values[bad][0])  # raises, naming the first offender

    @classmethod
    def from_pairs(cls, pairs) -> "TdSamples":
        """From (aware-UTC datetime, value) pairs in time order."""
        micros, values = [], []
        for when, value in pairs:
            if when.utcoffset() != timedelta(0):
                raise ValueError(f"sample time {when!r} must be timezone-aware UTC")
            micros.append((when - UNIX_EPOCH) // MICROSECOND)
            values.append(float(value))
        return cls(np.array(micros, dtype=np.int64), np.array(values, dtype=float))

    def __len__(self) -> int:
        return len(self.micros)

    def __getitem__(self, i: int) -> tuple[datetime, float]:
        return UNIX_EPOCH + int(self.micros[i]) * MICROSECOND, float(self.values[i])

    def __iter__(self):
        offsets = self.micros.astype("timedelta64[us]").tolist()
        return zip(map(UNIX_EPOCH.__add__, offsets), self.values.tolist())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TdSamples)
            and np.array_equal(self.micros, other.micros)
            and np.array_equal(self.values, other.values)
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


# plausible terrain elevations in metres: below the Dead Sea shore (-430 m)
# to above Everest (8,849 m)
ELEVATION_RANGE_M = (-500.0, 9000.0)


def _implausible_elevation(values: np.ndarray) -> tuple[int, str] | None:
    """(row, message) of the first raster cell outside ELEVATION_RANGE_M,
    infinities included, or None; NaN (no data) passes."""
    low, high = ELEVATION_RANGE_M
    bad = (values < low) | (values > high)
    if not bad.any():
        return None
    row = int(np.argmax(bad.any(axis=1)))
    value = float(values[row][bad[row]][0])
    if math.isinf(value):
        return row, "non-finite elevation value"
    return row, f"elevation {value!r} m is outside {low:g}..{high:g} m"


@dataclass(frozen=True)
class ElevationGrid:
    """Row-major elevation raster; row 0 is the northernmost row.

    origin is the lower-left corner of the raster footprint (ESRI
    convention); absent cells are NaN internally and serialize back to
    the recorded nodata sentinel.  Every present cell lies in
    ELEVATION_RANGE_M.
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
        fault = _implausible_elevation(self.values)
        if fault:
            raise ValueError(fault[1])

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


def read_utf8(path) -> str:
    """The text of the file at path; a byte that is not UTF-8 is a ParseError at
    its line, counting \r\n, a lone \r and \n each as one line end, as the csv
    reader does."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        ends = data.count(b"\n", 0, exc.start) + data.count(b"\r", 0, exc.start)
        raise ParseError(path, ends - data.count(b"\r\n", 0, exc.start) + 1,
                         f"byte 0x{data[exc.start]:02x} is not UTF-8 text") from None


def _csv_rows(path, header_fault):
    """The header, then (line number, row) for each non-blank row of a CSV file.

    header_fault maps the header row (None for an empty file) to the text
    of its fault, or to None when it is good.  A bad header, a row whose
    field count is not the header's and a byte that is not UTF-8 are
    ParseErrors at their line."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            fault = header_fault(header)
            if fault:
                raise ParseError(path, 1, fault)
            yield header
            end = reader.line_num
            for row in reader:  # a row starts on the line after the last one's end
                lineno, end = end + 1, reader.line_num
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(path, lineno,
                                     f"expected {len(header)} fields, got {len(row)}")
                yield lineno, row
    except UnicodeDecodeError:
        read_utf8(path)
        raise


def _header_is(*names: str):
    """The header_fault of a CSV file whose header must be exactly names."""
    return lambda header: (None if header == list(names)
                           else f"expected header {','.join(names)}, got {header}")


def write_csv(path, header, rows) -> None:
    """A CSV file of the header row, then each row; cells are strings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- station registry --------------------------------------------------------

def parse_station_registry(path) -> StationRegistry:
    entries: dict[str, GeoPoint] = {}
    rows = _csv_rows(path, _header_is("station_id", "lat", "lon"))
    next(rows)
    for lineno, row in rows:
        sid = row[0].strip()
        if not sid:
            raise ParseError(path, lineno, "empty station id")
        if sid in entries:
            raise ParseError(path, lineno, f"duplicate station id {sid!r}")
        try:
            entries[sid] = GeoPoint(float(row[1]), float(row[2]))
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
    if not entries:
        raise ParseError(path, 2, "registry has no data rows")
    return StationRegistry(tuple(entries.items()))


def write_station_registry(registry: StationRegistry, path) -> None:
    write_csv(path, ["station_id", "lat", "lon"],
              ([sid, repr(loc.lat), repr(loc.lon)] for sid, loc in registry.entries))


# -- stamped CSV in bulk ------------------------------------------------------
# weather.csv and td.csv as the writers write them: one np.loadtxt call
# into fixed byte fields and floats, then the stamps from their digits.
# Anything the checks cannot vouch for goes to the file's row loop, which
# reports each fault at its line.

# the stamp the writers write for a whole second, as bytes: 0 marks a
# digit, then the NUL that pads a 20-byte stamp in a 21-byte field
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z\0", dtype=np.uint8)
_STAMP_SLACK = np.where(_STAMP == ord("0"), 9, 0).astype(np.uint8)
# byte ranges of year, month, day, hour, minute and second in the stamp
_STAMP_FIELDS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19))
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_STAMP_CHUNK = 1 << 15  # stamps converted per step, so temporaries stay small


def _read_stamped(path, dtype_of) -> tuple[np.ndarray, np.ndarray] | None:
    """(rows, micros) of a CSV file read in bulk, or None.

    dtype_of maps the header line, as bytes with its line end, to the
    record dtype of every other line, or to None.  The record's
    "timestamp" field (S21) must hold a whole-second YYYY-MM-DDTHH:MM:SSZ
    stamp; micros is each stamp's microseconds since the Unix epoch.
    Blank lines are skipped; a NUL byte, a cell that is not a number, a
    wrong field count or an impossible date gives None."""
    newlines = 0
    with open(path, "rb") as fh:
        dtype = dtype_of(fh.readline())
        if dtype is None:
            return None
        # small chunks keep the scan's buffer below the rows' size
        for chunk in iter(partial(fh.read, 1 << 16), b""):
            # numpy's byte-string fields drop trailing NULs, which could hide junk
            if b"\0" in chunk:
                return None
            newlines += chunk.count(b"\n")
    # a bound on the rows lets loadtxt allocate them once, where growing
    # them step by step leaves holes in the heap that raise the peak RSS
    max_rows = newlines + 2
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a file with no rows
            # and on a blank line, which the row loops skip as well
            warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data")
            rows = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, comments=None,
                              encoding="utf-8", ndmin=1, max_rows=max_rows)
    except (ValueError, Warning):
        return None
    if len(rows) == max_rows:  # a lone \r ends a line too: rows may be left unread
        return None
    at = rows.dtype.fields["timestamp"][1]
    raw = rows.view(np.uint8).reshape(-1, rows.itemsize)[:, at:at + len(_STAMP)]
    # column by column, so that no temporary is the size of the stamps
    if any((raw[:, j] - _STAMP[j]).max() > _STAMP_SLACK[j] for j in range(len(_STAMP))):
        return None
    micros = np.empty(len(rows), dtype=np.int64)
    for start in range(0, len(rows), _STAMP_CHUNK):
        part = _stamp_micros(raw[start:start + _STAMP_CHUNK])
        if part is None:
            return None
        micros[start:start + len(part)] = part
    return rows, micros


def _stamp_field(raw: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The decimal number in bytes lo:hi of each stamp."""
    out = np.zeros(len(raw), dtype=np.int32)
    for j in range(lo, hi):
        out = out * 10 + (raw[:, j] - ord("0"))
    return out


def _stamp_micros(raw: np.ndarray) -> np.ndarray | None:
    """Microseconds since the Unix epoch of digit-checked stamps, one row of
    bytes each; None if one is not a real time from year 1 on (datetime has
    no year 0).  Computed from the digits, because numpy's string to
    datetime64 cast can crash the process on an invalid date in a large
    array (numpy 2.4: SIGSEGV on "2024-02-30T25:00:00" among 1,000 stamps)."""
    year, month, day, hour, minute, second = (
        _stamp_field(raw, lo, hi) for lo, hi in _STAMP_FIELDS
    )
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.minimum(month, 12)] + (leap & (month == 2))
    if not np.all((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
                  & (day <= month_days) & (hour < 24) & (minute < 60) & (second < 60)):
        return None
    # days since 1970-01-01 in the proleptic Gregorian calendar, counting
    # the year from March (Hinnant, "chrono-Compatible Low-Level Date Algorithms")
    y = year - (month <= 2)
    days = (y * 365 + y // 4 - y // 100 + y // 400
            + (153 * ((month + 9) % 12) + 2) // 5 + day - 1 - 719468).astype(np.int64)
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * MICROS_PER_SECOND


# -- weather ------------------------------------------------------------------

def parse_weather_csv(path, registry: StationRegistry) -> WeatherSeries:
    """A file whose rows are all <registered id>,YYYY-MM-DDTHH:00:00Z and one
    number per factor column, with no blank cell, is read in bulk; any
    other file is read row by row, which accepts blank cells and every
    ISO-8601 UTC form and reports faults at their line."""
    series = _read_weather_fixed(path, registry)
    return series if series is not None else _read_weather_rows(path, registry)


def _weather_header_fault(header: list[str] | None) -> str | None:
    """What is wrong with a weather file's header row, or None."""
    if not header or header[:2] != ["station_id", "timestamp"]:
        return "expected header starting station_id,timestamp"
    try:
        columns = [MetFactor.from_column(name) for name in header[2:]]
    except ValueError as exc:
        return str(exc)
    if not columns:
        return "no factor columns declared"
    if len(set(columns)) != len(columns):
        return "repeated factor column"
    return None


def _weather_dtype(header: bytes, id_width: int) -> np.dtype | None:
    """The record dtype of a weather file's rows, its fields named by the
    header's columns, if the row loop reads the header line to those
    columns without fault; None otherwise."""
    if not header.endswith(b"\n"):
        return None
    text = header[:-2] if header.endswith(b"\r\n") else header[:-1]
    if not text.isascii():
        return None
    # no quote, so splitting at commas is what the csv module does
    names = text.decode("ascii").split(",")
    if _weather_header_fault(names):
        return None
    return np.dtype([("station_id", f"S{id_width}"), ("timestamp", "S21")]
                    + [(name, "f8") for name in names[2:]])


def _read_weather_fixed(path, registry: StationRegistry) -> WeatherSeries | None:
    """The series if every row is <registered id>,YYYY-MM-DDTHH:00:00Z,<float>,...
    with no blank cell and every check passes; None otherwise, so that the
    row loop reports the fault.  Each factor column is written straight
    into the (hour, station, factor) cube."""
    # the ids a cell matches byte for byte exactly when the row loop's
    # stripped cell matches them (loadtxt neither strips nor unquotes)
    station_of = {sid.encode("ascii"): s for s, sid in enumerate(registry.ids)
                  if sid.isascii() and sid == sid.strip() and '"' not in sid}
    if not station_of:
        return None
    # one byte wider than the longest id, so that a longer id is not cut to a match
    width = max(map(len, station_of)) + 1
    read = _read_stamped(path, partial(_weather_dtype, id_width=width))
    if read is None:
        return None
    rows, micros = read
    row_hours, past_hour = np.divmod(micros, MICROS_PER_HOUR)
    if past_hour.any():
        return None
    ids, id_rows = np.unique(rows["station_id"], return_inverse=True)
    stations = [station_of.get(sid) for sid in ids.tolist()]
    if None in stations:
        return None
    row_stations = np.array(stations)[id_rows]
    hours, row_hours = np.unique(row_hours, return_inverse=True)
    shape = (len(hours), len(registry), len(ALL_FACTORS))
    values, present = np.full(shape, np.nan), np.zeros(shape, dtype=bool)
    for name in rows.dtype.names[2:]:
        f = ALL_FACTORS.index(MetFactor(name))
        values[row_hours, row_stations, f] = rows[name]
        present[row_hours, row_stations, f] = True
    if np.count_nonzero(present[:, :, f]) != len(rows):  # a repeated (station, hour)
        return None
    try:
        return WeatherSeries(hours, registry.ids, values, present)
    except DataError:
        return None


def _read_weather_rows(path, registry: StationRegistry) -> WeatherSeries:
    """Rows are checked one by one, then each factor column at once.  Rows are
    kept in flat typed columns, in file order: one int key per row, hour
    times the station count plus the station's index, and the row's values
    and presence flags."""
    station_index = {sid: s for s, sid in enumerate(registry.ids)}
    n_stations = len(registry)
    keys, seen = array("q"), set()
    cell_values, cell_present = array("d"), bytearray()
    rows = _csv_rows(path, _weather_header_fault)
    columns = [MetFactor(name) for name in next(rows)[2:]]
    for lineno, row in rows:
        sid = row[0].strip()
        if sid not in station_index:
            raise ParseError(path, lineno, f"station id {sid!r} not in registry")
        try:
            hour = EpochHour.parse(row[1]).hours_since_epoch
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        key = hour * n_stations + station_index[sid]
        if key in seen:
            raise ParseError(path, lineno, f"second row for {sid} at {row[1].strip()}")
        seen.add(key)
        for cell in row[2:]:
            cell = cell.strip()
            try:
                cell_values.append(float(cell) if cell else math.nan)
            except ValueError:
                raise ParseError(path, lineno, f"bad number {cell!r}") from None
            cell_present.append(bool(cell))
        keys.append(key)

    row_hours, row_stations = np.divmod(np.frombuffer(keys, dtype=np.int64), n_stations)
    row_values = np.frombuffer(cell_values, dtype=float).reshape(-1, len(columns))
    row_present = np.frombuffer(cell_present, dtype=bool).reshape(row_values.shape)
    reported = row_present.any(axis=1)
    hours, hour_rows = np.unique(row_hours[reported], return_inverse=True)
    shape = (len(hours), n_stations, len(ALL_FACTORS))
    values, present = np.full(shape, np.nan), np.zeros(shape, dtype=bool)
    index = (hour_rows[:, None], row_stations[reported, None],
             [ALL_FACTORS.index(f) for f in columns])
    values[index] = row_values[reported]
    present[index] = row_present[reported]
    return WeatherSeries(hours, registry.ids, values, present)


def write_weather_csv(series: WeatherSeries, path, factors: FactorSet = ALL_FACTORS) -> None:
    """One row per (station, hour) with any value: stations by id, hours ascending."""
    factors = factor_set(factors)
    columns = [ALL_FACTORS.index(f) for f in factors]
    stamps = [EpochHour.from_hours(int(h)).isoformat() for h in series.hours]

    def rows():
        for sid in sorted(series.station_ids):
            s = series.station_ids.index(sid)
            values = series.values[:, s, columns].tolist()
            present = series.present[:, s, columns].tolist()
            for t in np.flatnonzero(series.present[:, s].any(axis=1)):
                cells = ["" if not p else repr(v) for v, p in zip(values[t], present[t])]
                yield [sid, stamps[t], *cells]

    write_csv(path, ["station_id", "timestamp"] + [f.column for f in factors], rows())


# -- 1 Hz TD ------------------------------------------------------------------

_TD_HEADER = (b"timestamp,td_ns\n", b"timestamp,td_ns\r\n")
_TD_DTYPE = np.dtype([("timestamp", "S21"), ("td_ns", "f8")])


def parse_td_csv(path) -> TdSamples:
    """A file of whole-second Z stamps, as write_td_csv writes them, is read
    in bulk; any other file is read row by row, which accepts every
    ISO-8601 UTC form and reports faults at their line."""
    samples = _read_td_fixed(path)
    return samples if samples is not None else _read_td_rows(path)


def _read_td_fixed(path) -> TdSamples | None:
    """The log if every row is YYYY-MM-DDTHH:MM:SSZ,<float> and every check
    passes; None otherwise, so that the row loop reports the fault."""
    read = _read_stamped(path, lambda header: _TD_DTYPE if header in _TD_HEADER else None)
    if read is None:
        return None
    rows, micros = read
    try:
        return TdSamples(micros, np.ascontiguousarray(rows["td_ns"]))
    except (ValueError, DataError):
        return None


def _read_td_rows(path) -> TdSamples:
    micros: list[int] = []
    values: list[float] = []
    rows = _csv_rows(path, _header_is("timestamp", "td_ns"))
    next(rows)
    prev: datetime | None = None
    for lineno, (stamp, cell) in rows:
        try:
            when = parse_utc(stamp)
            value = validate_td_ns(float(cell))
        except (ValueError, DataError) as exc:
            raise ParseError(path, lineno, str(exc)) from None
        if prev is not None and when <= prev:
            raise ParseError(path, lineno, "timestamps must be strictly increasing")
        prev = when
        micros.append((when - UNIX_EPOCH) // MICROSECOND)
        values.append(value)
    return TdSamples(np.array(micros, dtype=np.int64), np.array(values, dtype=float))


_WRITE_ROWS = 1 << 16  # rows formatted per write


def write_td_csv(samples, path) -> None:
    """TdSamples, or (datetime, value) pairs; times carry .ffffff only when
    they are not whole seconds, values are written by repr."""
    if not isinstance(samples, TdSamples):
        samples = TdSamples.from_pairs(samples)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("timestamp,td_ns\r\n")
        for start in range(0, len(samples), _WRITE_ROWS):
            micros = samples.micros[start:start + _WRITE_ROWS]
            stamps = np.datetime_as_string(micros.astype("datetime64[us]"))
            stamps = np.where(micros % MICROS_PER_SECOND == 0, stamps.astype("U19"), stamps)
            values = samples.values[start:start + _WRITE_ROWS].tolist()
            fh.write("".join([f"{t}Z,{v!r}\r\n" for t, v in zip(stamps.tolist(), values)]))


def aggregate_hourly(samples: TdSamples,
                     min_samples: int = DEFAULT_MIN_SAMPLES_PER_HOUR) -> HourlyTdSeries:
    """Mean TD per whole UTC hour; hours with < min_samples are omitted.

    Sample times are sorted, so each integer hour since the Unix epoch is
    one run of samples.  A run's values are sorted before summation, so a
    mean does not depend on the order of the values within its hour.
    """
    hours = samples.micros // MICROS_PER_HOUR
    starts = np.flatnonzero(np.diff(hours, prepend=hours[:1] - 1))
    counts = np.diff(starts, append=len(hours))
    kept = np.flatnonzero(counts >= min_samples)
    means = [np.sort(samples.values[starts[k]:starts[k] + counts[k]]).sum() / counts[k]
             for k in kept]
    return HourlyTdSeries(
        epochs=tuple(EpochHour.from_hours(h) for h in hours[starts[kept]].tolist()),
        values=np.array(means, dtype=float),
        counts=counts[kept].astype(int),
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
        raise DataError(
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
        raise DataError(
            "no epoch has TD plus every requested factor at every station"
        )
    values = weather.values[np.ix_(rows[kept], stations_at, columns)]
    return AlignedDataset(
        tuple(td.epochs[t] for t in kept), ids, factors, values, td.values[kept]
    )


# -- DEM ----------------------------------------------------------------------

_DEM_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
# what each header value must be; NaN fails every rule
_DEM_HEADER_RULES = (
    ("ncols", "an integer >= 1", lambda v: v >= 1 and v.is_integer()),
    ("nrows", "an integer >= 1", lambda v: v >= 1 and v.is_integer()),
    ("xllcorner", "a longitude in [-180, 180]", lambda v: -180.0 <= v <= 180.0),
    ("yllcorner", "a latitude in [-90, 90]", lambda v: -90.0 <= v <= 90.0),
    ("cellsize", "finite and > 0", lambda v: 0.0 < v < math.inf),
)


def parse_dem(path) -> ElevationGrid:
    """ESRI ASCII grid: six header lines then row-major values, north first."""
    header: dict[str, float] = {}
    header_line: dict[str, int] = {}
    rows: list[list[float]] = []
    lines = read_utf8(path).splitlines()
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
        header_line[key] = lineno
    missing = [k for k in _DEM_HEADER_KEYS if k not in header]
    if missing:
        raise ParseError(path, lineno, f"missing header keywords {missing}")
    for key, rule, ok in _DEM_HEADER_RULES:
        if not ok(header[key]):
            raise ParseError(path, header_line[key], f"{key} must be {rule}, got {header[key]!r}")
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    nodata = header["nodata_value"]
    row_lines: list[int] = []
    for lineno, line in enumerate(lines[6:], start=7):
        if not line.strip():
            continue
        try:
            rows.append([float(v) for v in line.split()])
        except ValueError:
            raise ParseError(path, lineno, "bad elevation value") from None
        row_lines.append(lineno)
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise DataError(
            f"{path}: declared {nrows}x{ncols}, found "
            f"{len(rows)} rows of widths {sorted({len(r) for r in rows})}"
        )
    values = np.array(rows, dtype=float)
    values[values == nodata] = np.nan
    fault = _implausible_elevation(values)
    if fault:
        raise ParseError(path, row_lines[fault[0]], fault[1])
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
