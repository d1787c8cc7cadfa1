from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from elorantd.errors import (
    DuplicateStationError,
    EmptyIntersectionError,
    InconsistentDimensionsError,
    OutOfRangeError,
    ParseError,
    UnknownStationError,
)
from elorantd.ingest import (
    ElevationGrid,
    HourlyTdSeries,
    StationRegistry,
    WeatherSeries,
    aggregate_hourly,
    align_epochs,
    parse_dem,
    parse_station_registry,
    parse_td_csv,
    parse_weather_csv,
    write_dem,
    write_station_registry,
    write_td_csv,
    write_weather_csv,
)
from elorantd.types import ALL_FACTORS, EpochHour, GeoPoint, MetFactor, factor_set
from tests.oracles import hourly_value, weather_from_cells


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def hours_after(start: EpochHour, h: int) -> EpochHour:
    return EpochHour.from_hours(start.hours_since_epoch + h)


@pytest.fixture
def registry():
    return StationRegistry(
        (
            ("ST01", GeoPoint(36.0, 127.0)),
            ("ST02", GeoPoint(36.5, 127.5)),
        )
    )


# -- station registry ---------------------------------------------------------


def test_parse_station_registry_ten_rows(tmp_path):
    path = tmp_path / "stations.csv"
    lines = ["station_id,lat,lon"]
    for k in range(10):
        lines.append(f"S{k:02d},{36.0 + 0.1 * k},{127.0 + 0.1 * k}")
    path.write_text("\n".join(lines) + "\n")
    reg = parse_station_registry(path)
    assert len(reg) == 10
    assert reg.ids[0] == "S00"
    assert reg.location("S03") == GeoPoint(36.3, 127.3)


def test_parse_station_registry_empty_data(tmp_path):
    path = tmp_path / "stations.csv"
    path.write_text("station_id,lat,lon\n")
    with pytest.raises(ParseError):
        parse_station_registry(path)


def test_parse_station_registry_duplicate(tmp_path):
    path = tmp_path / "stations.csv"
    path.write_text("station_id,lat,lon\nA,36,127\nA,36.5,127.5\n")
    with pytest.raises(DuplicateStationError):
        parse_station_registry(path)


def test_parse_station_registry_bad_header(tmp_path):
    path = tmp_path / "stations.csv"
    path.write_text("id,lat,lon\nA,36,127\n")
    with pytest.raises(ParseError):
        parse_station_registry(path)


def test_station_registry_roundtrip(tmp_path, registry):
    path = tmp_path / "out.csv"
    write_station_registry(registry, path)
    again = parse_station_registry(path)
    assert again == registry


# -- weather ------------------------------------------------------------------

EPOCH0 = EpochHour.parse("2024-10-01T00:00:00Z")


def test_parse_weather_row_stored(tmp_path, registry):
    path = tmp_path / "weather.csv"
    path.write_text(
        "station_id,timestamp,humidity_pct\nST01,2024-10-01T00:00:00Z,55\n"
    )
    series = parse_weather_csv(path, registry)
    assert series == weather_from_cells(registry.ids, {("ST01", EPOCH0, MetFactor.HUMIDITY): 55.0})
    assert series.station_ids == registry.ids
    np.testing.assert_array_equal(series.hours, [EPOCH0.hours_since_epoch])


def test_parse_weather_unknown_station(tmp_path, registry):
    path = tmp_path / "weather.csv"
    path.write_text(
        "station_id,timestamp,humidity_pct\nNOPE,2024-10-01T00:00:00Z,55\n"
    )
    with pytest.raises(UnknownStationError):
        parse_weather_csv(path, registry)


def test_parse_weather_cloud_cover_bounds(tmp_path, registry):
    ok = tmp_path / "ok.csv"
    ok.write_text(
        "station_id,timestamp,cloud_cover_unitless\nST01,2024-10-01T00:00:00Z,10\n"
    )
    series = parse_weather_csv(ok, registry)
    assert series == weather_from_cells(
        registry.ids, {("ST01", EPOCH0, MetFactor.CLOUD_COVER): 10.0}
    )

    bad = tmp_path / "bad.csv"
    bad.write_text(
        "station_id,timestamp,cloud_cover_unitless\nST01,2024-10-01T00:00:00Z,11\n"
    )
    with pytest.raises(OutOfRangeError):
        parse_weather_csv(bad, registry)


@pytest.mark.parametrize(
    "column,cell",
    [("cloud_cover_unitless", "6.5"), ("humidity_pct", "nan"), ("temperature_c", "-inf"),
     ("pressure_hpa", "849.9")],
)
def test_parse_weather_rejects_one_bad_value_among_good_rows(tmp_path, registry, column, cell):
    good = {"cloud_cover_unitless": "3", "humidity_pct": "50", "temperature_c": "10",
            "pressure_hpa": "1000"}[column]
    lines = [f"station_id,timestamp,{column}"]
    lines += [f"ST0{s},{hours_after(EPOCH0, h).isoformat()},{good}"
              for s in (1, 2) for h in range(5)]
    lines[7] = lines[7].rsplit(",", 1)[0] + "," + cell
    path = tmp_path / "weather.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(OutOfRangeError):
        parse_weather_csv(path, registry)


def test_parse_weather_blank_cell_absent(tmp_path, registry):
    path = tmp_path / "weather.csv"
    path.write_text(
        "station_id,timestamp,temperature_c,humidity_pct\n"
        "ST01,2024-10-01T00:00:00Z,,55\n"
        "ST02,2024-10-01T01:00:00Z,,\n"
    )
    series = parse_weather_csv(path, registry)
    assert series == weather_from_cells(registry.ids, {("ST01", EPOCH0, MetFactor.HUMIDITY): 55.0})
    assert not series.present[0, 0, ALL_FACTORS.index(MetFactor.TEMPERATURE)]


def test_parse_weather_second_row_for_station_hour_rejected_at_its_line(tmp_path, registry):
    path = tmp_path / "weather.csv"
    path.write_text(
        "station_id,timestamp,temperature_c\n"
        "ST01,2024-10-01T00:00:00Z,10.0\n"
        "ST02,2024-10-01T00:00:00Z,12.0\n"
        "ST01,2024-10-01T00:00:00Z,20.0\n"
    )
    with pytest.raises(ParseError) as info:
        parse_weather_csv(path, registry)
    assert info.value.line == 4


def test_parse_weather_repeated_factor_column_rejected(tmp_path, registry):
    path = tmp_path / "weather.csv"
    path.write_text(
        "station_id,timestamp,temperature_c,temperature_c\n"
        "ST01,2024-10-01T00:00:00Z,10.0,30.0\n"
    )
    with pytest.raises(ParseError) as info:
        parse_weather_csv(path, registry)
    assert info.value.line == 1


@pytest.mark.parametrize(
    "row,line",
    [
        ("ST01,2024-10-01T00:00:00Z,10.0,1", 3),  # field count
        ("ST01,2024-10-01T00:30:00Z,10.0", 3),  # not a whole hour
        ("ST01,2024-10-01T00:00:00,10.0", 3),  # no UTC offset
        ("ST01,2024-10-01T00:00:00Z,warm", 3),  # unparsable cell
    ],
)
def test_parse_weather_row_faults_report_their_line(tmp_path, registry, row, line):
    path = tmp_path / "weather.csv"
    path.write_text(
        f"station_id,timestamp,temperature_c\nST02,2024-10-01T00:00:00Z,1.0\n{row}\n"
    )
    with pytest.raises(ParseError) as info:
        parse_weather_csv(path, registry)
    assert info.value.line == line


def test_weather_roundtrip(tmp_path, registry):
    factors = factor_set([MetFactor.TEMPERATURE, MetFactor.HUMIDITY])
    e1 = hours_after(EPOCH0, 1)
    series = weather_from_cells(registry.ids, {
        ("ST01", EPOCH0, MetFactor.TEMPERATURE): 12.345678901234567,
        ("ST01", EPOCH0, MetFactor.HUMIDITY): 55.0,
        ("ST02", e1, MetFactor.TEMPERATURE): -3.25,
    })
    path = tmp_path / "weather.csv"
    write_weather_csv(series, path, factors)
    again = parse_weather_csv(path, registry)
    assert again == series


def test_weather_roundtrip_random_cube_with_holes(tmp_path):
    rng = np.random.default_rng(8)
    registry = StationRegistry(
        tuple((f"S{k}", GeoPoint(36.0 + 0.1 * k, 127.0)) for k in (3, 0, 2, 1))
    )
    hours = np.sort(rng.choice(np.arange(480_000, 480_200), size=40, replace=False))
    shape = (hours.size, len(registry), len(ALL_FACTORS))
    lo, hi = np.array([f.bounds for f in ALL_FACTORS]).T
    values = lo + rng.random(shape) * (hi - lo)
    integer = [f.integer_valued for f in ALL_FACTORS]
    values[:, :, integer] = np.round(values[:, :, integer])
    present = rng.random(shape) < 0.7
    present[:, 2] = False  # a registry station with no rows at all
    present[0] = False
    present[0, 1, 4] = True  # an hour with a single value
    values[~present] = np.nan
    series = WeatherSeries(hours, registry.ids, values, present)

    path = tmp_path / "weather.csv"
    write_weather_csv(series, path)
    again = parse_weather_csv(path, registry)
    assert again == series
    again_path = tmp_path / "again.csv"
    write_weather_csv(again, again_path)
    assert again_path.read_bytes() == path.read_bytes()
    body = path.read_text().splitlines()[1:]
    assert not any(line.startswith("S2,") for line in body)
    assert [line.split(",")[0] for line in body] == sorted(line.split(",")[0] for line in body)


def test_weather_store_equality_ignores_absent_values_only(registry):
    t = MetFactor.TEMPERATURE
    a = weather_from_cells(registry.ids, {("ST01", EPOCH0, t): 10.0})
    b = weather_from_cells(registry.ids, {("ST01", EPOCH0, t): 10.0})
    b.values[0, 1] = 42.0  # absent cells
    assert a == b
    assert a != weather_from_cells(registry.ids, {("ST02", EPOCH0, t): 10.0})
    assert a != weather_from_cells(registry.ids, {("ST01", EPOCH0, MetFactor.HUMIDITY): 10.0})
    assert a != weather_from_cells(registry.ids, {("ST01", hours_after(EPOCH0, 1), t): 10.0})
    assert a != weather_from_cells(registry.ids, {("ST01", EPOCH0, t): 10.5})
    both = {(sid, EPOCH0, t): 10.0 for sid in registry.ids}
    assert weather_from_cells(registry.ids, both) != weather_from_cells(registry.ids[::-1], both)


def test_weather_store_rejects_out_of_range_present_values(registry):
    shape = (1, len(registry), len(ALL_FACTORS))
    values, present = np.full(shape, 1.0e6), np.zeros(shape, dtype=bool)
    values[0, 0, 0], present[0, 0, 0] = 1000.0, True  # one valid pressure
    WeatherSeries(np.array([0]), registry.ids, values, present)  # absent: not checked
    present[0, 1, ALL_FACTORS.index(MetFactor.HUMIDITY)] = True
    with pytest.raises(OutOfRangeError):
        WeatherSeries(np.array([0]), registry.ids, values, present)


# -- TD -----------------------------------------------------------------------


def test_parse_td_strictly_increasing(tmp_path):
    path = tmp_path / "td.csv"
    path.write_text(
        "timestamp,td_ns\n"
        "2024-10-01T00:00:00Z,100.0\n"
        "2024-10-01T00:00:00Z,101.0\n"
    )
    with pytest.raises(ParseError):
        parse_td_csv(path)


def test_td_roundtrip(tmp_path):
    samples = [
        (utc(2024, 10, 1, 0, 0, 0), 100.25),
        (utc(2024, 10, 1, 0, 0, 1), 101.5),
        (utc(2024, 10, 1, 0, 0, 2), 99.0),
    ]
    path = tmp_path / "td.csv"
    write_td_csv(samples, path)
    assert parse_td_csv(path) == samples


def test_aggregate_hourly_constant_hour():
    base = utc(2024, 10, 1, 5)
    samples = [(base + timedelta(seconds=s), 100.0) for s in range(3600)]
    hourly = aggregate_hourly(samples, min_samples=1800)
    epoch = EpochHour(base)
    assert hourly_value(hourly, epoch) == 100.0
    assert hourly.counts[hourly.epochs.index(epoch)] == 3600


def test_aggregate_hourly_arithmetic_series():
    # one sample per second valued 0..3599 -> mean (0 + 3599) / 2 = 1799.5
    base = utc(2024, 10, 1, 5)
    samples = [(base + timedelta(seconds=s), float(s)) for s in range(3600)]
    hourly = aggregate_hourly(samples, min_samples=1800)
    assert hourly_value(hourly, EpochHour(base)) == pytest.approx(1799.5, abs=1e-12)


def test_aggregate_hourly_drops_thin_hours():
    base = utc(2024, 10, 1, 5)
    samples = [(base + timedelta(seconds=s), 10.0) for s in range(10)]
    hourly = aggregate_hourly(samples, min_samples=1800)
    assert len(hourly) == 0
    assert hourly_value(hourly, EpochHour(base)) is None


def test_aggregate_hourly_order_invariant():
    rng = np.random.default_rng(3)
    base = utc(2024, 10, 1, 5)
    values = rng.normal(100.0, 20.0, size=2000)
    samples = [(base + timedelta(seconds=s), float(v)) for s, v in enumerate(values)]
    shuffled = list(samples)
    rng.shuffle(shuffled)
    a = aggregate_hourly(samples, min_samples=1800)
    b = aggregate_hourly(shuffled, min_samples=1800)
    assert hourly_value(a, EpochHour(base)) == hourly_value(b, EpochHour(base))


def test_aggregate_hourly_last_microsecond_stays_in_its_hour():
    late = [(utc(2024, 10, 1, h, 59, 59, 999999), 10.0 * h) for h in (5, 6)]
    hourly = aggregate_hourly([(utc(2024, 10, 1, 5, 0, 0), 0.0), *late], min_samples=1)
    assert hourly.epochs == (EpochHour.of(2024, 10, 1, 5), EpochHour.of(2024, 10, 1, 6))
    np.testing.assert_array_equal(hourly.values, [25.0, 60.0])
    np.testing.assert_array_equal(hourly.counts, [2, 1])


@pytest.mark.parametrize(
    "when",
    [datetime(2024, 10, 1, 5), datetime(2024, 10, 1, 5, tzinfo=timezone(timedelta(hours=9)))],
)
def test_aggregate_hourly_rejects_naive_and_non_utc_times(when):
    samples = [(utc(2024, 10, 1, 4), 1.0), (when, 2.0)]
    with pytest.raises(ValueError):
        aggregate_hourly(samples, min_samples=1)


# -- alignment ----------------------------------------------------------------


def td_series(mapping):
    """An HourlyTdSeries from {EpochHour: mean}, epoch-sorted."""
    epochs = tuple(sorted(mapping))
    values = np.array([mapping[e] for e in epochs], dtype=float)
    return HourlyTdSeries(epochs, values, np.full(len(epochs), 3600))


def _weather_grid(registry, factors, epochs, holes=()):
    return weather_from_cells(registry.ids, {
        (sid, e, f): 10.0
        for sid in registry.ids for e in epochs for f in factors
        if (sid, e, f) not in holes
    })


def test_align_epochs_intersection(registry):
    factors = factor_set([MetFactor.TEMPERATURE])
    weather_epochs = [hours_after(EPOCH0, h) for h in range(6)]
    weather = _weather_grid(registry, factors, weather_epochs)
    td = td_series({weather_epochs[2]: 100.0, weather_epochs[4]: 90.0})
    dataset = align_epochs(weather, td, factors, registry)
    assert dataset.epochs == (weather_epochs[2], weather_epochs[4])
    assert dataset.values.shape == (2, 2, 1)
    np.testing.assert_array_equal(dataset.td, [100.0, 90.0])


def test_align_epochs_excludes_partial(registry):
    factors = factor_set([MetFactor.TEMPERATURE, MetFactor.HUMIDITY])
    epochs = [hours_after(EPOCH0, h) for h in range(3)]
    holes = {("ST02", epochs[1], MetFactor.HUMIDITY)}
    weather = _weather_grid(registry, factors, epochs, holes)
    td = td_series({e: 50.0 for e in epochs})
    dataset = align_epochs(weather, td, factors, registry)
    assert epochs[1] not in dataset.epochs
    assert dataset.epochs == (epochs[0], epochs[2])


def test_align_epochs_empty_intersection(registry):
    factors = factor_set([MetFactor.TEMPERATURE])
    weather = _weather_grid(registry, factors, [EPOCH0])
    td = td_series({EpochHour.parse("2025-03-01T00:00:00Z"): 1.0})
    with pytest.raises(EmptyIntersectionError):
        align_epochs(weather, td, factors, registry)


def test_align_epochs_matches_naive_reference(registry):
    rng = np.random.default_rng(11)
    factors = factor_set([MetFactor.TEMPERATURE, MetFactor.PRESSURE])
    epochs = [hours_after(EPOCH0, h) for h in range(24)]
    cells = {
        (sid, e, f): float(rng.uniform(*f.bounds))
        for sid in registry.ids for e in epochs for f in factors
        if rng.random() < 0.8
    }
    cells[("ST01", hours_after(EPOCH0, 30), MetFactor.HUMIDITY)] = 50.0  # weather, no TD
    series = weather_from_cells(registry.ids, cells)
    td_epochs = [e for e in epochs + [hours_after(EPOCH0, -1)] if rng.random() < 0.7]
    td = td_series({e: float(rng.normal()) for e in td_epochs})

    expected = sorted(
        e for e in td_epochs
        if all((sid, e, f) in cells for sid in registry.ids for f in factors)
    )
    assert 0 < len(expected) < len(td_epochs)
    dataset = align_epochs(series, td, factors, registry)
    assert dataset.epochs == tuple(expected)
    assert dataset.station_ids == registry.ids
    for t, e in enumerate(expected):
        assert dataset.td[t] == hourly_value(td, e)
        for s, sid in enumerate(registry.ids):
            for i, f in enumerate(factors):
                assert dataset.values[t, s, i] == cells[(sid, e, f)]


# -- DEM ----------------------------------------------------------------------


DEM_TEXT = """ncols 2
nrows 2
xllcorner 127.0
yllcorner 36.0
cellsize 0.5
NODATA_value -9999
10.0 20.0
30.0 40.0
"""


def test_parse_dem_two_by_two(tmp_path):
    path = tmp_path / "dem.asc"
    path.write_text(DEM_TEXT)
    grid = parse_dem(path)
    assert grid.nrows == 2 and grid.ncols == 2
    assert grid.cellsize == 0.5
    assert grid.origin == GeoPoint(36.0, 127.0)
    # first file row is the northernmost
    np.testing.assert_array_equal(grid.values, [[10.0, 20.0], [30.0, 40.0]])


def test_parse_dem_inconsistent_dimensions(tmp_path):
    path = tmp_path / "dem.asc"
    path.write_text(
        "ncols 3\nnrows 1\nxllcorner 127.0\nyllcorner 36.0\ncellsize 0.5\n"
        "NODATA_value -9999\n1.0 2.0\n"
    )
    with pytest.raises(InconsistentDimensionsError):
        parse_dem(path)


def test_parse_dem_bad_header(tmp_path):
    path = tmp_path / "dem.asc"
    path.write_text("ncols 2\nnrows 2\nbogus 1\nyllcorner 36.0\ncellsize 0.5\nNODATA_value -9999\n1 2\n3 4\n")
    with pytest.raises(ParseError):
        parse_dem(path)


def test_dem_roundtrip_with_nodata(tmp_path):
    values = np.array([[10.0, np.nan, 5.5], [1.25, 2.0, 3.0]])
    grid = ElevationGrid(
        origin=GeoPoint(36.0, 127.0), cellsize=0.25, values=values, nodata=-9999.0
    )
    path = tmp_path / "dem.asc"
    write_dem(grid, path)
    again = parse_dem(path)
    assert again == grid
    assert np.isnan(again.values[0, 1])


def test_dem_header_case_insensitive(tmp_path):
    path = tmp_path / "dem.asc"
    path.write_text(DEM_TEXT.replace("ncols", "NCOLS").replace("cellsize", "CELLSIZE"))
    grid = parse_dem(path)
    assert grid.ncols == 2
