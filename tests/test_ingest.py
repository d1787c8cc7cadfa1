import tracemalloc
from datetime import datetime, timedelta, timezone
from functools import partial

import numpy as np
import pytest

from elorantd.errors import DataError, ParseError
from elorantd.ingest import (
    ELEVATION_RANGE_M,
    ElevationGrid,
    HourlyTdSeries,
    UNIX_EPOCH,
    StationRegistry,
    TdSamples,
    WeatherSeries,
    _read_td_fixed,
    _read_td_rows,
    _read_weather_fixed,
    _read_weather_rows,
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
    with pytest.raises(DataError, match="duplicate station id 'A'"):
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
    with pytest.raises(DataError, match="station id 'NOPE' not in registry"):
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
    with pytest.raises(DataError, match="value 11.0 outside .* of cloud_cover_unitless"):
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
    with pytest.raises(DataError, match=f"value {float(cell)!r} outside .* of {column} "):
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


def dense_weather_file(path, n_hours: int, n_stations: int) -> StationRegistry:
    """A weather.csv with every factor at every station and hour."""
    rng = np.random.default_rng(5)
    registry = StationRegistry(
        tuple((f"S{k:02d}", GeoPoint(36.0 + 0.1 * k, 127.0)) for k in range(n_stations))
    )
    shape = (n_hours, n_stations, len(ALL_FACTORS))
    lo, hi = np.array([f.bounds for f in ALL_FACTORS]).T
    values = lo + rng.random(shape) * (hi - lo)
    integer = [f.integer_valued for f in ALL_FACTORS]
    values[:, :, integer] = np.round(values[:, :, integer])
    hours = np.arange(480_000, 480_000 + n_hours)
    write_weather_csv(WeatherSeries(hours, registry.ids, values, np.ones(shape, bool)), path)
    return registry


# the Python-heap peak of parse_weather_csv on dense_weather_file(300, 10)
# when each row was kept as a dict entry of two lists
ROW_DICT_PEAK_BYTES = 3_567_771


def test_weather_parse_heap_peak_is_under_half_the_row_dict_parse(tmp_path):
    """3,000 rows of 11 factors: flat typed columns, not a dict of per-row lists."""
    path = tmp_path / "weather.csv"
    registry = dense_weather_file(path, 300, 10)
    tracemalloc.start()
    try:
        series = parse_weather_csv(path, registry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.present.all() and series.values.shape == (300, 10, len(ALL_FACTORS))
    assert peak <= ROW_DICT_PEAK_BYTES // 2, peak


def test_bulk_weather_parse_heap_peak_is_no_higher_than_the_row_loop(tmp_path):
    path = tmp_path / "weather.csv"
    registry = dense_weather_file(path, 300, 10)
    assert _read_weather_fixed(path, registry) is not None  # the bulk path reads it
    peaks = {}
    for read in (parse_weather_csv, _read_weather_rows):
        tracemalloc.start()
        try:
            read(path, registry)
            peaks[read.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["parse_weather_csv"] <= peaks["_read_weather_rows"], peaks


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
    with pytest.raises(DataError, match="value 1000000.0 outside validity range of humidity_pct"):
        WeatherSeries(np.array([0]), registry.ids, values, present)


# -- TD -----------------------------------------------------------------------


TD_ROW0 = "2024-10-01T00:00:00Z,100.0"


@pytest.mark.parametrize(
    "text,line",
    [
        ("time,td_ns\n" + TD_ROW0 + "\n", 1),  # bad header
        ("timestamp,td_ns,extra\n" + TD_ROW0 + "\n", 1),
        ("", 1),  # no header at all
        (f"timestamp,td_ns\n{TD_ROW0}\n2024-10-01T00:00:01Z,1.0,2.0\n", 3),  # field count
        (f"timestamp,td_ns\n{TD_ROW0}\n2024-10-01T00:00:01Z\n", 3),
        (f"timestamp,td_ns\n{TD_ROW0}\n   \n", 3),  # whitespace-only line: one field
        (f"timestamp,td_ns\n{TD_ROW0}\n2024-13-01T00:00:01Z,1.0\n", 3),  # bad timestamp
        (f"timestamp,td_ns\n{TD_ROW0}\n2024-10-01 00:00:01Q,1.0\n", 3),
        (f"timestamp,td_ns\n{TD_ROW0}\n2024-02-30T00:00:00Z,1.0\n", 3),
        (f"timestamp,td_ns\n{TD_ROW0}\n2024-10-01T00:00:01,1.0\n", 3),  # naive
        (f"timestamp,td_ns\n{TD_ROW0}\n2024-10-01T09:00:01+09:00,1.0\n", 3),  # not UTC
        (f"timestamp,td_ns\n{TD_ROW0}\n2024-10-01T00:00:01Z,1.0ns\n", 3),  # bad float
        (f"timestamp,td_ns\n{TD_ROW0}\n2024-10-01T00:00:01Z,\n", 3),
        (f"timestamp,td_ns\n{TD_ROW0}\n2024-10-01T00:00:00Z,1.0\n", 3),  # repeated time
        (f"timestamp,td_ns\n{TD_ROW0}\n2024-09-30T23:59:59Z,1.0\n", 3),  # earlier time
        (f"timestamp,td_ns\n{TD_ROW0}\n\n\n2024-10-01T00:00:00Z,1.0\n", 5),  # blank lines count
        (f"timestamp,td_ns\r\n{TD_ROW0}\r\n\r\n2024-10-01T00:00:01Z,x\r\n", 4),
    ],
)
def test_parse_td_faults_report_their_line(tmp_path, text, line):
    path = tmp_path / "td.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError) as info:
        parse_td_csv(path)
    assert info.value.line == line


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e9", "-1e9", "1.5e300"])
def test_parse_td_rejects_non_finite_and_out_of_bound_values(tmp_path, cell):
    path = tmp_path / "td.csv"
    path.write_text(f"timestamp,td_ns\n{TD_ROW0}\n2024-10-01T00:00:01Z,{cell}\n")
    with pytest.raises(ParseError) as info:
        parse_td_csv(path)
    assert info.value.line == 3
    assert f"value {float(cell)!r} outside validity range of td_ns" in str(info.value)


def outcome(read, path):
    """What a reader returns, or the type, line and text of its error."""
    try:
        return read(path)
    except DataError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def assert_readers_agree(path, registry: StationRegistry | None = None) -> bool:
    """The bulk reader accepts only what the row loop reads to the same
    result, and the parser gives the row loop's result or error: for the
    TD log, or for a weather file when a registry is given.  Returns
    whether the bulk reader accepted the file."""
    if registry is None:
        bulk, row_loop, parse = _read_td_fixed, _read_td_rows, parse_td_csv
    else:
        bulk, row_loop, parse = (partial(read, registry=registry) for read in
                                 (_read_weather_fixed, _read_weather_rows, parse_weather_csv))
    fixed = bulk(path)
    rows = outcome(row_loop, path)
    if fixed is not None:
        assert fixed == rows
        if registry is not None:  # the present values bit for bit
            assert fixed.values[fixed.present].tobytes() == rows.values[rows.present].tobytes()
    assert outcome(parse, path) == rows
    return fixed is not None


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize(
    "row,bulk",
    [
        ("2024-10-01T00:00:05Z,1.5", True),
        ("2024-10-01T00:00:05Z, 1.5 ", True),
        ("2024-10-01T00:00:05Z,+1.5e-3", True),
        ("2024-10-01T00:00:05Zjunk,1.5", False),  # a valid stamp, then junk after byte 20
        ("2024-10-01T00:00:05Z\0,1.5", False),
        ('"2024-10-01T00:00:05Z",1.5', False),  # quoted stamp
        ("2024-10-01T00:00:05Z,1.5#note", False),  # '#' in a value
        ("   ", False),  # whitespace-only line
        ("2024-10-01T00:00:05z,1.5", False),  # lowercase z
        ("2024-10-01T00:00:05.5Z,1.5", False),  # fractional seconds
        ("2024-10-01T00:00:05+00:00,1.5", False),
        ("2024-10-01T00:00:05Z,1_000", False),  # Python's float accepts underscores
        ("2024-10-01T00:00:05Z,inf", False),
        ("2024-10-01T00:00:03Z,1.5", False),  # not increasing
        ("2024-10-01 00:00:05Z,1.5", False),
        ("2024-10-01T24:00:05Z,1.5", False),
        ("2024-02-30T00:00:05Z,1.5", False),
        ("0000-10-01T00:00:05Z,1.5", False),
    ],
)
def test_bulk_td_reader_agrees_with_the_row_loop(tmp_path, row, bulk, newline):
    rows = [f"2024-10-01T00:00:0{k}Z,{k}.25" for k in range(5)]
    rows += [row, "", "2024-10-01T00:00:07Z,7.0"]
    path = tmp_path / "td.csv"
    path.write_bytes(newline.join(["timestamp,td_ns", *rows, ""]).encode())
    assert assert_readers_agree(path) == bulk


def test_bulk_td_reader_leaves_year_zero_to_the_row_loop(tmp_path):
    # numpy's datetime64 has a year 0; Python's datetime does not
    path = tmp_path / "td.csv"
    path.write_text("timestamp,td_ns\n0000-12-31T23:59:59Z,1.0\n0001-01-01T00:00:00Z,2.0\n")
    assert not assert_readers_agree(path)
    with pytest.raises(ParseError) as info:
        parse_td_csv(path)
    assert info.value.line == 2


@pytest.mark.parametrize("stamp", ["2024-02-30T25:00:00Z", "2023-02-29T00:00:00Z",
                                   "2024-10-01T00:00:60Z"])
def test_bulk_td_reader_refuses_an_invalid_date_among_many_rows(tmp_path, stamp):
    """numpy 2.4's string-to-datetime64 cast crashed the process (SIGSEGV)
    on an invalid date among 1,000 or more stamps; the reader no longer casts."""
    base = utc(2024, 10, 1)
    lines = [f"{(base + timedelta(seconds=k)).strftime('%Y-%m-%dT%H:%M:%SZ')},1.5"
             for k in range(4000)]
    lines[2500] = f"{stamp},1.5"
    path = tmp_path / "td.csv"
    path.write_text("\n".join(["timestamp,td_ns", *lines, ""]))
    assert not assert_readers_agree(path)
    with pytest.raises(ParseError) as info:
        parse_td_csv(path)
    assert info.value.line == 2502


TD_MUTATIONS = (
    lambda line: line[:20] + "x" + line[20:],
    lambda line: line[:20] + "\0" + line[20:],
    lambda line: '"' + line[:20] + '"' + line[20:],
    lambda line: line + "#c",
    lambda line: "   ",
    lambda line: line.replace("Z", "z"),
    lambda line: line.replace("Z", ".5Z"),
    lambda line: line.replace("Z", "+00:00"),
    lambda line: line.replace("Z", "+09:00"),
    lambda line: line[:22] + "_" + line[22:],
    lambda line: line.replace(",", ", ") + " ",
    lambda line: line + "\n",
    lambda line: line.replace(",", ""),
    lambda line: line + ",1",
    lambda line: line[:20] + ",nan",
    lambda line: line[:20] + ",1e9",
    lambda line: line[:5] + "13" + line[7:],
    lambda line: line[:11] + "2" + line[12:],
    lambda line: line[:17] + "00" + line[19:],
)


def test_bulk_td_reader_agrees_with_the_row_loop_on_seeded_mutations(tmp_path):
    rng = np.random.default_rng(20)
    base = utc(2024, 10, 1, 5)
    clean = [f"{(base + timedelta(seconds=k)).strftime('%Y-%m-%dT%H:%M:%SZ')},{v!r}"
             for k, v in enumerate(rng.normal(0.0, 3000.0, size=40).tolist())]
    path = tmp_path / "td.csv"
    accepted = 0
    for case in range(150):
        lines = list(clean)
        for _ in range(rng.integers(0, 3)):
            k = int(rng.integers(len(lines)))
            lines[k] = TD_MUTATIONS[int(rng.integers(len(TD_MUTATIONS)))](lines[k])
        newline = "\r\n" if case % 3 == 0 else "\n"
        path.write_bytes(newline.join(["timestamp,td_ns", *lines, ""]).encode())
        accepted += assert_readers_agree(path)
    assert 20 <= accepted <= 130  # both readers were exercised


# -- the bulk weather reader against the row loop ---------------------------

WEATHER_HEADER = "station_id,timestamp,cloud_cover_unitless,temperature_c,humidity_pct"


def weather_rows(hours: int, stations=("ST01", "ST02")) -> list[str]:
    """Rows in the writer's shape, station by station, from EPOCH0 on."""
    return [f"{sid},{hours_after(EPOCH0, h).isoformat()},{(h + k) % 11}.0,{h % 40 - 9.5!r},"
            f"{40.0 + 0.25 * (h % 200)!r}" for k, sid in enumerate(stations) for h in range(hours)]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize(
    "row,bulk",
    [
        ("ST01,2024-10-01T05:00:00Z,3.0,12.5,55.0", True),
        ("ST01,2024-10-01T05:00:00Z,3, -1.5 ,55", True),  # spaces around a cell
        ("ST01,2024-10-01T05:00:00Z,3.0,12.5, +1.5e-3 ", True),
        ("ST01,2024-10-01T05:00:00Z,3.0,,55.0", False),  # a blank cell
        ("ST01,2024-10-01T05:00:00Z,,,", False),
        (" ST01,2024-10-01T05:00:00Z,3.0,12.5,55.0", False),  # spaces around an id
        ("ST01 ,2024-10-01T05:00:00Z,3.0,12.5,55.0", False),
        ('"ST01",2024-10-01T05:00:00Z,3.0,12.5,55.0', False),  # quoted fields
        ('ST01,"2024-10-01T05:00:00Z",3.0,12.5,55.0', False),
        ('ST01,2024-10-01T05:00:00Z,3.0,"12.5",55.0', False),
        ("NOPE,2024-10-01T05:00:00Z,3.0,12.5,55.0", False),  # an unknown id
        ("ST011,2024-10-01T05:00:00Z,3.0,12.5,55.0", False),  # one character longer
        ("S3X,2024-10-01T05:00:00Z,3.0,12.5,55.0", False),
        ("ST0\u00e9,2024-10-01T05:00:00Z,3.0,12.5,55.0", False),  # non-ASCII ids
        ("ST\u20ac1,2024-10-01T05:00:00Z,3.0,12.5,55.0", False),
        ("ST01\0,2024-10-01T05:00:00Z,3.0,12.5,55.0", False),  # a NUL byte
        ("ST01,2024-10-01T05:00:00Z,3.0,12.5,55.0\0", False),
        ("ST02,2024-10-01T01:00:00Z,3.0,12.5,55.0", False),  # a repeated (station, hour)
        ("ST01,2024-10-01T05:30:00Z,3.0,12.5,55.0", False),  # not a whole hour
        ("ST01,2024-10-01T05:00:00+00:00,3.0,12.5,55.0", False),
        ("ST01,2024-10-01T05:00:00z,3.0,12.5,55.0", False),  # lowercase z
        ("ST01,2024-10-01T05:00:00Z,1_0,12.5,55.0", False),  # Python's float reads 1_0
        ("ST01,2024-10-01T05:00:00Z,3.0,nan,55.0", False),
        ("ST01,2024-10-01T05:00:00Z,3.0,inf,55.0", False),
        ("ST01,2024-10-01T05:00:00Z,3.0,99.0,55.0", False),  # out of range
        ("ST01,2024-10-01T05:00:00Z,3.5,12.5,55.0", False),  # not integer-valued
        ("ST01,2024-10-01T05:00:00Z,3.0,12.5", False),  # field count
        ("ST01,2024-10-01T05:00:00Z,3.0,12.5,55.0,1", False),
        ("   ", False),  # a whitespace-only line
        ("ST01,2024-02-30T05:00:00Z,3.0,12.5,55.0", False),
    ],
)
def test_bulk_weather_reader_agrees_with_the_row_loop(tmp_path, row, bulk, newline):
    registry = StationRegistry(tuple((sid, GeoPoint(36.0, 127.0 + k)) for k, sid in
                                     enumerate(("ST01", "ST02", "S3"))))
    path = tmp_path / "weather.csv"
    lines = [WEATHER_HEADER, *weather_rows(4), row, "", "S3,2024-10-01T06:00:00Z,0,0,0"]
    path.write_bytes(newline.join([*lines, ""]).encode())
    assert assert_readers_agree(path, registry) == bulk


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_bulk_weather_reader_skips_blank_lines_and_needs_no_final_newline(
    tmp_path, registry, newline
):
    path = tmp_path / "weather.csv"
    rows = weather_rows(3)
    path.write_bytes(newline.join([WEATHER_HEADER, "", *rows[:2], "", "", *rows[2:]]).encode())
    assert assert_readers_agree(path, registry)
    assert parse_weather_csv(path, registry).present.sum() == 3 * len(rows)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_bulk_weather_reader_leaves_an_out_of_range_value_to_the_row_loop(
    tmp_path, registry, newline
):
    rows = weather_rows(6)
    rows[8] = rows[8].rsplit(",", 1)[0] + ",100.5"
    path = tmp_path / "weather.csv"
    path.write_bytes(newline.join([WEATHER_HEADER, *rows, ""]).encode())
    assert not assert_readers_agree(path, registry)
    with pytest.raises(DataError) as info:
        parse_weather_csv(path, registry)
    assert type(info.value) is DataError
    assert str(info.value) == ("value 100.5 outside validity range of humidity_pct "
                               "(outside [0.0, 100.0])")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_bulk_weather_reader_refuses_an_invalid_date_among_many_rows(
    tmp_path, registry, newline
):
    rows = weather_rows(700)
    assert len(rows) > 1000
    rows[900] = rows[900][:5] + "2024-02-30" + rows[900][15:]
    path = tmp_path / "weather.csv"
    path.write_bytes(newline.join([WEATHER_HEADER, *rows, ""]).encode())
    assert not assert_readers_agree(path, registry)
    with pytest.raises(ParseError) as info:
        parse_weather_csv(path, registry)
    assert info.value.line == 902


@pytest.mark.parametrize(
    "header",
    [WEATHER_HEADER.replace("temperature_c", "temperature_c "),
     WEATHER_HEADER.replace("humidity_pct", '"humidity_pct"'),
     WEATHER_HEADER + ",temperature_c", WEATHER_HEADER + ",wind", "station_id,timestamp"],
)
def test_bulk_weather_reader_leaves_odd_headers_to_the_row_loop(tmp_path, registry, header):
    path = tmp_path / "weather.csv"
    path.write_text("\n".join([header, *weather_rows(2), ""]))
    assert not assert_readers_agree(path, registry)
    if '"' in header:  # a quoted column is valid CSV, read by the row loop
        assert parse_weather_csv(path, registry).present.sum() == 3 * 4


def test_bulk_readers_leave_rows_split_by_a_lone_carriage_return_to_the_row_loop(
    tmp_path, registry
):
    """Universal newlines end a line at a lone \r: such a file holds more
    rows than newlines, more than the bulk readers allocate for."""
    td = tmp_path / "td.csv"
    td.write_bytes(("timestamp,td_ns\n" + "\r".join(
        f"2024-10-01T00:00:0{k}Z,{k}.5" for k in range(6)) + "\n").encode())
    assert not assert_readers_agree(td)
    assert len(parse_td_csv(td)) == 6
    weather = tmp_path / "weather.csv"
    weather.write_bytes((WEATHER_HEADER + "\n" + "\r".join(weather_rows(3)) + "\n").encode())
    assert not assert_readers_agree(weather, registry)
    assert parse_weather_csv(weather, registry).present.sum() == 3 * 6


WEATHER_MUTATIONS = (
    lambda line: " " + line,
    lambda line: line.replace("ST01", "ST011").replace("ST02", "ST021"),
    lambda line: line.replace("ST0", "ST\u00e9"),
    lambda line: '"' + line.replace(",", '",', 1),
    lambda line: line.replace("Z", "z"),
    lambda line: line.replace("Z", "+00:00"),
    lambda line: line.replace(":00:00Z", ":30:00Z"),
    lambda line: line[:16] + "1" + line[17:],  # hour 1x: may repeat a (station, hour)
    lambda line: line.replace("ST01", "ST02") if "ST01" in line else line.replace("ST02", "ST01"),
    lambda line: line[:5] + "\0" + line[5:],
    lambda line: line[:-2] + "_" + line[-2:],
    lambda line: line.rsplit(",", 1)[0] + ",",
    lambda line: line.rsplit(",", 1)[0] + ",nan",
    lambda line: line.rsplit(",", 1)[0] + ",-1e9",
    lambda line: line.rsplit(",", 1)[0] + ", +1.5e-3 ",
    lambda line: line.replace(",", ", "),
    lambda line: line + ",1",
    lambda line: line + "\n",
    lambda line: "   ",
    lambda line: line.replace(",", "\r", 1),
    lambda line: line[:10] + "13" + line[12:],  # month 13
    lambda line: line[:10] + "02-30" + line[15:],
)


def test_bulk_weather_reader_agrees_with_the_row_loop_on_seeded_mutations(tmp_path, registry):
    rng = np.random.default_rng(23)
    clean = weather_rows(20)
    path = tmp_path / "weather.csv"
    accepted = 0
    for case in range(150):
        lines = list(clean)
        for _ in range(rng.integers(0, 3)):
            k = int(rng.integers(len(lines)))
            lines[k] = WEATHER_MUTATIONS[int(rng.integers(len(WEATHER_MUTATIONS)))](lines[k])
        newline = "\r\n" if case % 3 == 0 else "\n"
        path.write_bytes(newline.join([WEATHER_HEADER, *lines, ""]).encode())
        accepted += assert_readers_agree(path, registry)
    assert 20 <= accepted <= 130  # both readers were exercised


# -- every row fault of the three row readers names its line -----------------

STATIONS_OK = "station_id,lat,lon\nST01,36,127\n"
WEATHER_OK = "station_id,timestamp,temperature_c\nST01,2024-10-01T00:00:00Z,1.0\n"
TD_OK = f"timestamp,td_ns\n{TD_ROW0}\n"


@pytest.mark.parametrize(
    "name,data,line,message",
    [
        ("stations.csv", "id,lat,lon\nST01,36,127\n", 1, "expected header station_id,lat,lon"),
        ("stations.csv", STATIONS_OK + "ST02,36\n", 3, "expected 3 fields, got 2"),
        ("stations.csv", STATIONS_OK + " ,36,127\n", 3, "empty station id"),
        ("stations.csv", STATIONS_OK + "\nST01,36.5,127.5\n", 4, "duplicate station id 'ST01'"),
        ("stations.csv", STATIONS_OK + "ST02,north,127\n", 3, "could not convert"),
        ("stations.csv", STATIONS_OK.encode() + b"ST\xff,36,127\n", 3, "byte 0xff is not UTF-8"),
        ("stations.csv", 'station_id,lat,lon\n"A\nB",36,127\nC,36,north\n', 4,
         "could not convert"),  # a row starts after a quoted newline
        # a lone \r ends a line for the row reader and the UTF-8 check alike
        ("stations.csv", "station_id,lat,lon\rST01,36,127\rST02,36,north\r", 3,
         "could not convert"),
        ("stations.csv", b"station_id,lat,lon\rST01,36,127\rST02,36,\xff\r", 3,
         "byte 0xff is not UTF-8"),
        ("stations.csv", b"station_id,lat,lon\r\nST01,36,127\r\nST02,36,\xff\r\n", 3,
         "byte 0xff is not UTF-8"),
        ("weather.csv", "station_id,time,temperature_c\n", 1, "expected header starting"),
        ("weather.csv", "station_id,timestamp,wind\n", 1, "unknown meteorological factor"),
        ("weather.csv", WEATHER_OK + "ST02,2024-10-01T00:00:00Z\n", 3, "expected 3 fields, got 2"),
        ("weather.csv", WEATHER_OK + "\nNOPE,2024-10-01T00:00:00Z,1.0\n", 4,
         "station id 'NOPE' not in registry"),
        ("weather.csv", WEATHER_OK + "ST02,2024-10-01T00:30:00Z,1.0\n", 3, ""),
        ("weather.csv", WEATHER_OK + "ST02,2024-10-01T00:00:00Z,warm\n", 3, "bad number 'warm'"),
        ("weather.csv", WEATHER_OK + "ST01,2024-10-01T00:00:00Z,2.0\n", 3,
         "second row for ST01 at 2024-10-01T00:00:00Z"),
        ("weather.csv", WEATHER_OK.encode() + b"ST02,2024-10-01T00:00:00Z,\xfe\n", 3,
         "byte 0xfe is not UTF-8"),
        ("td.csv", "time,td_ns\n" + TD_ROW0 + "\n", 1, "expected header timestamp,td_ns"),
        ("td.csv", TD_OK + "2024-10-01T00:00:01Z\n", 3, "expected 2 fields, got 1"),
        ("td.csv", TD_OK + "2024-13-01T00:00:01Z,1.0\n", 3, ""),
        ("td.csv", TD_OK + "2024-10-01T00:00:01Z,1.0ns\n", 3, "could not convert"),
        ("td.csv", TD_OK + "\n2024-10-01T00:00:00Z,1.0\n", 4,
         "timestamps must be strictly increasing"),
        ("td.csv", TD_OK.encode() + b"\xc3(,1.0\n", 3, "byte 0xc3 is not UTF-8"),
    ],
)
def test_row_faults_name_their_file_and_line(tmp_path, registry, name, data, line, message):
    path = tmp_path / name
    path.write_bytes(data.encode() if isinstance(data, str) else data)
    parse = {"stations.csv": parse_station_registry, "td.csv": parse_td_csv,
             "weather.csv": partial(parse_weather_csv, registry=registry)}[name]
    with pytest.raises(ParseError) as info:
        parse(path)
    assert info.value.line == line
    assert str(info.value).startswith(f"{path}:{line}: {message}")


def test_td_roundtrip(tmp_path):
    samples = [
        (utc(2024, 10, 1, 0, 0, 0), 100.25),
        (utc(2024, 10, 1, 0, 0, 1), 101.5),
        (utc(2024, 10, 1, 0, 0, 2), 99.0),
    ]
    path = tmp_path / "td.csv"
    write_td_csv(samples, path)
    assert path.read_bytes() == (
        b"timestamp,td_ns\r\n2024-10-01T00:00:00Z,100.25\r\n"
        b"2024-10-01T00:00:01Z,101.5\r\n2024-10-01T00:00:02Z,99.0\r\n"
    )
    assert parse_td_csv(path) == TdSamples.from_pairs(samples)
    assert list(parse_td_csv(path)) == samples


def test_td_roundtrip_keeps_sub_second_times(tmp_path):
    samples = TdSamples.from_pairs([
        (utc(2024, 10, 1, 0, 0, 0), 1.0),
        (utc(2024, 10, 1, 0, 0, 0, 250000), 2.0),
        (utc(2024, 10, 1, 0, 0, 0, 250001), 3.0),
        (utc(2024, 10, 1, 0, 0, 1), 4.0),
        (utc(1969, 12, 31, 23, 59, 59, 999999) + timedelta(days=20000), 5.0),
    ])
    path = tmp_path / "td.csv"
    write_td_csv(samples, path)
    lines = path.read_text().splitlines()
    assert lines[1:5] == [
        "2024-10-01T00:00:00Z,1.0",
        "2024-10-01T00:00:00.250000Z,2.0",
        "2024-10-01T00:00:00.250001Z,3.0",
        "2024-10-01T00:00:01Z,4.0",
    ]
    assert parse_td_csv(path) == samples


def test_td_samples_view_gives_aware_utc_pairs():
    pairs = [(utc(2024, 10, 1, 5, 0, 0), -2848.5), (utc(2024, 10, 1, 5, 59, 59, 999999), 7.0)]
    samples = TdSamples.from_pairs(pairs)
    assert len(samples) == 2
    assert samples.micros.dtype == np.int64 and samples.values.dtype == np.float64
    assert samples[0] == pairs[0] and samples[-1] == pairs[-1]
    assert list(samples) == pairs
    assert all(type(v) is float and t.tzinfo is timezone.utc for t, v in samples)
    assert samples != pairs
    assert samples != TdSamples.from_pairs(pairs[:1])


def test_td_samples_reject_broken_columns():
    micros, values = np.array([0, 1_000_000], dtype=np.int64), np.array([1.0, 2.0])
    TdSamples(micros, values)
    with pytest.raises(ValueError):
        TdSamples(micros[::-1].copy(), values)
    with pytest.raises(ValueError):
        TdSamples(np.zeros(2, dtype=np.int64), values)
    with pytest.raises(ValueError):
        TdSamples(micros, values[:1])
    for bad in (np.nan, np.inf, 1e9, -1e9):
        with pytest.raises(DataError, match=f"{bad!r}\\)? outside validity range of td_ns"):
            TdSamples(micros, np.array([1.0, bad]))


def test_aggregate_hourly_constant_hour():
    base = utc(2024, 10, 1, 5)
    samples = TdSamples.from_pairs([(base + timedelta(seconds=s), 100.0) for s in range(3600)])
    hourly = aggregate_hourly(samples, min_samples=1800)
    epoch = EpochHour(base)
    assert hourly_value(hourly, epoch) == 100.0
    assert hourly.counts[hourly.epochs.index(epoch)] == 3600


def test_aggregate_hourly_arithmetic_series():
    # one sample per second valued 0..3599 -> mean (0 + 3599) / 2 = 1799.5
    base = utc(2024, 10, 1, 5)
    samples = TdSamples.from_pairs([(base + timedelta(seconds=s), float(s)) for s in range(3600)])
    hourly = aggregate_hourly(samples, min_samples=1800)
    assert hourly_value(hourly, EpochHour(base)) == pytest.approx(1799.5, abs=1e-12)


def test_aggregate_hourly_drops_thin_hours():
    base = utc(2024, 10, 1, 5)
    samples = TdSamples.from_pairs([(base + timedelta(seconds=s), 10.0) for s in range(10)])
    hourly = aggregate_hourly(samples, min_samples=1800)
    assert len(hourly) == 0
    assert hourly_value(hourly, EpochHour(base)) is None


def test_aggregate_hourly_of_no_samples_is_empty():
    hourly = aggregate_hourly(TdSamples.from_pairs([]), min_samples=1)
    assert hourly.epochs == () and hourly.values.size == 0 and hourly.counts.size == 0


def test_aggregate_hourly_order_invariant():
    rng = np.random.default_rng(3)
    base = utc(2024, 10, 1, 5)
    micros = (base - UNIX_EPOCH) // timedelta(microseconds=1) + 1_000_000 * np.arange(5000)
    values = rng.normal(100.0, 20.0, size=micros.size)
    shuffled = np.r_[rng.permutation(values[:3600]), rng.permutation(values[3600:])]
    a = aggregate_hourly(TdSamples(micros, values), min_samples=1)
    b = aggregate_hourly(TdSamples(micros, shuffled), min_samples=1)
    assert a.epochs == b.epochs
    np.testing.assert_array_equal(a.values, b.values)


def test_aggregate_hourly_matches_per_hour_python_means():
    """Hours before the epoch, gaps, and uneven counts: each mean is the
    sorted sum of its own hour's values, and counts are exact."""
    rng = np.random.default_rng(5)
    seconds = np.sort(rng.choice(np.arange(-7200, 14400), size=3000, replace=False))
    values = rng.normal(0.0, 50.0, size=seconds.size)
    hourly = aggregate_hourly(TdSamples(seconds * 1_000_000, values), min_samples=300)
    buckets = {}
    for s, v in zip(seconds.tolist(), values.tolist()):
        buckets.setdefault(s // 3600, []).append(v)
    kept = sorted(h for h, vs in buckets.items() if len(vs) >= 300)
    assert [e.hours_since_epoch for e in hourly.epochs] == kept
    assert hourly.counts.tolist() == [len(buckets[h]) for h in kept]
    assert hourly.values.tolist() == [float(np.sort(buckets[h]).sum() / len(buckets[h]))
                                      for h in kept]


def test_aggregate_hourly_last_microsecond_stays_in_its_hour():
    late = [(utc(2024, 10, 1, h, 59, 59, 999999), 10.0 * h) for h in (5, 6)]
    samples = TdSamples.from_pairs([(utc(2024, 10, 1, 5, 0, 0), 0.0), *late])
    hourly = aggregate_hourly(samples, min_samples=1)
    assert hourly.epochs == (EpochHour.of(2024, 10, 1, 5), EpochHour.of(2024, 10, 1, 6))
    np.testing.assert_array_equal(hourly.values, [25.0, 60.0])
    np.testing.assert_array_equal(hourly.counts, [2, 1])


@pytest.mark.parametrize(
    "when",
    [datetime(2024, 10, 1, 5), datetime(2024, 10, 1, 5, tzinfo=timezone(timedelta(hours=9)))],
)
def test_td_samples_from_pairs_rejects_naive_and_non_utc_times(when):
    samples = [(utc(2024, 10, 1, 4), 1.0), (when, 2.0)]
    with pytest.raises(ValueError):
        TdSamples.from_pairs(samples)


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
    with pytest.raises(DataError, match="no epoch has TD plus every requested factor"):
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
    with pytest.raises(DataError, match="declared .* found"):
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


@pytest.mark.parametrize(
    "key,value,line",
    [
        ("ncols", "nan", 1),
        ("ncols", "2.5", 1),
        ("ncols", "0", 1),
        ("nrows", "inf", 2),
        ("nrows", "-1", 2),
        ("xllcorner", "inf", 3),
        ("xllcorner", "180.5", 3),
        ("yllcorner", "-1e308", 4),
        ("yllcorner", "nan", 4),
        ("cellsize", "-1e308", 5),
        ("cellsize", "0", 5),
        ("cellsize", "inf", 5),
    ],
)
def test_parse_dem_rejects_bad_header_values_at_their_line(tmp_path, key, value, line):
    lines = DEM_TEXT.splitlines()
    lines[line - 1] = f"{key} {value}"
    path = tmp_path / "dem.asc"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        parse_dem(path)
    assert info.value.line == line
    assert key in str(info.value)


def test_parse_dem_reports_a_bad_header_value_at_the_line_that_holds_it(tmp_path):
    lines = DEM_TEXT.splitlines()
    lines[0], lines[4] = lines[4], "ncols 2.5"  # keys may come in any order
    path = tmp_path / "dem.asc"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        parse_dem(path)
    assert info.value.line == 5


@pytest.mark.parametrize("value", ["-500.5", "9000.5", "1e308", "-1e308"])
def test_parse_dem_reports_an_implausible_elevation_at_its_line(tmp_path, value):
    lines = DEM_TEXT.splitlines()
    lines[7] = f"{value} 40.0"
    path = tmp_path / "dem.asc"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"outside -500\.\.9000 m") as info:
        parse_dem(path)
    assert info.value.line == 8


def test_elevation_range_bounds_are_plausible_and_the_grid_refuses_beyond(tmp_path):
    low, high = ELEVATION_RANGE_M
    path = tmp_path / "dem.asc"
    path.write_text(DEM_TEXT.replace("30.0 40.0", f"{low!r} {high!r}"))
    assert parse_dem(path).values[1].tolist() == [low, high]
    with pytest.raises(ValueError, match="9000.5 m is outside"):
        ElevationGrid(origin=GeoPoint(36.0, 127.0), cellsize=0.5,
                      values=np.array([[np.nan, 9000.5]]))


@pytest.mark.parametrize("value", ["inf", "-inf", "1e999"])
def test_parse_dem_reports_a_non_finite_elevation_at_its_line(tmp_path, value):
    lines = DEM_TEXT.splitlines()
    lines.insert(6, "")  # a blank line between header and rows is skipped
    lines[8] = f"30.0 {value}"
    path = tmp_path / "dem.asc"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="non-finite elevation") as info:
        parse_dem(path)
    assert info.value.line == 9
