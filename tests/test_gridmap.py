import math
import tracemalloc

import numpy as np
import pytest

from elorantd.errors import (
    ConfigError,
    DegeneratePathError,
    NoElevationDataError,
    NoObservationsError,
    OutOfExtentError,
)
from elorantd.gridmap import (
    GridMap,
    GridSpec,
    assign_observations,
    build_path_tensor,
    export_gridmap_csv,
    elevation_profile,
    haversine_km_arrays,
    idw_fill,
    idw_weights,
    path_tensor_from_arrays,
    sample_path,
)
from elorantd.ingest import ElevationGrid, StationRegistry
from elorantd.optim import MAX_ARRAY_CELLS
from elorantd.synth import DEFAULT_RX, DEFAULT_TX
from tests.oracles import idw_combine, weather_from_cells
from elorantd.types import EpochHour, GeoPoint, MetFactor, haversine_km

EPOCH = EpochHour.parse("2024-10-01T00:00:00Z")


def cell_center(spec, row, col):
    return GeoPoint(float(spec.center_lat(row)), float(spec.center_lon(col)))


def small_spec():
    return GridSpec(lat_min=36.0, lat_max=36.1, lon_min=127.0, lon_max=127.1, cellsize=0.01)


def spread_grid(spec, cells, values):
    """Partial GridMap with explicit assigned cells."""
    arr = np.full((spec.nrows, spec.ncols), np.nan)
    mask = np.zeros((spec.nrows, spec.ncols), dtype=bool)
    for (r, c), v in zip(cells, values):
        arr[r, c] = v
        mask[r, c] = True
    return GridMap(spec, MetFactor.TEMPERATURE, EPOCH, arr, mask)


# -- assignment ---------------------------------------------------------------


def test_assign_station_at_cell_center():
    spec = small_spec()
    center = cell_center(spec, 3, 4)
    registry = StationRegistry((("S1", center),))
    weather = weather_from_cells(registry.ids, {("S1", EPOCH, MetFactor.TEMPERATURE): 21.5})
    grid = assign_observations(spec, registry, weather, EPOCH, MetFactor.TEMPERATURE)
    assert grid.assigned_mask[3, 4]
    assert grid.values[3, 4] == 21.5
    assert grid.assigned_mask.sum() == 1


def test_assign_collision_averages():
    spec = small_spec()
    center = cell_center(spec, 2, 2)
    # two stations offset by much less than half a cell share the nearest cell
    a = GeoPoint(center.lat + 0.001, center.lon - 0.001)
    b = GeoPoint(center.lat - 0.001, center.lon + 0.001)
    assert spec.nearest_cell(a) == spec.nearest_cell(b) == (2, 2)
    registry = StationRegistry((("A", a), ("B", b)))
    weather = weather_from_cells(registry.ids, {
        ("A", EPOCH, MetFactor.TEMPERATURE): 10.0,
        ("B", EPOCH, MetFactor.TEMPERATURE): 20.0,
    })
    grid = assign_observations(spec, registry, weather, EPOCH, MetFactor.TEMPERATURE)
    assert grid.values[2, 2] == 15.0
    assert grid.assigned_mask.sum() == 1


def test_assign_no_observations():
    spec = small_spec()
    registry = StationRegistry((("S1", cell_center(spec, 0, 0)),))
    # S1 reports another factor at EPOCH and temperature an hour later
    weather = weather_from_cells(registry.ids, {
        ("S1", EPOCH, MetFactor.HUMIDITY): 50.0,
        ("S1", EpochHour.of(2024, 10, 1, 1), MetFactor.TEMPERATURE): 10.0,
    })
    with pytest.raises(NoObservationsError):
        assign_observations(spec, registry, weather, EPOCH, MetFactor.TEMPERATURE)


def test_assign_matches_reference_nearest_cell():
    spec = small_spec()
    rng = np.random.default_rng(5)
    entries = []
    cells = {}
    for k in range(8):
        loc = GeoPoint(
            float(rng.uniform(spec.lat_min, spec.lat_max)),
            float(rng.uniform(spec.lon_min, spec.lon_max)),
        )
        sid = f"S{k}"
        entries.append((sid, loc))
        cells[(sid, EPOCH, MetFactor.TEMPERATURE)] = float(rng.normal(15.0, 5.0))
    registry = StationRegistry(tuple(entries))
    weather = weather_from_cells(registry.ids, cells)
    grid = assign_observations(spec, registry, weather, EPOCH, MetFactor.TEMPERATURE)

    # reference: nearest cell center by exhaustive haversine scan
    expect: dict[tuple[int, int], list[float]] = {}
    for sid, loc in entries:
        best = None
        for r in range(spec.nrows):
            for c in range(spec.ncols):
                cc = cell_center(spec, r, c)
                d = haversine_km(loc, cc)
                if best is None or d < best[0]:
                    best = (d, (r, c))
        expect.setdefault(best[1], []).append(cells[(sid, EPOCH, MetFactor.TEMPERATURE)])
    for cell, vals in expect.items():
        assert grid.assigned_mask[cell]
        assert grid.values[cell] == pytest.approx(np.mean(vals), rel=1e-12)
    assert grid.assigned_mask.sum() == len(expect)


# -- inverse-distance weighting -----------------------------------------------


def test_idw_combine_hand_example():
    # values 1, 2, 4 at distances 1, 2, 4 km -> 3 / 1.75 = 12/7
    got = idw_combine([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
    assert got == pytest.approx(12.0 / 7.0, rel=1e-12)
    assert got == pytest.approx(1.7142857, abs=5e-8)


def test_idw_combine_zero_distance_exact():
    v = 3.141592653589793
    assert idw_combine([10.0, v], [5.0, 0.0]) == v


def test_idw_combine_permutation_invariant():
    rng = np.random.default_rng(9)
    values = rng.normal(size=12)
    dists = rng.uniform(0.5, 30.0, size=12)
    base = idw_combine(values, dists)
    for _ in range(5):
        perm = rng.permutation(12)
        assert idw_combine(values[perm], dists[perm]) == pytest.approx(base, rel=1e-14)


def test_idw_fill_preserves_assigned_and_symmetry():
    spec = small_spec()
    # two assigned cells in the same row, query midway between them
    grid = spread_grid(spec, [(4, 1), (4, 7)], [10.0, 20.0])
    filled = idw_fill(grid)
    assert filled.values[4, 1] == 10.0
    assert filled.values[4, 7] == 20.0
    assert filled.values[4, 4] == pytest.approx(15.0, rel=1e-12)
    assert np.isfinite(filled.values).all()


def test_idw_fill_within_assigned_range():
    spec = small_spec()
    rng = np.random.default_rng(2)
    cells = [(int(r), int(c)) for r, c in zip(rng.integers(0, spec.nrows, 6), rng.integers(0, spec.ncols, 6))]
    cells = list(dict.fromkeys(cells))
    values = list(rng.normal(10.0, 4.0, size=len(cells)))
    filled = idw_fill(spread_grid(spec, cells, values))
    assert filled.values.min() >= min(values) - 1e-12
    assert filled.values.max() <= max(values) + 1e-12


def test_idw_fill_linear_in_values():
    spec = small_spec()
    cells = [(0, 0), (3, 5), (9, 9)]
    values = [1.0, -2.0, 4.0]
    a = idw_fill(spread_grid(spec, cells, values))
    b = idw_fill(spread_grid(spec, cells, [7.0 * v for v in values]))
    np.testing.assert_allclose(b.values, 7.0 * a.values, rtol=1e-12)


def test_idw_weights_rows_are_normalized_and_hits_exact():
    spec = small_spec()
    rows_a, cols_a = np.array([1, 5, 8]), np.array([1, 2, 8])
    rows_q, cols_q = np.array([0, 5, 4, 9]), np.array([0, 2, 4, 0])
    w = idw_weights(spec, rows_q, cols_q, rows_a, cols_a)
    assert w.shape == (4, 3)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-15)
    # (5, 2) is the second assigned cell: exactly one weight, exactly 1.0
    np.testing.assert_array_equal(w[1], [0.0, 1.0, 0.0])
    for k in (0, 2, 3):
        p = cell_center(spec, rows_q[k], cols_q[k])
        inv = [1.0 / haversine_km(p, cell_center(spec, r, c)) for r, c in zip(rows_a, cols_a)]
        np.testing.assert_allclose(w[k], np.array(inv) / sum(inv), rtol=1e-12)


def test_idw_fill_matches_scalar_oracle():
    """Vectorized fill equals per-cell idw_combine over haversine distances."""
    spec = small_spec()
    cells = [(2, 3), (6, 1), (7, 8)]
    values = [5.0, 11.0, -4.0]
    filled = idw_fill(spread_grid(spec, cells, values))
    for r in range(0, spec.nrows, 3):
        for c in range(0, spec.ncols, 3):
            if (r, c) in cells:
                continue
            p = cell_center(spec, r, c)
            dists = [haversine_km(p, cell_center(spec, *cell)) for cell in cells]
            assert filled.values[r, c] == pytest.approx(
                idw_combine(values, dists), rel=1e-12
            )


# -- path sampling ------------------------------------------------------------


def test_sample_path_two_points():
    path = sample_path(DEFAULT_TX, DEFAULT_RX, l=2)
    assert path == (DEFAULT_TX, DEFAULT_RX)


def test_sample_path_midpoint_equidistant():
    path = sample_path(DEFAULT_TX, DEFAULT_RX, l=3)
    d1 = haversine_km(DEFAULT_TX, path[1])
    d2 = haversine_km(path[1], DEFAULT_RX)
    assert d1 == pytest.approx(d2, rel=1e-6)
    assert d1 + d2 == pytest.approx(haversine_km(DEFAULT_TX, DEFAULT_RX), rel=1e-9)


def test_sample_path_default_pair_spacing():
    path = sample_path(DEFAULT_TX, DEFAULT_RX, l=198)
    assert len(path) == 198
    assert path[0] == DEFAULT_TX and path[-1] == DEFAULT_RX
    total = haversine_km(DEFAULT_TX, DEFAULT_RX)
    assert total == pytest.approx(179.28, abs=0.01)
    spacings = np.array(
        [haversine_km(path[k], path[k + 1]) for k in range(197)]
    )
    assert spacings.mean() == pytest.approx(total / 197, rel=1e-9)
    assert spacings.mean() == pytest.approx(0.910, abs=5e-4)
    # uniform spacing along the great circle
    np.testing.assert_allclose(spacings, spacings.mean(), rtol=1e-6)


def test_sample_path_monotone_distance_from_tx():
    path = sample_path(DEFAULT_TX, DEFAULT_RX, l=50)
    dists = [haversine_km(DEFAULT_TX, p) for p in path]
    assert all(b > a for a, b in zip(dists, dists[1:]))


def test_sample_path_degenerate():
    with pytest.raises(DegeneratePathError):
        sample_path(DEFAULT_TX, DEFAULT_TX, l=10)
    with pytest.raises(DegeneratePathError):
        sample_path(GeoPoint(10.0, 20.0), GeoPoint(-10.0, -160.0), l=10)
    with pytest.raises(ValueError):
        sample_path(DEFAULT_TX, DEFAULT_RX, l=1)


# -- elevation profile --------------------------------------------------------


def unit_dem(values, origin=GeoPoint(36.0, 127.0), cellsize=1.0):
    return ElevationGrid(
        origin=origin, cellsize=cellsize, values=np.asarray(values, dtype=float),
        nodata=-9999.0,
    )


def test_elevation_at_cell_center():
    dem = unit_dem([[10.0, 20.0], [30.0, 40.0]])
    # row 0 is northernmost: its centers sit at lat 37.5
    p = GeoPoint(37.5, 127.5)
    got = elevation_profile(dem, (p,))
    assert got[0] == pytest.approx(10.0, rel=1e-12)


def test_elevation_centered_between_four():
    dem = unit_dem([[100.0, 100.0], [200.0, 200.0]])
    p = GeoPoint(37.0, 128.0)  # equidistant from all four centers
    got = elevation_profile(dem, (p,))
    assert got[0] == pytest.approx(150.0, rel=1e-12)


def test_elevation_bilinear_hand_value():
    # corners: north row 0,0; south row 100,100; offsets fx=0.25, fy=0.75
    dem = unit_dem([[0.0, 0.0], [100.0, 100.0]])
    lon = 127.5 + 0.25  # fx = 0.25 east of the west centers
    lat = 37.5 - 0.75  # fy = 0.75 south of the north centers
    got = elevation_profile(dem, (GeoPoint(lat, lon),))
    expect = (1 - 0.75) * ((1 - 0.25) * 0.0 + 0.25 * 0.0) + 0.75 * (
        (1 - 0.25) * 100.0 + 0.25 * 100.0
    )
    assert got[0] == pytest.approx(expect, rel=1e-12)
    assert expect == 75.0


def test_elevation_nodata_renormalizes():
    dem = unit_dem([[np.nan, 100.0], [100.0, 100.0]])
    p = GeoPoint(37.0, 128.0)
    got = elevation_profile(dem, (p,))
    assert got[0] == pytest.approx(100.0, rel=1e-12)


def test_elevation_all_nodata_is_error():
    dem = unit_dem([[np.nan, np.nan], [np.nan, np.nan]])
    with pytest.raises(NoElevationDataError):
        elevation_profile(dem, (GeoPoint(37.0, 128.0),))


def test_elevation_out_of_extent():
    dem = unit_dem([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(OutOfExtentError):
        elevation_profile(dem, (GeoPoint(10.0, 10.0),))


# -- path feature tensors -----------------------------------------------------


def test_path_tensor_matches_per_point_idw():
    """Fast-path tensor equals per-point evaluation of the filled maps."""
    spec = small_spec()
    rng = np.random.default_rng(14)
    locations = [
        GeoPoint(
            float(rng.uniform(spec.lat_min, spec.lat_max)),
            float(rng.uniform(spec.lon_min, spec.lon_max)),
        )
        for _ in range(3)
    ]
    registry = StationRegistry(tuple((f"S{k}", loc) for k, loc in enumerate(locations)))
    epochs = (EPOCH, EpochHour.parse("2024-10-01T01:00:00Z"))
    factors = (MetFactor.TEMPERATURE, MetFactor.HUMIDITY)
    station_values = rng.normal(15.0, 5.0, size=(2, 3, 2))
    path = sample_path(cell_center(spec, 9, 1), cell_center(spec, 0, 8), l=7)

    tensor = path_tensor_from_arrays(station_values, epochs, factors, locations, spec, path)

    weather = weather_from_cells(registry.ids, {
        (f"S{s}", epoch, f): float(station_values[t, s, i])
        for t, epoch in enumerate(epochs) for s in range(3) for i, f in enumerate(factors)
    })
    for t, epoch in enumerate(epochs):
        for i, f in enumerate(factors):
            filled = idw_fill(assign_observations(spec, registry, weather, epoch, f))
            for j, p in enumerate(path):
                cell = spec.nearest_cell(p)
                assert tensor.values[t, j, i] == pytest.approx(
                    filled.values[cell], rel=1e-12
                ), (t, j, i)


def test_path_tensor_on_assigned_cell_takes_cell_mean_bit_for_bit():
    spec = small_spec()
    # two stations share the TX cell, one sits on the RX cell
    tx, rx = cell_center(spec, 9, 0), cell_center(spec, 0, 9)
    locations = [tx, GeoPoint(tx.lat + 0.001, tx.lon + 0.001), rx]
    station_values = np.random.default_rng(15).normal(15.0, 5.0, size=(3, 3, 2))
    epochs = tuple(EpochHour.parse(f"2024-10-01T0{h}:00:00Z") for h in range(3))
    factors = (MetFactor.TEMPERATURE, MetFactor.HUMIDITY)
    path = sample_path(tx, rx, l=6)
    tensor = path_tensor_from_arrays(station_values, epochs, factors, locations, spec, path)
    np.testing.assert_array_equal(tensor.values[:, 0, :], station_values[:, :2, :].mean(axis=1))
    np.testing.assert_array_equal(tensor.values[:, -1, :], station_values[:, 2, :])


def test_path_tensor_of_constant_stations_is_constant():
    spec = small_spec()
    rng = np.random.default_rng(16)
    locations = [
        GeoPoint(float(rng.uniform(spec.lat_min, spec.lat_max)),
                 float(rng.uniform(spec.lon_min, spec.lon_max)))
        for _ in range(4)
    ]
    station_values = np.full((2, 4, 1), 7.5)
    epochs = (EPOCH, EpochHour.parse("2024-10-01T01:00:00Z"))
    path = sample_path(cell_center(spec, 8, 1), cell_center(spec, 1, 8), l=9)
    tensor = path_tensor_from_arrays(
        station_values, epochs, (MetFactor.TEMPERATURE,), locations, spec, path
    )
    assert tensor.values.shape == (2, 9, 1)
    np.testing.assert_allclose(tensor.values, 7.5, rtol=1e-15)


def test_grid_spec_around_contains_endpoints():
    spec = GridSpec.around(DEFAULT_TX, DEFAULT_RX)
    assert spec.contains(DEFAULT_TX)
    assert spec.contains(DEFAULT_RX)
    assert spec.cellsize == 0.01
    # padding leaves a margin strictly beyond both endpoints
    assert spec.lat_min < min(DEFAULT_TX.lat, DEFAULT_RX.lat)
    assert spec.lon_max > max(DEFAULT_TX.lon, DEFAULT_RX.lon)


def peak_bytes(call) -> int:
    """The Python-heap peak while call runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "padding,cellsize,reason",
    [(0.05, 1e-320, str(MAX_ARRAY_CELLS)), (0.05, 1e-7, str(MAX_ARRAY_CELLS)),
     (1e300, 0.01, str(MAX_ARRAY_CELLS)), (1e308, 0.01, str(MAX_ARRAY_CELLS)),
     (0.05, math.inf, "finite"), (math.nan, 0.01, "finite"),
     (60.0, 0.01, "valid coordinates")],
)
def test_grid_spec_refuses_a_box_it_cannot_raster_before_allocating(padding, cellsize, reason):
    def refuse():
        with pytest.raises(ValueError, match=reason):
            GridSpec.around(DEFAULT_TX, DEFAULT_RX, padding, cellsize)

    assert peak_bytes(refuse) < 1 << 20


def test_grid_map_over_the_cell_bound_is_refused_before_allocating(small_scenario):
    """A 1e-4 degree raster fits the bound, but its IDW weights against the
    five assigned stations would not."""
    spec = GridSpec.around(DEFAULT_TX, DEFAULT_RX, 0.05, 1e-4)
    assert spec.nrows * spec.ncols <= MAX_ARRAY_CELLS < 5 * spec.nrows * spec.ncols

    def refuse():
        with pytest.raises(ConfigError, match=f"IDW weights .* {MAX_ARRAY_CELLS} cells"):
            assign_observations(spec, small_scenario.registry, small_scenario.weather,
                                small_scenario.epochs[0], MetFactor.TEMPERATURE)

    assert peak_bytes(refuse) < 1 << 20


def test_haversine_arrays_match_scalar():
    rng = np.random.default_rng(1)
    lats = rng.uniform(-80, 80, size=6)
    lons = rng.uniform(-180, 180, size=6)
    got = haversine_km_arrays(lats[:3], lons[:3], lats[3:], lons[3:])
    for k in range(3):
        expect = haversine_km(GeoPoint(lats[k], lons[k]), GeoPoint(lats[k + 3], lons[k + 3]))
        assert got[k] == pytest.approx(expect, rel=1e-12)


def test_export_gridmap_csv_order(tmp_path):
    spec = GridSpec(lat_min=36.0, lat_max=36.02, lon_min=127.0, lon_max=127.02, cellsize=0.01)
    grid = idw_fill(spread_grid(spec, [(0, 0)], [5.0]))
    out = tmp_path / "map.csv"
    export_gridmap_csv(grid, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "lat,lon,value"
    assert len(lines) == 1 + spec.nrows * spec.ncols
    lats = [float(line.split(",")[0]) for line in lines[1:]]
    assert lats == sorted(lats, reverse=True)
