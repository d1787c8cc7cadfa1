"""Meteorological grid maps, path sampling, and path-aligned features.

Grid maps are built in two steps: station values are assigned to their
nearest cell centers, then every unassigned cell is filled by
inverse-distance weighting over all assigned cells (weights exactly
1/distance, distances great-circle km between cell centers).  Assigned
cells keep their values bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .ingest import AlignedDataset, ElevationGrid, StationRegistry, WeatherSeries, write_csv
from .optim import require_cells
from .types import (
    ALL_FACTORS,
    EARTH_RADIUS_KM,
    EpochHour,
    FactorSet,
    GeoPoint,
    MetFactor,
)

PathPoints = tuple[GeoPoint, ...]

DEFAULT_CELLSIZE_DEG = 0.01
DEFAULT_BOX_PADDING_DEG = 0.05
DEFAULT_PATH_POINTS = 198


def haversine_km_arrays(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Vectorized great-circle distance, same formula as haversine_km."""
    la1, lo1 = np.radians(lat1), np.radians(lon1)
    la2, lo2 = np.radians(lat2), np.radians(lon2)
    s = (
        np.sin((la2 - la1) / 2.0) ** 2
        + np.cos(la1) * np.cos(la2) * np.sin((lo2 - lo1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


@dataclass(frozen=True)
class GridSpec:
    """Regular lat/lon raster; row 0 is the northernmost row."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    cellsize: float = DEFAULT_CELLSIZE_DEG

    def __post_init__(self):
        box = (self.lat_min, self.lat_max, self.lon_min, self.lon_max)
        if not (all(map(math.isfinite, box)) and 0 < self.cellsize < math.inf):
            raise ValueError(f"grid box {box} and cellsize {self.cellsize!r} must be finite, "
                             "cellsize positive")
        if self.lat_min >= self.lat_max or self.lon_min >= self.lon_max:
            raise ValueError("bounding box is empty")
        require_cells(ValueError, "use a coarser cellsize or less padding", grid=(
            self._cells(self.lat_min, self.lat_max), self._cells(self.lon_min, self.lon_max)))
        if not (-90 <= self.lat_min and self.lat_max <= 90 and -180 <= self.lon_min
                and self.lon_max <= 180):
            raise ValueError(f"grid box {box} leaves the valid coordinates")

    @classmethod
    def around(
        cls,
        tx: GeoPoint,
        rx: GeoPoint,
        padding: float = DEFAULT_BOX_PADDING_DEG,
        cellsize: float = DEFAULT_CELLSIZE_DEG,
    ) -> "GridSpec":
        """Box spanning TX and RX, padded so boundary cells have neighbors."""
        return cls(
            lat_min=min(tx.lat, rx.lat) - padding,
            lat_max=max(tx.lat, rx.lat) + padding,
            lon_min=min(tx.lon, rx.lon) - padding,
            lon_max=max(tx.lon, rx.lon) + padding,
            cellsize=cellsize,
        )

    def _cells(self, lo: float, hi: float) -> float:
        """Raster cells across lo..hi, a float so that an overflowing ratio stays inf."""
        return max(1.0, float(np.ceil((hi - lo) / self.cellsize - 1e-9)))

    @property
    def nrows(self) -> int:
        return int(self._cells(self.lat_min, self.lat_max))

    @property
    def ncols(self) -> int:
        return int(self._cells(self.lon_min, self.lon_max))

    def center_lat(self, row) -> np.ndarray | float:
        return self.lat_max - (np.asarray(row) + 0.5) * self.cellsize

    def center_lon(self, col) -> np.ndarray | float:
        return self.lon_min + (np.asarray(col) + 0.5) * self.cellsize

    def contains(self, p: GeoPoint) -> bool:
        return (
            self.lat_min <= p.lat <= self.lat_max
            and self.lon_min <= p.lon <= self.lon_max
        )

    def nearest_cell(self, p: GeoPoint) -> tuple[int, int]:
        """Cell whose center is nearest to p; points are clipped to the box."""
        row = int(math.floor((self.lat_max - p.lat) / self.cellsize))
        col = int(math.floor((p.lon - self.lon_min) / self.cellsize))
        return (
            min(max(row, 0), self.nrows - 1),
            min(max(col, 0), self.ncols - 1),
        )


@dataclass(frozen=True)
class GridMap:
    """One factor at one epoch on a GridSpec raster."""

    spec: GridSpec
    factor: MetFactor
    epoch: EpochHour
    values: np.ndarray
    assigned_mask: np.ndarray


@dataclass(frozen=True)
class PathFeatureTensor:
    """(n_epochs, n_locations, n_factors) array with axis metadata."""

    epochs: tuple[EpochHour, ...]
    points: PathPoints
    factors: FactorSet
    values: np.ndarray

    def __post_init__(self):
        expected = (len(self.epochs), len(self.points), len(self.factors))
        if self.values.shape != expected:
            raise ValueError(f"tensor shape {self.values.shape} != axes {expected}")


def _stations_by_cell(spec: GridSpec, locations) -> dict[tuple[int, int], list[int]]:
    """The indices of the locations inside spec's box, grouped by nearest
    cell: cells sorted, indices ascending within a cell."""
    groups: dict[tuple[int, int], list[int]] = {}
    for s, loc in enumerate(locations):
        if spec.contains(loc):
            groups.setdefault(spec.nearest_cell(loc), []).append(s)
    return dict(sorted(groups.items()))


def assign_observations(
    spec: GridSpec,
    registry: StationRegistry,
    weather: WeatherSeries,
    epoch: EpochHour,
    factor: MetFactor,
) -> GridMap:
    """Place each reporting station's value at its nearest cell center.

    Stations outside the bounding box are skipped.  Stations sharing a
    nearest cell are averaged arithmetically.
    """
    f = ALL_FACTORS.index(factor)
    reported = {
        sid: float(weather.values[t, s, f])
        for t in np.flatnonzero(weather.hours == epoch.hours_since_epoch)
        for s, sid in enumerate(weather.station_ids)
        if weather.present[t, s, f]
    }
    # registry order, so each cell's sum adds its stations in that order
    values_at = [reported[sid] for sid, _ in registry.entries if sid in reported]
    groups = _stations_by_cell(spec, [loc for sid, loc in registry.entries if sid in reported])
    if not groups:
        raise DataError(f"no station reports {factor} at {epoch.isoformat()}")
    require_cells(ConfigError, "use a coarser grid_cellsize",  # idw_fill's, before the raster
                  IDW_weights=(spec.nrows * spec.ncols - len(groups), len(groups)))
    values = np.full((spec.nrows, spec.ncols), np.nan)
    mask = np.zeros((spec.nrows, spec.ncols), dtype=bool)
    for cell, members in groups.items():
        total = 0.0
        for s in members:
            total += values_at[s]
        values[cell] = total / len(members)
        mask[cell] = True
    return GridMap(spec, factor, epoch, values, mask)


def idw_weights(spec: GridSpec, query_rows, query_cols, rows_a, cols_a) -> np.ndarray:
    """Row-normalized 1/d weights (Q, C) of the assigned cells at each query cell.

    A query on an assigned cell gets exactly 1.0 on that cell and 0.0
    elsewhere, so it reproduces the cell's value bit for bit.
    """
    query_rows, query_cols = np.asarray(query_rows), np.asarray(query_cols)
    rows_a, cols_a = np.asarray(rows_a), np.asarray(cols_a)
    d = haversine_km_arrays(
        spec.center_lat(query_rows)[:, None],
        spec.center_lon(query_cols)[:, None],
        spec.center_lat(rows_a)[None, :],
        spec.center_lon(cols_a)[None, :],
    )
    on = (query_rows[:, None] == rows_a[None, :]) & (query_cols[:, None] == cols_a[None, :])
    hit = on.any(axis=1)
    d[hit] = 1.0  # placeholder; those rows are overwritten below
    w = 1.0 / d
    w /= w.sum(axis=1, keepdims=True)
    w[hit] = on[hit]
    return w


def idw_fill(partial: GridMap) -> GridMap:
    """Fill every unassigned cell from all assigned cells (global Shepard)."""
    rows_a, cols_a = np.nonzero(partial.assigned_mask)
    if rows_a.size == 0:
        raise DataError("grid has no assigned cells")
    values = partial.values.copy()
    rows_q, cols_q = np.nonzero(~partial.assigned_mask)
    if rows_q.size:
        w = idw_weights(partial.spec, rows_q, cols_q, rows_a, cols_a)
        values[rows_q, cols_q] = w @ partial.values[rows_a, cols_a]
    return GridMap(partial.spec, partial.factor, partial.epoch, values, partial.assigned_mask)


def sample_path(tx: GeoPoint, rx: GeoPoint, l: int = DEFAULT_PATH_POINTS) -> PathPoints:
    """l points from TX to RX at great-circle fractions k/(l-1)."""
    if l < 2:
        raise ValueError("need at least 2 path points")
    if tx == rx:
        raise DataError("transmitter and receiver coincide")
    v1 = _unit_vector(tx)
    v2 = _unit_vector(rx)
    omega = math.acos(max(-1.0, min(1.0, float(np.dot(v1, v2)))))
    if omega > math.pi - 1e-9:
        raise DataError("endpoints are antipodal; great circle is ambiguous")
    points: list[GeoPoint] = []
    for k in range(l):
        f = k / (l - 1)
        if k == 0:
            points.append(tx)
        elif k == l - 1:
            points.append(rx)
        else:
            v = (math.sin((1 - f) * omega) * v1 + math.sin(f * omega) * v2) / math.sin(omega)
            points.append(_from_unit_vector(v))
    return tuple(points)


def _unit_vector(p: GeoPoint) -> np.ndarray:
    la, lo = math.radians(p.lat), math.radians(p.lon)
    return np.array(
        [math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo), math.sin(la)]
    )


def _from_unit_vector(v: np.ndarray) -> GeoPoint:
    lat = math.degrees(math.asin(max(-1.0, min(1.0, float(v[2])))))
    lon = math.degrees(math.atan2(float(v[1]), float(v[0])))
    return GeoPoint(lat, lon)


def elevation_profile(dem: ElevationGrid, path: PathPoints) -> np.ndarray:
    """Bilinear elevation at each path point.

    NODATA neighbors are dropped with weight renormalization; a point
    whose four neighbors are all NODATA is an error, as is a point
    outside the raster footprint.
    """
    out = np.empty(len(path), dtype=float)
    nrows, ncols = dem.nrows, dem.ncols
    for j, p in enumerate(path):
        if not dem.contains(p):
            raise DataError(f"path point {j} at {p} outside DEM extent")
        # fractional position in cell-center coordinates, row 0 at the top
        gx = (p.lon - dem.origin.lon) / dem.cellsize - 0.5
        gy = (dem.origin.lat + nrows * dem.cellsize - p.lat) / dem.cellsize - 0.5
        gx = min(max(gx, 0.0), ncols - 1.0)
        gy = min(max(gy, 0.0), nrows - 1.0)
        x0 = min(int(math.floor(gx)), max(ncols - 2, 0))
        y0 = min(int(math.floor(gy)), max(nrows - 2, 0))
        fx = gx - x0
        fy = gy - y0
        x1 = min(x0 + 1, ncols - 1)
        y1 = min(y0 + 1, nrows - 1)
        corners = (
            (dem.values[y0, x0], (1 - fy) * (1 - fx)),
            (dem.values[y0, x1], (1 - fy) * fx),
            (dem.values[y1, x0], fy * (1 - fx)),
            (dem.values[y1, x1], fy * fx),
        )
        num = 0.0
        den = 0.0
        for value, weight in corners:
            if math.isnan(value):
                continue
            num += weight * value
            den += weight
        if den == 0.0:
            raise DataError(f"all DEM neighbors of path point {j} are NODATA")
        out[j] = num / den
    return out


def path_tensor_from_arrays(
    station_values: np.ndarray,
    epochs: tuple[EpochHour, ...],
    factors: FactorSet,
    locations: list[GeoPoint],
    spec: GridSpec,
    points: PathPoints,
) -> PathFeatureTensor:
    """Path tensor from fully-aligned per-station value arrays.

    Equivalent to building every (factor, epoch) map and sampling it, but
    the cell geometry is epoch-independent after alignment, so the IDW
    weights are computed once and applied to all epochs with one matmul.
    station_values has shape (n_epochs, n_stations, n_factors).
    """
    groups = _stations_by_cell(spec, locations)
    if not groups:
        raise DataError("no station inside the grid bounding box")
    # per-cell station means, shape (T, C, n)
    cell_values = np.stack(
        [station_values[:, members, :].mean(axis=1) for members in groups.values()], axis=1
    )
    rows_a, cols_a = np.array(list(groups)).T
    rows_q, cols_q = np.array([spec.nearest_cell(p) for p in points], dtype=int).reshape(-1, 2).T
    weights = idw_weights(spec, rows_q, cols_q, rows_a, cols_a)
    values = np.einsum("jc,tcn->tjn", weights, cell_values)
    return PathFeatureTensor(tuple(epochs), tuple(points), factors, values)


def build_path_tensor(
    dataset: AlignedDataset,
    registry: StationRegistry,
    spec: GridSpec,
    points: PathPoints,
) -> PathFeatureTensor:
    """Path tensor straight from an aligned dataset."""
    locations = [registry.location(sid) for sid in dataset.station_ids]
    return path_tensor_from_arrays(
        dataset.values, dataset.epochs, dataset.factors, locations, spec, points
    )


def export_gridmap_csv(grid: GridMap, path) -> None:
    """Raster rows north-to-south, cells west-to-east."""
    lats = map(repr, grid.spec.center_lat(np.arange(grid.spec.nrows)).tolist())
    lons = list(map(repr, grid.spec.center_lon(np.arange(grid.spec.ncols)).tolist()))
    write_csv(path, ["lat", "lon", "value"],
              ([lat, lon, repr(value)]
               for lat, row in zip(lats, grid.values) for lon, value in zip(lons, row.tolist())))
