"""Seeded synthetic scenarios with a known TD-generating function.

The weather model is the cheapest process with the right texture:
seasonal plus diurnal sinusoids plus AR(1) noise per factor per station,
with cross-station correlation decaying over 50 km.  TD is a declared
recipe over the path feature tensor plus Gaussian noise, so model
recovery can be tested against a known floor.

The brute-force oracle at the bottom (ols_oracle) is a deliberately
naive normal-equations solve; the benchmark's lasso gate and the tests
cross-check the optimized model code against it, so keep it independent
of that code.  The test-only oracles live in tests/oracles.py.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

import numpy as np

from .artifacts import decode, encode
from .errors import RankDeficientError
from .gridmap import (
    DEFAULT_BOX_PADDING_DEG,
    DEFAULT_CELLSIZE_DEG,
    DEFAULT_PATH_POINTS,
    GridSpec,
    PathFeatureTensor,
    PathPoints,
    elevation_profile,
    path_tensor_from_arrays,
    sample_path,
)
from .ingest import (
    MICROS_PER_SECOND,
    ElevationGrid,
    StationRegistry,
    TdSamples,
    WeatherSeries,
    write_dem,
    write_station_registry,
    write_td_csv,
    write_weather_csv,
)
from .models import FACTOR, Items, Record, Scalar, Table, Text, as_tuple
from .optim import MAX_ARRAY_CELLS, require_at_least
from .types import (
    ALL_FACTORS,
    TD_SANITY_BOUND_NS,
    EpochHour,
    FactorSet,
    GeoPoint,
    MetFactor,
    factor_set,
    haversine_km,
)
from .wlr_agrnn import transform_elevation

SPATIAL_DECAY_KM = 50.0
SCENARIO_SCHEMA = "elorantd.scenario/1"

# fitted so the synthetic TX-RX separation reproduces the declared
# 179.28 km baseline within a kilometer
DEFAULT_TX = GeoPoint(36.193, 129.338)
DEFAULT_RX = GeoPoint(36.392, 127.3529)


@dataclass(frozen=True)
class WeatherParams:
    """Marginal shape of one factor's hourly series."""

    mean: float
    seasonal_amp: float
    diurnal_amp: float
    ar_sd: float
    ar_rho: float
    seasonal_phase: float = 0.0

    def __post_init__(self):
        if not -1.0 < self.ar_rho < 1.0:  # else the AR(1) series explodes
            raise ValueError(f"ar_rho must lie in (-1, 1), got {self.ar_rho!r}")


DEFAULT_WEATHER: dict[MetFactor, WeatherParams] = {
    MetFactor.PRESSURE: WeatherParams(1015.0, 8.0, 2.0, 4.0, 0.95, 1.2),
    MetFactor.CLOUD_COVER: WeatherParams(5.0, 1.0, 1.5, 2.5, 0.80, 2.5),
    MetFactor.HUMIDITY: WeatherParams(60.0, 10.0, 12.0, 8.0, 0.90, 4.0),
    MetFactor.PRECIPITATION: WeatherParams(0.5, 0.3, 0.2, 1.5, 0.70, 0.7),
    MetFactor.SNOW_DEPTH: WeatherParams(3.0, 2.0, 0.1, 1.5, 0.98, 3.6),
    MetFactor.SUNSHINE: WeatherParams(0.4, 0.1, 0.35, 0.15, 0.60, 1.9),
    MetFactor.TEMPERATURE: WeatherParams(8.0, 10.0, 4.0, 2.5, 0.92, 0.5),
    MetFactor.VAPOR_PRESSURE: WeatherParams(12.0, 5.0, 2.0, 1.5, 0.90, 0.9),
    MetFactor.VISIBILITY: WeatherParams(15000.0, 2000.0, 4000.0, 3500.0, 0.85, 5.1),
    MetFactor.WIND_DIR: WeatherParams(180.0, 30.0, 40.0, 40.0, 0.70, 2.2),
    MetFactor.WIND_SPEED: WeatherParams(4.0, 1.0, 1.5, 1.5, 0.80, 3.1),
}


@dataclass(frozen=True)
class GroundTruthRecipe:
    """Noise-free TD as a function of path-aggregated factor values.

    Aggregation weights over path locations are (1 + gain * h~_j),
    normalized to sum 1, or a one-hot at the receiver end when
    receiver_only is set.  Interaction terms multiply centered/scaled
    aggregates so their coefficients stay in nanoseconds.
    """

    base_ns: float = 0.0
    linear_ns: dict[MetFactor, float] = field(default_factory=dict)
    centers: dict[MetFactor, float] = field(default_factory=dict)
    scales: dict[MetFactor, float] = field(default_factory=dict)
    interactions: tuple[tuple[tuple[MetFactor, ...], float], ...] = ()
    elevation_gain: float = 0.0
    receiver_only: bool = False
    diurnal_amp_ns: float = 0.0
    seasonal_amp_ns: float = 0.0

    def __post_init__(self):
        require_at_least(self, 0, "elevation_gain")  # keeps every location weight > 0
        if not all(0 < v < math.inf for v in self.scales.values()):
            raise ValueError("recipe scales must be finite and > 0")

    def used_factors(self) -> FactorSet:
        used = set(self.linear_ns)
        for term, _ in self.interactions:
            used.update(term)
        return factor_set(used)

    def _center_scale(self, f: MetFactor) -> tuple[float, float]:
        return self.centers.get(f, 0.0), self.scales.get(f, 1.0)

    def location_weights(self, h_tilde: np.ndarray) -> np.ndarray:
        if self.receiver_only:
            w = np.zeros(h_tilde.size)
            w[-1] = 1.0
            return w
        raw = 1.0 + self.elevation_gain * np.asarray(h_tilde, dtype=float)
        return raw / raw.sum()

    def evaluate(
        self,
        tensor: PathFeatureTensor,
        h_tilde: np.ndarray,
        hours_of_day: np.ndarray,
        hours_absolute: np.ndarray,
    ) -> np.ndarray:
        """Noise-free TD for every tensor epoch."""
        w = self.location_weights(h_tilde)
        col = {f: i for i, f in enumerate(tensor.factors)}
        missing = [f for f in self.used_factors() if f not in col]
        if missing:
            raise ValueError(f"tensor lacks recipe factors {missing}")
        agg = {f: tensor.values[:, :, col[f]] @ w for f in self.used_factors()}
        g = np.full(len(tensor.epochs), self.base_ns)
        for f in factor_set(self.linear_ns):  # canonical order: a decoded recipe sums alike
            g += self.linear_ns[f] * agg[f]
        for term, coef in self.interactions:
            prod = np.full(len(tensor.epochs), coef)
            for f in term:
                c, s = self._center_scale(f)
                prod *= (agg[f] - c) / s
            g += prod
        if self.diurnal_amp_ns:
            g += self.diurnal_amp_ns * np.sin(2.0 * np.pi * hours_of_day / 24.0)
        if self.seasonal_amp_ns:
            g += self.seasonal_amp_ns * np.sin(2.0 * np.pi * hours_absolute / 8760.0)
        return g


@dataclass(frozen=True)
class DemConfig:
    cellsize: float = 0.02
    padding: float = 0.1
    base_m: float = 50.0
    hills: int = 12
    amp_range: tuple[float, float] = (50.0, 450.0)
    width_range: tuple[float, float] = (0.05, 0.3)

    def __post_init__(self):
        require_at_least(self, 0, "cellsize", strict=True)
        require_at_least(self, 0, "padding", "hills")
        for name, low in (("amp_range", -math.inf), ("width_range", 0.0)):
            lo, hi = getattr(self, name)
            if not (math.isfinite(hi) and low < lo <= hi):
                raise ValueError(f"{name} must be finite with {low} < lo <= hi, got {(lo, hi)}")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 42
    start: EpochHour = EpochHour.of(2024, 10, 1)
    duration_hours: int = 2952  # Oct 1 through Jan 31
    tx: GeoPoint = DEFAULT_TX
    rx: GeoPoint = DEFAULT_RX
    station_count: int = 10
    station_jitter_deg: float = 0.04
    l: int = DEFAULT_PATH_POINTS
    factors: FactorSet = ALL_FACTORS
    grid_cellsize: float = DEFAULT_CELLSIZE_DEG
    grid_padding: float = DEFAULT_BOX_PADDING_DEG
    td_samples_per_hour: int = 60
    td_jitter_ns: float = 0.5
    noise_sd_ns: float = 10.0
    recipe: GroundTruthRecipe = GroundTruthRecipe()
    dem: DemConfig = DemConfig()
    weather: dict[MetFactor, WeatherParams] = field(
        default_factory=lambda: dict(DEFAULT_WEATHER)
    )

    def __post_init__(self):
        object.__setattr__(self, "factors", factor_set(self.factors))
        require_at_least(self, 0, "seed", "station_jitter_deg", "grid_padding",
                         "td_jitter_ns", "noise_sd_ns")
        require_at_least(self, 1, "duration_hours", "station_count")
        require_at_least(self, 2, "l")
        if self.seed >= 2 ** 63:  # scenario.meta holds 64-bit integers
            raise ValueError(f"seed must be below 2**63, got {self.seed!r}")
        for name in ("td_jitter_ns", "noise_sd_ns"):  # a TD this far off fails validate_td_ns
            if not getattr(self, name) < TD_SANITY_BOUND_NS:
                raise ValueError(f"{name} must be below {TD_SANITY_BOUND_NS:g} ns")
        if not 1 <= self.td_samples_per_hour <= 3600:
            raise ValueError("need 1 to 3600 TD samples per hour (at most one a second)")
        if self.tx == self.rx:
            raise ValueError("tx and rx coincide")
        if not self.factors:
            raise ValueError("a scenario needs at least one factor")
        missing = [f.column for f in self.recipe.used_factors() if f not in self.factors]
        if missing:
            raise ValueError(f"recipe uses factors outside the scenario factor set: {missing}")
        uncovered = [f.column for f in self.factors if f not in self.weather]
        if uncovered:
            raise ValueError(f"weather has no parameters for factors {uncovered}")
        # refuse before generating anything: the TD log, the weather cube, the
        # path tensor, the station distances, the DEM raster (once per hill)
        t, s, spec, dem = self.duration_hours, self.station_count, self.grid_spec(), self.dem
        raster = ((spec.lat_max - spec.lat_min + 2 * dem.padding) / dem.cellsize
                  * (spec.lon_max - spec.lon_min + 2 * dem.padding) / dem.cellsize)
        if max(t * self.td_samples_per_hour, t * s * len(ALL_FACTORS), s * s,
               t * self.l * len(self.factors), raster * max(1, dem.hills)) > MAX_ARRAY_CELLS:
            raise ValueError(f"the scenario's largest array would exceed {MAX_ARRAY_CELLS} "
                             "cells; shorten it or use fewer stations, path points or DEM cells")
        try:
            EpochHour.from_hours(self.start.hours_since_epoch + self.duration_hours - 1)
        except (OverflowError, OSError, ValueError):
            raise ValueError("the scenario ends past the last representable hour") from None

    def grid_spec(self) -> GridSpec:
        return GridSpec.around(self.tx, self.rx, self.grid_padding, self.grid_cellsize)


@dataclass(frozen=True)
class SyntheticScenario:
    config: ScenarioConfig
    registry: StationRegistry
    weather: WeatherSeries
    td_samples: TdSamples
    dem: ElevationGrid
    path: PathPoints
    profile: np.ndarray
    tensor: PathFeatureTensor
    epochs: tuple[EpochHour, ...]
    hourly_truth: np.ndarray
    hourly_td: np.ndarray

    @property
    def path_length_km(self) -> float:
        return haversine_km(self.config.tx, self.config.rx)


def _station_positions(cfg: ScenarioConfig, rng: np.random.Generator) -> list[GeoPoint]:
    anchors = sample_path(cfg.tx, cfg.rx, max(cfg.station_count, 2))
    if cfg.station_count == 1:
        anchors = (anchors[0],)
    out = []
    for p in anchors[: cfg.station_count]:
        dlat = rng.uniform(-cfg.station_jitter_deg, cfg.station_jitter_deg)
        dlon = rng.uniform(-cfg.station_jitter_deg, cfg.station_jitter_deg)
        out.append(GeoPoint(p.lat + dlat, p.lon + dlon))
    return out


def _generate_dem(cfg: ScenarioConfig, rng: np.random.Generator) -> ElevationGrid:
    spec = cfg.grid_spec()
    pad = cfg.dem.padding
    lat_min, lat_max = spec.lat_min - pad, spec.lat_max + pad
    lon_min, lon_max = spec.lon_min - pad, spec.lon_max + pad
    cell = cfg.dem.cellsize
    nrows = math.ceil((lat_max - lat_min) / cell)
    ncols = math.ceil((lon_max - lon_min) / cell)
    lat_c = lat_min + (nrows - np.arange(nrows) - 0.5) * cell
    lon_c = lon_min + (np.arange(ncols) + 0.5) * cell
    values = np.full((nrows, ncols), cfg.dem.base_m)
    for _ in range(cfg.dem.hills):
        clat = rng.uniform(lat_min, lat_max)
        clon = rng.uniform(lon_min, lon_max)
        amp = rng.uniform(*cfg.dem.amp_range)
        width = rng.uniform(*cfg.dem.width_range)
        values += amp * np.exp(
            -((lat_c[:, None] - clat) ** 2 + (lon_c[None, :] - clon) ** 2)
            / (2.0 * width * width)
        )
    return ElevationGrid(origin=GeoPoint(lat_min, lon_min), cellsize=cell, values=values)


def _clip_factor(factor: MetFactor, values: np.ndarray) -> np.ndarray:
    lo, hi = factor.bounds
    out = np.clip(values, lo, hi)
    if factor.integer_valued:
        out = np.clip(np.round(out), lo, hi)
    return out


def _generate_factor_matrix(
    params: WeatherParams,
    hours_abs: np.ndarray,
    hours_of_day: np.ndarray,
    chol: np.ndarray,
    rng: np.random.Generator,
    n_stations: int,
) -> np.ndarray:
    """(T, S) hourly values for one factor across correlated stations."""
    t_count = hours_abs.size
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_stations)
    seasonal = params.seasonal_amp * np.sin(
        2.0 * np.pi * hours_abs / 8760.0 + params.seasonal_phase
    )
    diurnal = params.diurnal_amp * np.sin(
        2.0 * np.pi * hours_of_day[:, None] / 24.0 + phases[None, :]
    )
    eps_sd = params.ar_sd * math.sqrt(max(1.0 - params.ar_rho**2, 1e-12))
    shocks = rng.standard_normal((t_count, n_stations)) @ chol.T
    ar = np.empty((t_count, n_stations))
    ar[0] = params.ar_sd * (rng.standard_normal(n_stations) @ chol.T)
    for t in range(1, t_count):
        ar[t] = params.ar_rho * ar[t - 1] + eps_sd * shocks[t]
    return params.mean + seasonal[:, None] + diurnal + ar


def generate_scenario(cfg: ScenarioConfig) -> SyntheticScenario:
    """Deterministic per seed: independent child RNG streams per concern,
    so changing the DEM never shifts the weather or the TD noise."""
    root = np.random.SeedSequence(cfg.seed)
    keys = ("stations", "dem", "td_noise", *[f.column for f in ALL_FACTORS])
    children = dict(zip(keys, root.spawn(len(keys))))

    station_rng = np.random.default_rng(children["stations"])
    positions = _station_positions(cfg, station_rng)
    registry = StationRegistry(
        tuple((f"ST{i + 1:02d}", p) for i, p in enumerate(positions))
    )
    dem = _generate_dem(cfg, np.random.default_rng(children["dem"]))
    path = sample_path(cfg.tx, cfg.rx, cfg.l)
    profile = elevation_profile(dem, path)

    epochs = tuple(
        EpochHour(cfg.start.instant + timedelta(hours=k)) for k in range(cfg.duration_hours)
    )
    hours_abs = np.array([e.hours_since_epoch for e in epochs], dtype=float)
    hours_of_day = np.array([e.instant.hour for e in epochs], dtype=float)

    dists = np.array(
        [[haversine_km(a, b) for b in positions] for a in positions]
    )
    corr = np.exp(-dists / SPATIAL_DECAY_KM)
    chol = np.linalg.cholesky(corr + 1e-10 * np.eye(len(positions)))

    station_values = np.empty((cfg.duration_hours, len(positions), len(cfg.factors)))
    for i, f in enumerate(cfg.factors):
        rng = np.random.default_rng(children[f.column])
        raw = _generate_factor_matrix(
            cfg.weather[f], hours_abs, hours_of_day, chol, rng, len(positions)
        )
        station_values[:, :, i] = _clip_factor(f, raw)

    columns = [ALL_FACTORS.index(f) for f in cfg.factors]
    cube = np.full((len(epochs), len(positions), len(ALL_FACTORS)), np.nan)
    cube[:, :, columns] = station_values
    present = np.zeros(cube.shape, dtype=bool)
    present[:, :, columns] = True
    weather = WeatherSeries(hours_abs.astype(np.int64), registry.ids, cube, present)

    tensor = path_tensor_from_arrays(
        station_values, epochs, cfg.factors, positions, cfg.grid_spec(), path
    )
    h_tilde = transform_elevation(profile)
    truth = cfg.recipe.evaluate(tensor, h_tilde, hours_of_day, hours_abs)

    noise_rng = np.random.default_rng(children["td_noise"])
    noise = noise_rng.standard_normal(cfg.duration_hours) * cfg.noise_sd_ns
    hourly_td = truth + noise

    step = 3600 // cfg.td_samples_per_hour
    k_range = np.arange(cfg.td_samples_per_hour)
    jitter = cfg.td_jitter_ns * np.sin(2.0 * np.pi * (k_range + 0.5) / cfg.td_samples_per_hour)
    seconds = hours_abs.astype(np.int64)[:, None] * 3600 + k_range * step
    samples = TdSamples(
        (seconds * MICROS_PER_SECOND).ravel(), (hourly_td[:, None] + jitter).ravel()
    )

    return SyntheticScenario(
        config=cfg,
        registry=registry,
        weather=weather,
        td_samples=samples,
        dem=dem,
        path=path,
        profile=profile,
        tensor=tensor,
        epochs=epochs,
        hourly_truth=truth,
        hourly_td=hourly_td,
    )


# -- default scenario family --------------------------------------------------

def default_recipe() -> GroundTruthRecipe:
    """Linear factor dependence with elevation-coupled path weighting."""
    return GroundTruthRecipe(
        base_ns=150.0,
        linear_ns={
            MetFactor.PRESSURE: -3.0,
            MetFactor.HUMIDITY: 0.5,
            MetFactor.TEMPERATURE: 2.5,
            MetFactor.VAPOR_PRESSURE: 3.0,
        },
        elevation_gain=2.0,
    )


def cubic_recipe() -> GroundTruthRecipe:
    """Receiver-site recipe with genuine third-degree structure."""
    return GroundTruthRecipe(
        base_ns=120.0,
        linear_ns={MetFactor.PRESSURE: -2.0, MetFactor.TEMPERATURE: 8.0},
        centers={
            MetFactor.PRESSURE: 1015.0,
            MetFactor.TEMPERATURE: 8.0,
            MetFactor.HUMIDITY: 60.0,
        },
        scales={
            MetFactor.PRESSURE: 8.0,
            MetFactor.TEMPERATURE: 6.0,
            MetFactor.HUMIDITY: 15.0,
        },
        interactions=(
            ((MetFactor.TEMPERATURE, MetFactor.TEMPERATURE, MetFactor.TEMPERATURE), 12.0),
            ((MetFactor.PRESSURE, MetFactor.PRESSURE), 9.0),
            ((MetFactor.TEMPERATURE, MetFactor.HUMIDITY), 6.0),
        ),
        receiver_only=True,
    )


def default_scenario_config(seed: int = 42, noise_sd_ns: float = 10.0) -> ScenarioConfig:
    return ScenarioConfig(seed=seed, noise_sd_ns=noise_sd_ns, recipe=default_recipe())


def cubic_scenario_config(seed: int = 42) -> ScenarioConfig:
    return ScenarioConfig(seed=seed, noise_sd_ns=10.0, recipe=cubic_recipe())


# -- scenario.meta: the config as the artifact codec lays it out ----------------

def _floats(names: str) -> dict:
    return {name: Scalar(float) for name in names.split()}


_POINT = Record(GeoPoint, _floats("lat lon"), as_list=True)
_RANGE = Record(as_tuple, _floats("lo hi"), as_list=True)
_BY_FACTOR = Table(FACTOR, Scalar(float))
SCENARIO_LAYOUT = Record(ScenarioConfig, {
    **dict.fromkeys(("seed", "duration_hours", "station_count", "l", "td_samples_per_hour"),
                    Scalar(int)),
    **_floats("station_jitter_deg grid_cellsize grid_padding td_jitter_ns noise_sd_ns"),
    "start": Text(EpochHour.parse, EpochHour.isoformat), "tx": _POINT, "rx": _POINT,
    "factors": Items("factors", FACTOR),
    "recipe": Record(GroundTruthRecipe, {
        **_floats("base_ns elevation_gain diurnal_amp_ns seasonal_amp_ns"),
        "linear_ns": _BY_FACTOR, "centers": _BY_FACTOR, "scales": _BY_FACTOR,
        "interactions": Items("terms", Record(as_tuple, {
            "factors": Items("order", FACTOR), "coef_ns": Scalar(float)})),
        "receiver_only": Scalar(bool),
    }),
    "dem": Record(DemConfig, {**_floats("cellsize padding base_m"), "hills": Scalar(int),
                              "amp_range": _RANGE, "width_range": _RANGE}),
    "weather": Table(FACTOR, Record(WeatherParams, _floats(
        "mean seasonal_amp diurnal_amp ar_sd ar_rho seasonal_phase"))),
})


def write_corpus(scenario: SyntheticScenario, outdir) -> dict[str, Path]:
    """Write stations.csv, weather.csv, td.csv, dem.asc, scenario.meta."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "stations": out / "stations.csv",
        "weather": out / "weather.csv",
        "td": out / "td.csv",
        "dem": out / "dem.asc",
        "meta": out / "scenario.meta",
    }
    write_station_registry(scenario.registry, paths["stations"])
    write_weather_csv(scenario.weather, paths["weather"], scenario.config.factors)
    write_td_csv(scenario.td_samples, paths["td"])
    write_dem(scenario.dem, paths["dem"])
    meta = {"schema": SCENARIO_SCHEMA, "path_length_km": scenario.path_length_km,
            **encode(SCENARIO_LAYOUT, scenario.config)}
    paths["meta"].write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return paths


def load_scenario_config(path) -> ScenarioConfig:
    """Decode a scenario.meta; ValueError, naming the bad value's path, if
    it is not JSON, not this schema, or holds a malformed or out-of-range value."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = raw.get("schema") if isinstance(raw, dict) else None
    if schema != SCENARIO_SCHEMA:
        raise ValueError(f"scenario.schema: expected {SCENARIO_SCHEMA!r}, got {schema!r}")
    return decode(SCENARIO_LAYOUT, raw, {}, "scenario")


# -- brute-force oracles --------------------------------------------------------

def ols_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Normal-equations least squares via Cholesky; SPD check included."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ValueError(f"design {x.shape} vs target {y.shape}")
    gram = x.T @ x
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise RankDeficientError("design matrix is rank deficient") from None
    rhs = x.T @ y
    z = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.T, z)
