"""Corpus loading, feature construction, model dispatch, and evaluation.

This is the glue between the library modules and the CLI: everything
here is deterministic given its inputs, so command outputs can be
byte-compared across runs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import models, wlr_agrnn
from .artifacts import model_kind
from .errors import AxisMismatchError, ConfigError, DataError
from .gridmap import (
    DEFAULT_BOX_PADDING_DEG,
    DEFAULT_CELLSIZE_DEG,
    DEFAULT_PATH_POINTS,
    GridSpec,
    build_path_tensor,
    elevation_profile,
    sample_path,
)
from .ingest import (
    DEFAULT_MIN_SAMPLES_PER_HOUR,
    ElevationGrid,
    StationRegistry,
    TdSamples,
    WeatherSeries,
    aggregate_hourly,
    align_epochs,
    parse_dem,
    parse_station_registry,
    parse_td_csv,
    parse_weather_csv,
)
from .optim import require_cells
from .stats import anova_oneway, mae, rmse
from .synth import ScenarioConfig, load_scenario_config
from .types import EpochHour, FactorSet, GeoPoint, factor_set

HOURS_PER_FOLD = 168  # contiguous weekly folds for the ANOVA comparison


@dataclass(frozen=True)
class Corpus:
    """Raw parsed corpus directory contents."""

    registry: StationRegistry
    weather: WeatherSeries
    td_samples: TdSamples
    dem: ElevationGrid
    scenario: ScenarioConfig | None = None  # decoded scenario.meta, if present

    def tx_rx(self) -> tuple[GeoPoint, GeoPoint]:
        if self.scenario is None:
            raise ConfigError(
                "corpus has no scenario.meta to take tx/rx from; pass transmitter "
                "and receiver coordinates in the run config"
            )
        return self.scenario.tx, self.scenario.rx


def load_corpus(directory) -> Corpus:
    """Parse stations.csv, weather.csv, td.csv, dem.asc (+ scenario.meta,
    decoded first so that a malformed one fails before the large files)."""
    root = Path(directory)
    for fname in ("stations.csv", "weather.csv", "td.csv", "dem.asc"):
        if not (root / fname).is_file():
            raise DataError(f"corpus {root} is missing {fname}")
    meta_path = root / "scenario.meta"
    scenario = load_scenario_config(meta_path) if meta_path.is_file() else None
    registry = parse_station_registry(root / "stations.csv")
    return Corpus(
        registry=registry,
        weather=parse_weather_csv(root / "weather.csv", registry),
        td_samples=parse_td_csv(root / "td.csv"),
        dem=parse_dem(root / "dem.asc"),
        scenario=scenario,
    )


@dataclass(frozen=True)
class FeatureBundle:
    """Aligned per-epoch features in both tensor and flat layouts.

    tensor is (T, l, n); flat is (T, l*n) with location-major column
    order, matching the mixture model's contiguous location groups.
    """

    epochs: tuple[EpochHour, ...]
    factors: FactorSet
    location_mode: str
    points: tuple[GeoPoint, ...]
    elevations: np.ndarray
    tensor: np.ndarray
    td: np.ndarray

    def __post_init__(self):
        t, l, n = self.tensor.shape
        if t != len(self.epochs) or l != len(self.points) or n != len(self.factors):
            raise ValueError(
                f"tensor {self.tensor.shape} inconsistent with axes "
                f"({len(self.epochs)}, {len(self.points)}, {len(self.factors)})"
            )
        if self.td.shape != (t,):
            raise ValueError(f"td shape {self.td.shape} != ({t},)")

    @property
    def n_locations(self) -> int:
        return self.tensor.shape[1]

    @property
    def flat(self) -> np.ndarray:
        t, l, n = self.tensor.shape
        return self.tensor.reshape(t, l * n)

    def subset(self, mask: np.ndarray) -> "FeatureBundle":
        mask = np.asarray(mask, dtype=bool)
        epochs = tuple(e for e, keep in zip(self.epochs, mask) if keep)
        return replace(self, epochs=epochs, tensor=self.tensor[mask], td=self.td[mask])


def location_points(
    mode: str, corpus: Corpus, l: int, tx: GeoPoint, rx: GeoPoint
) -> tuple[GeoPoint, ...]:
    if mode == "receiver_only":
        return (rx,)
    if mode == "stations":
        return tuple(corpus.registry.location(sid) for sid in corpus.registry.ids)
    if mode == "path":
        return sample_path(tx, rx, l)
    raise ConfigError(f"unknown location mode {mode!r}")


def build_features(
    corpus: Corpus,
    factors: FactorSet,
    location_mode: str,
    tx: GeoPoint,
    rx: GeoPoint,
    l: int = DEFAULT_PATH_POINTS,
    min_samples: int = DEFAULT_MIN_SAMPLES_PER_HOUR,
    cellsize: float = DEFAULT_CELLSIZE_DEG,
    padding: float = DEFAULT_BOX_PADDING_DEG,
) -> FeatureBundle:
    """Aggregate, align, grid-map, and sample a corpus into model inputs."""
    factors = factor_set(factors)
    spec = grid_around(tx, rx, padding, cellsize)
    hourly = aggregate_hourly(corpus.td_samples, min_samples)
    aligned = align_epochs(corpus.weather, hourly, factors, corpus.registry)
    if location_mode == "path":  # refuse before sampling the path
        require_cells(ConfigError, "use fewer path points (l)",
                      path_tensor=(len(aligned.epochs), l, len(factors)))
    points = location_points(location_mode, corpus, l, tx, rx)
    tensor = build_path_tensor(aligned, corpus.registry, spec, points)
    elevations = elevation_profile(corpus.dem, points)
    return FeatureBundle(
        epochs=aligned.epochs,
        factors=factors,
        location_mode=location_mode,
        points=points,
        elevations=elevations,
        tensor=tensor.values,
        td=aligned.td,
    )


def grid_around(tx: GeoPoint, rx: GeoPoint, padding: float, cellsize: float) -> GridSpec:
    """The feature grid around tx and rx; a box or raster size GridSpec
    refuses is a config error."""
    try:
        return GridSpec.around(tx, rx, padding, cellsize)
    except ValueError as exc:
        raise ConfigError(f"features.grid_cellsize/grid_padding: {exc}") from None


# -- date-range splits ---------------------------------------------------------

def parse_range_list(text: str) -> tuple[tuple[EpochHour, EpochHour], ...]:
    """Comma list of half-open ranges 'START..END' (ISO dates or hours)."""
    ranges = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." not in chunk:
            raise ConfigError(f"range {chunk!r} must look like START..END")
        lo_text, hi_text = chunk.split("..", 1)
        try:
            lo = _parse_range_edge(lo_text.strip())
            hi = _parse_range_edge(hi_text.strip())
        except ValueError as exc:
            raise ConfigError(f"bad range {chunk!r}: {exc}") from None
        if not lo < hi:
            raise ConfigError(f"range {chunk!r} is empty (start must precede end)")
        ranges.append((lo, hi))
    if not ranges:
        raise ConfigError("no ranges given")
    return tuple(ranges)


def _parse_range_edge(text: str) -> EpochHour:
    if "T" in text or ":" in text:
        return EpochHour.parse(text)
    year, month, day = (int(v) for v in text.split("-"))
    return EpochHour.of(year, month, day)


def mask_for_ranges(epochs, ranges) -> np.ndarray:
    out = np.zeros(len(epochs), dtype=bool)
    for i, e in enumerate(epochs):
        out[i] = any(lo <= e < hi for lo, hi in ranges)
    return out


def check_disjoint(train_ranges, test_ranges) -> None:
    for lo_a, hi_a in train_ranges:
        for lo_b, hi_b in test_ranges:
            if lo_a < hi_b and lo_b < hi_a:
                raise ConfigError(
                    f"train range {lo_a.isoformat()}..{hi_a.isoformat()} overlaps "
                    f"test range {lo_b.isoformat()}..{hi_b.isoformat()}"
                )


def subset_in_ranges(bundle: FeatureBundle, ranges, side: str) -> FeatureBundle:
    """The epochs of bundle inside ranges; none is an error naming side."""
    mask = mask_for_ranges(bundle.epochs, ranges)
    if not mask.any():
        raise DataError(f"no aligned epoch falls in the {side} ranges")
    return bundle.subset(mask)


def split_bundle(bundle: FeatureBundle, train_ranges, test_ranges):
    check_disjoint(train_ranges, test_ranges)
    return (subset_in_ranges(bundle, train_ranges, "train"),
            subset_in_ranges(bundle, test_ranges, "test"))


def holdout_split(bundle: FeatureBundle, fraction: float = 0.25):
    """Chronological tail holdout used by hyperparameter sweeps."""
    t = len(bundle.epochs)
    cut = int(round(t * (1.0 - fraction)))
    if cut < 1 or cut >= t:
        raise DataError(f"cannot hold out {fraction:.0%} of {t} epochs")
    mask = np.zeros(t, dtype=bool)
    mask[:cut] = True
    return bundle.subset(mask), bundle.subset(~mask)


# -- model dispatch --------------------------------------------------------------

def model_config(name: str, options: dict | None = None):
    """The validated config of one model kind from [model] options, each an
    INI string or a Python number; unknown keys and bad values are config errors."""
    kind = models.KINDS.get(name)
    if kind is None:
        raise ConfigError(f"unknown model {name!r}; expected one of {models.MODEL_NAMES}")
    return models.section_config(kind.config, "model", options or {}, label=name)


def train_model(name: str, bundle: FeatureBundle, options: dict | None = None):
    """Train one model by name on a feature bundle (see model_config); the
    one place that labels a trained model with its factors, location mode
    and meta."""
    cfg = model_config(name, options)
    model, trace = models.KINDS[name].train(cfg, bundle)
    meta = {
        "train_start": bundle.epochs[0].isoformat(),
        "train_end": bundle.epochs[-1].isoformat(),
        "n_train": len(bundle.epochs),
        "n_locations": bundle.n_locations,
        "seed": cfg.seed,
    }
    return replace(model, factors=bundle.factors, location_mode=bundle.location_mode,
                   meta=meta), trace


def predict_model(model, bundle: FeatureBundle) -> np.ndarray:
    """Per-epoch predictions for any artifact kind on a feature bundle; a
    prediction that is not finite (an artifact's weights can overflow) is
    a data error."""
    tensor = isinstance(model, wlr_agrnn.WlrAgrnnModel)
    _check_axes(model, bundle, expect_tensor=tensor)
    pred = model.predict_batch(bundle.tensor) if tensor else model.predict(bundle.flat)
    bad = np.count_nonzero(~np.isfinite(pred))
    if bad:
        raise DataError(f"{model_kind(model).name} artifact predicts {bad} non-finite values "
                        f"of {pred.size}")
    return pred


def _check_axes(model, bundle: FeatureBundle, expect_tensor: bool) -> None:
    if tuple(model.factors) != tuple(bundle.factors):
        raise AxisMismatchError(
            f"artifact factors {[f.column for f in model.factors]} != "
            f"corpus factors {[f.column for f in bundle.factors]}"
        )
    if expect_tensor:
        want = model.n_locations
        if bundle.n_locations != want:
            raise AxisMismatchError(
                f"artifact has {want} locations, features have {bundle.n_locations}"
            )
    else:
        want = model.standardizer.mean.size
        if bundle.flat.shape[1] != want:
            raise AxisMismatchError(
                f"artifact expects {want} flat features, got {bundle.flat.shape[1]}"
            )
    if model.location_mode != bundle.location_mode:
        raise AxisMismatchError(
            f"artifact location mode {model.location_mode!r} != {bundle.location_mode!r}"
        )


# -- evaluation ------------------------------------------------------------------

@dataclass(frozen=True)
class EvalRow:
    name: str
    kind: str
    rmse: float
    mae: float
    n_samples: int
    fold_rmse: tuple[float, ...] = ()


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[EvalRow, ...]
    anova: object = None  # AnovaResult when >= 2 models and >= 2 folds


def weekly_folds(epochs) -> list[np.ndarray]:
    """Indices grouped into contiguous 168-hour blocks from the first epoch."""
    base = epochs[0].hours_since_epoch
    buckets: dict[int, list[int]] = {}
    for i, e in enumerate(epochs):
        buckets.setdefault((e.hours_since_epoch - base) // HOURS_PER_FOLD, []).append(i)
    return [np.array(buckets[k], dtype=int) for k in sorted(buckets)]


def evaluate_models(named_models, bundle: FeatureBundle) -> EvalReport:
    """RMSE/MAE per model on the bundle, plus across-model ANOVA over
    per-fold RMSE populations when that comparison is meaningful."""
    if not named_models:
        raise DataError("nothing to evaluate")
    folds = weekly_folds(bundle.epochs)
    rows = []
    for name, model in named_models:
        pred = predict_model(model, bundle)
        total = rmse(pred, bundle.td)
        if not np.isfinite(total):  # finite but huge predictions square to inf
            raise DataError(f"{model_kind(model).name} artifact's errors overflow")
        fold_rmse = tuple(
            rmse(pred[idx], bundle.td[idx]) for idx in folds if idx.size >= 2
        )
        rows.append(
            EvalRow(
                name=name,
                kind=type(model).__name__,
                rmse=total,
                mae=mae(pred, bundle.td),
                n_samples=len(bundle.epochs),
                fold_rmse=fold_rmse,
            )
        )
    anova = None
    if len(rows) >= 2 and all(len(r.fold_rmse) >= 2 for r in rows):
        anova = anova_oneway([list(r.fold_rmse) for r in rows])
    return EvalReport(rows=tuple(rows), anova=anova)
