"""Command-line front end.

Subcommands: synth | ingest | gridmap | correlate | train | predict |
evaluate | sweep.  Configuration is an INI file with fixed sections, each
declared once as a frozen dataclass (``SECTIONS``; ``[model]`` by its
kind's config in ``models.KINDS``).  Every command reads and checks the
whole file first: unknown sections or keys, unparsable values and values
out of range are config errors, so a typo in a hyperparameter name can
never silently fall back to a default.

Exit codes: 0 ok, 2 config, 3 data, 4 numeric, 5 compatibility.  A
library warning is printed as one ``warning: <message>`` line on stderr
and leaves the exit code as it is.
"""
from __future__ import annotations

import argparse
import configparser
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import lasso, models, synth
from .artifacts import load_model, model_kind, save_model
from .errors import (
    AxisMismatchError,
    ConfigError,
    DataError,
    ElorantdError,
    NonFiniteLossError,
)
from .gridmap import (
    DEFAULT_BOX_PADDING_DEG,
    DEFAULT_CELLSIZE_DEG,
    DEFAULT_PATH_POINTS,
    assign_observations,
    export_gridmap_csv,
    idw_fill,
)
from .ingest import (
    DEFAULT_MIN_SAMPLES_PER_HOUR,
    aggregate_hourly,
    align_epochs,
    read_utf8,
    write_csv,
)
from .optim import MAX_ARRAY_CELLS, require_at_least
from .pipeline import (
    Corpus,
    build_features,
    evaluate_models,
    grid_around,
    holdout_split,
    load_corpus,
    mask_for_ranges,
    model_config,
    parse_range_list,
    predict_model,
    split_bundle,
    subset_in_ranges,
    train_model,
)
from .stats import pearson, select_factors
from .types import (
    ALL_FACTORS,
    EpochHour,
    FACTOR_PRESETS,
    FactorSet,
    GeoPoint,
    MetFactor,
    factor_set,
    parse_location_mode,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_COMPAT = 5

def _parse_factors(text: str) -> FactorSet:
    text = text.strip()
    if text in FACTOR_PRESETS:
        return FACTOR_PRESETS[text]
    if text == "all":
        return ALL_FACTORS
    columns = [c.strip() for c in text.split(",") if c.strip()]
    if not columns:
        raise ValueError("at least one factor is required")
    return factor_set(MetFactor.from_column(c) for c in columns)


def _fmt(value) -> str:
    return repr(float(value))


# [sweep] kind -> (grid of the LassoConfig field it varies, CSV format of a
# grid value, chart x label, log x axis)
SWEEP_AXES = {
    "alpha": (lasso.default_alpha_grid(), _fmt, "alpha (log scale)", True),
    "degree": (lasso.DEGREE_GRID, str, "polynomial degree m", False),
}


# -- INI sections: each key is a field, typed by models.section_config ----------

@dataclass(frozen=True)
class CorpusSection:
    dir: str | None = None
    min_samples_per_hour: int | None = None
    tx_lat: float | None = None
    tx_lon: float | None = None
    rx_lat: float | None = None
    rx_lon: float | None = None

    def __post_init__(self):
        if self.dir == "":
            raise ValueError("dir is empty")
        if self.min_samples_per_hour is not None:
            require_at_least(self, 1, "min_samples_per_hour")
        tx, rx = self._point("tx"), self._point("rx")
        if tx is not None and tx == rx:
            raise ValueError("transmitter and receiver coincide")

    def _point(self, end: str) -> GeoPoint | None:
        lat, lon = getattr(self, f"{end}_lat"), getattr(self, f"{end}_lon")
        if (lat is None) != (lon is None):
            raise ValueError(f"{end}_lat and {end}_lon are given together or not at all")
        return None if lat is None else GeoPoint(lat, lon)

    def tx_rx(self, corpus: Corpus) -> tuple[GeoPoint, GeoPoint]:
        """These tx and rx when both are given, else the corpus's scenario.meta's."""
        tx, rx = self._point("tx"), self._point("rx")
        return (tx, rx) if tx is not None and rx is not None else corpus.tx_rx()

    def min_samples(self, corpus: Corpus) -> int:
        """min_samples_per_hour if given, else the default capped at the corpus's rate."""
        if self.min_samples_per_hour is not None:
            return self.min_samples_per_hour
        rate = corpus.scenario.td_samples_per_hour if corpus.scenario else math.inf
        return min(DEFAULT_MIN_SAMPLES_PER_HOUR, rate)


@dataclass(frozen=True)
class FeaturesSection:
    factors: str | FactorSet = ALL_FACTORS  # a preset, all, or a comma list; held canonical
    location_mode: str = "path"
    l: int = DEFAULT_PATH_POINTS
    grid_cellsize: float = DEFAULT_CELLSIZE_DEG
    grid_padding: float = DEFAULT_BOX_PADDING_DEG

    def __post_init__(self):
        factors = self.factors
        object.__setattr__(self, "factors", _parse_factors(factors)
                           if isinstance(factors, str) else factor_set(factors))
        parse_location_mode(self.location_mode)
        if not 2 <= self.l <= MAX_ARRAY_CELLS:  # path points
            raise ValueError(f"l must lie in [2, {MAX_ARRAY_CELLS}], got {self.l!r}")
        require_at_least(self, 0, "grid_padding")
        require_at_least(self, 0, "grid_cellsize", strict=True)


@dataclass(frozen=True)
class SplitSection:
    train: str | tuple | None = None  # comma lists of START..END, held parsed
    test: str | tuple | None = None

    def __post_init__(self):
        for side in ("train", "test"):
            if isinstance(getattr(self, side), str):
                object.__setattr__(self, side, parse_range_list(getattr(self, side)))

    def select(self, bundle, side: str, use: str):
        """The bundle's epochs in the train or test ranges (side), which use
        requires; given both sides, they must not overlap and neither may be empty."""
        if getattr(self, side) is None:
            raise ConfigError(f"split.{side} is required for {use}")
        if self.train is not None and self.test is not None:
            return split_bundle(bundle, self.train, self.test)[side == "test"]
        return subset_in_ranges(bundle, getattr(self, side), side)


@dataclass(frozen=True)
class SynthSection:
    scenario: str = "default"  # default | cubic | path to a scenario.meta
    seed: int | None = None
    noise_sd_ns: float | None = None

    def __post_init__(self):
        if not self.scenario:
            raise ValueError("scenario is empty")
        require_at_least(self, 0, *(k for k in ("seed", "noise_sd_ns")
                                    if getattr(self, k) is not None))


@dataclass(frozen=True)
class CorrelateSection:
    r_min: float = 0.5
    p_max: float = 0.05

    def __post_init__(self):  # each test is written so that NaN fails it
        if not 0.0 <= self.r_min <= 1.0:
            raise ValueError(f"r_min must lie in [0, 1], got {self.r_min!r}")
        if not 0.0 < self.p_max <= 1.0:
            raise ValueError(f"p_max must lie in (0, 1], got {self.p_max!r}")


@dataclass(frozen=True)
class SweepSection:
    kind: str = "alpha"
    holdout_fraction: float = 0.25

    def __post_init__(self):
        if self.kind not in SWEEP_AXES:
            raise ValueError(f"kind must be alpha or degree, got {self.kind!r}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must lie in (0, 1), got {self.holdout_fraction!r}")


SECTIONS = {"corpus": CorpusSection, "features": FeaturesSection, "split": SplitSection,
            "synth": SynthSection, "correlate": CorrelateSection, "sweep": SweepSection}


@dataclass(frozen=True)
class RunSettings:
    """The checked config file: one field per section, and [model]'s name and
    its options typed against it; flags override these in the commands."""

    corpus: CorpusSection = CorpusSection()
    features: FeaturesSection = FeaturesSection()
    split: SplitSection = SplitSection()
    synth: SynthSection = SynthSection()
    correlate: CorrelateSection = CorrelateSection()
    sweep: SweepSection = SweepSection()
    model_name: str = "wlr_agrnn"
    model_options: dict = field(default_factory=dict)


def load_settings(config_path: str | None) -> RunSettings:
    """Read and check every section of the config file (defaults without one)."""
    if config_path is None:
        return RunSettings()
    path = Path(config_path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    # no DEFAULT section: its keys would reach every other section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(read_utf8(path), source=str(path))
    except (DataError, OSError, configparser.Error) as exc:  # each names the file
        raise ConfigError(str(exc)) from None
    raw = {section: dict(parser[section]) for section in parser.sections()}
    unknown = [section for section in raw if section not in SECTIONS and section != "model"]
    if unknown:
        raise ConfigError(f"{path}: unknown section [{unknown[0]}]")
    options = raw.get("model", {})
    name = options.pop("name", RunSettings.model_name)
    try:
        model = model_config(name, options)
        return RunSettings(
            **{section: models.section_config(config, section, raw.get(section, {}))
               for section, config in SECTIONS.items()},
            model_name=name,
            model_options={key: getattr(model, key) for key in options},
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _resolve_corpus(args, s: RunSettings) -> Corpus:
    directory = getattr(args, "corpus", None) or s.corpus.dir
    if directory is None:
        raise ConfigError("no corpus directory (use --corpus or corpus.dir)")
    if not Path(directory).is_dir():
        raise ConfigError(f"corpus.dir: no such directory {directory}")
    return load_corpus(directory)


def _bundle(args, s: RunSettings):
    corpus = _resolve_corpus(args, s)
    f = s.features
    return corpus, build_features(
        corpus, f.factors, f.location_mode, *s.corpus.tx_rx(corpus), l=f.l,
        min_samples=s.corpus.min_samples(corpus), cellsize=f.grid_cellsize,
        padding=f.grid_padding,
    )


# -- charts ------------------------------------------------------------------

def write_svg_line_chart(path, xs, ys, title, x_label, y_label, log_x=False) -> None:
    """Minimal self-contained SVG line chart (one series, axis labels)."""
    xs = [math.log10(v) for v in xs] if log_x else [float(v) for v in xs]
    ys = [float(v) for v in ys]
    width, height = 640, 400
    ml, mr, mt, mb = 70, 20, 40, 55
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return ml + (x - x_lo) / x_span * (width - ml - mr)

    def py(y):
        return height - mb - (y - y_lo) / y_span * (height - mt - mb)

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    dots = "".join(
        f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#1f6fb2"/>'
        for x, y in zip(xs, ys)
    )
    x_lo_label = f"{10 ** x_lo:.4g}" if log_x else f"{x_lo:.4g}"
    x_hi_label = f"{10 ** x_hi:.4g}" if log_x else f"{x_hi:.4g}"
    svg = f"""<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">
<rect width="{width}" height="{height}" fill="white"/>
<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-family="sans-serif" font-size="16">{title}</text>
<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>
<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>
<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="2"/>
{dots}
<text x="{ml}" y="{height - mb + 18}" text-anchor="middle" font-family="sans-serif" font-size="12">{x_lo_label}</text>
<text x="{width - mr}" y="{height - mb + 18}" text-anchor="middle" font-family="sans-serif" font-size="12">{x_hi_label}</text>
<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" font-family="sans-serif" font-size="13">{x_label}</text>
<text x="{ml - 8}" y="{height - mb}" text-anchor="end" font-family="sans-serif" font-size="12">{y_lo:.4g}</text>
<text x="{ml - 8}" y="{mt + 6}" text-anchor="end" font-family="sans-serif" font-size="12">{y_hi:.4g}</text>
<text x="18" y="{height / 2:.0f}" text-anchor="middle" font-family="sans-serif" font-size="13" transform="rotate(-90 18 {height / 2:.0f})">{y_label}</text>
</svg>
"""
    Path(path).write_text(svg, encoding="utf-8")


# -- subcommand handlers -------------------------------------------------------

def cmd_synth(args, s: RunSettings) -> int:
    scenario_name = args.scenario or s.synth.scenario
    if scenario_name == "default":
        cfg = synth.default_scenario_config()
    elif scenario_name == "cubic":
        cfg = synth.cubic_scenario_config()
    else:
        try:
            cfg = synth.load_scenario_config(scenario_name)
        except (OSError, DataError) as exc:  # each names the file
            raise ConfigError(f"synth.scenario: {exc}") from None
    # precedence: --seed flag, then [synth] seed, then the seed embedded
    # in the scenario (so regenerating from a meta file reproduces it)
    seed = args.seed if args.seed is not None else s.synth.seed
    overrides = {"seed": seed, "noise_sd_ns": s.synth.noise_sd_ns}
    try:  # ScenarioConfig range-checks cfg, and generation has no other input
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        scenario = synth.generate_scenario(cfg)
    except (DataError, ValueError) as exc:
        raise ConfigError(f"synth: {exc}") from None
    paths = synth.write_corpus(scenario, args.out)
    print(f"scenario: {scenario_name} (seed {cfg.seed})")
    print(f"stations: {len(scenario.registry.entries)}")
    print(f"epochs:   {len(scenario.epochs)} hourly "
          f"({scenario.epochs[0].isoformat()} .. {scenario.epochs[-1].isoformat()})")
    print(f"path:     {scenario.path_length_km:.2f} km, {cfg.l} sample points")
    for key in sorted(paths):
        print(f"wrote {paths[key]}")
    return EXIT_OK


def cmd_ingest(args, s: RunSettings) -> int:
    corpus = _resolve_corpus(args, s)
    min_samples = s.corpus.min_samples(corpus)
    hourly = aggregate_hourly(corpus.td_samples, min_samples)
    aligned = align_epochs(corpus.weather, hourly, s.features.factors, corpus.registry)
    print(f"stations:       {len(corpus.registry.entries)}")
    print(f"td samples:     {len(corpus.td_samples)}")
    print(f"td hours kept:  {len(hourly.epochs)} (>= {min_samples} samples each)")
    print(f"aligned epochs: {len(aligned.epochs)} "
          f"({aligned.epochs[0].isoformat()} .. {aligned.epochs[-1].isoformat()})")
    print(f"factors:        {', '.join(f.column for f in aligned.factors)}")
    if args.out:
        header = ["timestamp", "station_id"] + [f.column for f in aligned.factors] + ["td_ns"]
        rows = []
        for t, epoch in enumerate(aligned.epochs):
            for sidx, sid in enumerate(aligned.station_ids):
                rows.append(
                    [epoch.isoformat(), sid]
                    + [_fmt(v) for v in aligned.values[t, sidx]]
                    + [_fmt(aligned.td[t])]
                )
        write_csv(args.out, header, rows)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_gridmap(args, s: RunSettings) -> int:
    corpus = _resolve_corpus(args, s)
    tx, rx = s.corpus.tx_rx(corpus)
    try:
        factor = MetFactor.from_column(args.factor)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        epoch = EpochHour.parse(args.epoch)
    except ValueError as exc:
        raise ConfigError(f"--epoch: {exc}") from None
    spec = grid_around(tx, rx, s.features.grid_padding, s.features.grid_cellsize)
    partial = assign_observations(spec, corpus.registry, corpus.weather, epoch, factor)
    complete = idw_fill(partial)
    export_gridmap_csv(complete, args.out)
    print(f"grid: {spec.nrows} x {spec.ncols} cells "
          f"({partial.assigned_mask.sum()} assigned, factor {factor.column}, "
          f"epoch {epoch.isoformat()})")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_correlate(args, s: RunSettings) -> int:
    # screening mirrors a single observation point: the receiver's series,
    # whatever location mode [features] configures
    s = replace(s, features=replace(s.features, location_mode="receiver_only"))
    corpus, bundle = _bundle(args, s)
    series = bundle.tensor[:, 0, :]
    correlations = []
    for i, f in enumerate(bundle.factors):
        correlations.append(pearson(series[:, i], bundle.td, factor=f))
    selected = select_factors(correlations, r_min=s.correlate.r_min, p_max=s.correlate.p_max)
    rows = []
    for c in correlations:
        rows.append(
            [c.factor.column, _fmt(c.r), _fmt(c.p), str(c.factor in selected).lower()]
        )
        print(f"{c.factor.column:16s} r={c.r:+.4f}  p={c.p:.3g}  "
              f"{'selected' if c.factor in selected else '-'}")
    write_csv(args.out, ["factor", "r", "p", "selected"], rows)
    print(f"selected {len(selected)} of {len(correlations)} factors "
          f"(|r| >= {s.correlate.r_min}, p <= {s.correlate.p_max})")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_train(args, s: RunSettings) -> int:
    name = args.model or s.model_name
    options = dict(s.model_options)
    if args.seed is not None:
        options["seed"] = args.seed
    model_config(name, options)  # reject bad options before loading the corpus
    corpus, bundle = _bundle(args, s)
    train = s.split.select(bundle, "train", "training")
    model, trace = train_model(name, train, options)
    save_model(model, args.out)
    trace_path = args.trace or (str(args.out) + ".trace.csv")
    write_csv(
        trace_path,
        ["iteration", "loss"],
        [[str(i), _fmt(loss)] for i, loss in enumerate(trace.losses)],
    )
    print(f"model:   {name} on {len(train.epochs)} epochs "
          f"({train.n_locations} locations, {len(train.factors)} factors)")
    print(f"trace:   {trace.iterations} iterations, "
          f"final loss {trace.losses[-1]:.6g}, converged={trace.converged}")
    print(f"wrote {args.out}")
    print(f"wrote {trace_path}")
    return EXIT_OK


def cmd_predict(args, s: RunSettings) -> int:
    model = load_model(args.artifact)
    corpus, bundle = _bundle(args, s)
    if args.range:
        ranges = parse_range_list(args.range)
    elif s.split.test is not None:
        ranges = s.split.test
    else:
        raise ConfigError("no prediction range (use --range or split.test)")
    # an empty range still checks the artifact's axes, then writes the header alone
    subset = bundle.subset(mask_for_ranges(bundle.epochs, ranges))
    pred = predict_model(model, subset)
    rows = [[e.isoformat(), _fmt(v)] for e, v in zip(subset.epochs, pred)]
    write_csv(args.out, ["timestamp", "td_pred_ns"], rows)
    print(f"predicted {len(rows)} epochs with {model_kind(model).name} artifact")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_evaluate(args, s: RunSettings) -> int:
    named = []
    for path in args.artifacts:
        named.append((Path(path).stem, load_model(path)))
    corpus, bundle = _bundle(args, s)
    test = s.split.select(bundle, "test", "evaluation")
    report = evaluate_models(named, test)
    factors_label = "|".join(f.column for f in test.factors)
    rows = [[row.name, row.kind, factors_label, test.location_mode,
             _fmt(row.rmse), _fmt(row.mae), str(row.n_samples)] for row in report.rows]
    if report.anova is not None:
        rows += [["# one-way ANOVA across models over weekly-fold RMSE"],
                 ["f_statistic", "p_value", "df_between", "df_within"],
                 [_fmt(report.anova.f_statistic), _fmt(report.anova.p),
                  str(report.anova.df_between), str(report.anova.df_within)]]
    write_csv(args.out, ["model", "kind", "factors", "location_mode", "rmse_ns", "mae_ns",
                         "n_test_epochs"], rows)
    width = max(len(r.name) for r in report.rows)
    for row in report.rows:
        print(f"{row.name:{width}s}  rmse={row.rmse:10.4f} ns  mae={row.mae:10.4f} ns  "
              f"n={row.n_samples}")
    if report.anova is not None:
        print(f"anova: F={report.anova.f_statistic:.4f} p={report.anova.p:.4g} "
              f"over {len(report.rows[0].fold_rmse)} weekly folds")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sweep(args, s: RunSettings) -> int:
    kind = args.kind or s.sweep.kind
    grid, fmt, x_label, log_x = SWEEP_AXES[kind]
    if s.model_name != "lasso_mpr":
        raise ConfigError("sweeps require model.name = lasso_mpr")
    cfg = model_config(s.model_name, s.model_options)
    corpus, bundle = _bundle(args, s)
    if s.split.train is not None:
        bundle = subset_in_ranges(bundle, s.split.train, "train")
    fit, val = holdout_split(bundle, s.sweep.holdout_fraction)
    table = lasso.sweep(fit.flat, fit.td, val.flat, val.td, cfg, kind, grid)
    best = lasso.argmin_table(table)
    write_csv(args.out, [kind, "rmse_ns"], [[fmt(k), _fmt(v)] for k, v in table])
    if args.svg:
        write_svg_line_chart(
            args.svg,
            [k for k, _ in table],
            [v for _, v in table],
            title=f"validation RMSE vs {kind}",
            x_label=x_label,
            y_label="RMSE (ns)",
            log_x=log_x,
        )
        print(f"wrote {args.svg}")
    print(f"swept {len(table)} {kind} values on "
          f"{len(fit.epochs)}/{len(val.epochs)} fit/validation epochs")
    print(f"best {kind}: {best[0]} (rmse {best[1]:.4f} ns)")
    print(f"wrote {args.out}")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elorantd",
        description="eLoran/GPS time-difference estimation from meteorological "
                    "grid maps and terrain profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, corpus=True):
        p.add_argument("--config", help="INI run configuration")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        if corpus:
            p.add_argument("--corpus", help="corpus directory (overrides corpus.dir)")

    p = sub.add_parser("synth", help="generate a synthetic corpus directory")
    common(p, corpus=False)
    p.add_argument("--scenario", help="default | cubic | path to scenario.meta")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate and align a corpus")
    common(p)
    p.add_argument("--out", help="optional aligned-dataset CSV")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gridmap", help="build one factor/epoch IDW grid map")
    common(p)
    p.add_argument("--factor", required=True, help="factor column name")
    p.add_argument("--epoch", required=True, help="UTC hour, e.g. 2024-10-01T00:00:00Z")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_gridmap)

    p = sub.add_parser("correlate", help="factor-vs-TD correlation report")
    common(p)
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("train", help="train a model on the train split")
    common(p)
    p.add_argument("--model", help=f"one of {', '.join(models.MODEL_NAMES)}")
    p.add_argument("--out", required=True, help="output artifact JSON")
    p.add_argument("--trace", help="training-trace CSV (default <out>.trace.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict TD for an epoch range")
    common(p)
    p.add_argument("--artifact", required=True, help="trained model artifact")
    p.add_argument("--range", help="epoch range list, e.g. 2024-12-01..2024-12-08")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score artifacts on the test split")
    common(p)
    p.add_argument("--artifacts", nargs="+", required=True, help="artifact JSON files")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="hyperparameter sweep for lasso_mpr")
    common(p)
    p.add_argument("--kind", choices=tuple(SWEEP_AXES), help="sweep axis")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--svg", help="optional SVG line chart")
    p.set_defaults(func=cmd_sweep)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one line, without Python's file name and source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # puts the default showwarning back on return
        warnings.showwarning = _print_warning
        try:  # every command reads and checks the whole config file first
            return args.func(args, load_settings(args.config))
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except NonFiniteLossError as exc:
            print(f"numeric error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except AxisMismatchError as exc:
            print(f"compatibility error: {exc}", file=sys.stderr)
            return EXIT_COMPAT
        except (ElorantdError, OSError) as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
