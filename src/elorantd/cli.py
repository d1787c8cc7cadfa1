"""Command-line front end.

Subcommands: synth | ingest | gridmap | correlate | train | predict |
evaluate | sweep.  Configuration is an INI file with fixed sections;
unknown sections or keys are hard errors so a typo in a hyperparameter
name can never silently fall back to a default.

Exit codes: 0 ok, 2 config, 3 data, 4 numeric, 5 compatibility.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import lasso, models, synth
from .artifacts import artifact_kind, load_model, save_model
from .errors import (
    AxisMismatchError,
    ConfigError,
    ElorantdError,
    EmptyIntersectionError,
    NonFiniteLossError,
)
from .gridmap import GridSpec, assign_observations, export_gridmap_csv, idw_fill
from .ingest import DEFAULT_MIN_SAMPLES_PER_HOUR, aggregate_hourly, align_epochs
from .optim import require_at_least
from .pipeline import (
    Corpus,
    build_features,
    evaluate_models,
    holdout_split,
    load_corpus,
    mask_for_ranges,
    model_config,
    parse_range_list,
    predict_model,
    split_bundle,
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
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_COMPAT = 5

_CONFIG_SCHEMA = {
    "corpus": {"dir", "min_samples_per_hour", "tx_lat", "tx_lon", "rx_lat", "rx_lon"},
    "features": {"factors", "location_mode", "l", "grid_cellsize", "grid_padding"},
    "split": {"train", "test"},
    "model": {"name"}.union(*(models.option_types(models.KINDS[m].config)
                              for m in models.MODEL_NAMES)),
    "synth": {"scenario", "seed", "noise_sd_ns"},
    "correlate": {"r_min", "p_max"},
    "sweep": {"kind", "holdout_fraction"},
}


@dataclass
class RunSettings:
    """Merged configuration: defaults < config file < command-line flags."""

    corpus_dir: Path | None = None
    min_samples: int | None = None
    tx: GeoPoint | None = None
    rx: GeoPoint | None = None
    factors: FactorSet = ALL_FACTORS
    location_mode: str = "path"
    l: int = 198
    grid_cellsize: float = 0.01
    grid_padding: float = 0.05
    train_ranges: tuple | None = None
    test_ranges: tuple | None = None
    model_name: str = "wlr_agrnn"
    model_options: dict = field(default_factory=dict)
    scenario: str = "default"
    synth_seed: int | None = None
    noise_sd_ns: float | None = None
    r_min: float = 0.5
    p_max: float = 0.05
    sweep_kind: str = "alpha"
    holdout_fraction: float = 0.25


def _parse_factors(text: str) -> FactorSet:
    text = text.strip()
    if text in FACTOR_PRESETS:
        return FACTOR_PRESETS[text]
    if text == "all":
        return ALL_FACTORS
    try:
        return factor_set(
            MetFactor.from_column(c.strip()) for c in text.split(",") if c.strip()
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"features.factors: {exc}") from None


def load_settings(config_path: str | None) -> RunSettings:
    s = RunSettings()
    if config_path is None:
        return s
    path = Path(config_path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        allowed = _CONFIG_SCHEMA[section]
        for key in parser[section]:
            if key not in allowed:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
    get = parser.get

    def has(section, key):
        return parser.has_option(section, key)

    try:
        if has("corpus", "dir"):
            s.corpus_dir = Path(get("corpus", "dir"))
        if has("corpus", "min_samples_per_hour"):
            s.min_samples = int(get("corpus", "min_samples_per_hour"))
        if has("corpus", "tx_lat") or has("corpus", "tx_lon"):
            s.tx = GeoPoint(float(get("corpus", "tx_lat")), float(get("corpus", "tx_lon")))
        if has("corpus", "rx_lat") or has("corpus", "rx_lon"):
            s.rx = GeoPoint(float(get("corpus", "rx_lat")), float(get("corpus", "rx_lon")))
        if has("features", "factors"):
            s.factors = _parse_factors(get("features", "factors"))
        if has("features", "location_mode"):
            s.location_mode = get("features", "location_mode").strip()
        if has("features", "l"):
            s.l = int(get("features", "l"))
        if has("features", "grid_cellsize"):
            s.grid_cellsize = float(get("features", "grid_cellsize"))
        if has("features", "grid_padding"):
            s.grid_padding = float(get("features", "grid_padding"))
        if has("split", "train"):
            s.train_ranges = parse_range_list(get("split", "train"))
        if has("split", "test"):
            s.test_ranges = parse_range_list(get("split", "test"))
        if parser.has_section("model"):  # options are typed by pipeline.model_config
            s.model_options = dict(parser["model"])
            s.model_name = s.model_options.pop("name", s.model_name).strip()
        if has("synth", "scenario"):
            s.scenario = get("synth", "scenario").strip()
        if has("synth", "seed"):
            s.synth_seed = int(get("synth", "seed"))
        if has("synth", "noise_sd_ns"):
            s.noise_sd_ns = float(get("synth", "noise_sd_ns"))
        if has("correlate", "r_min"):
            s.r_min = float(get("correlate", "r_min"))
        if has("correlate", "p_max"):
            s.p_max = float(get("correlate", "p_max"))
        if has("sweep", "kind"):
            s.sweep_kind = get("sweep", "kind").strip()
        if has("sweep", "holdout_fraction"):
            s.holdout_fraction = float(get("sweep", "holdout_fraction"))
        require_at_least(s, 2, "l")  # path points
        require_at_least(s, 0, "grid_padding")
        require_at_least(s, 0, "grid_cellsize", strict=True)
        # each test is written so that NaN fails it
        if not 0.0 < s.holdout_fraction < 1.0:
            raise ValueError(
                f"sweep.holdout_fraction must lie in (0, 1), got {s.holdout_fraction!r}"
            )
        if not 0.0 <= s.r_min <= 1.0:
            raise ValueError(f"correlate.r_min must lie in [0, 1], got {s.r_min!r}")
        if not 0.0 < s.p_max <= 1.0:
            raise ValueError(f"correlate.p_max must lie in (0, 1], got {s.p_max!r}")
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return s


def _resolve_corpus(args, s: RunSettings) -> Corpus:
    directory = getattr(args, "corpus", None) or s.corpus_dir
    if directory is None:
        raise ConfigError("no corpus directory (use --corpus or corpus.dir)")
    if not Path(directory).is_dir():
        raise ConfigError(f"corpus.dir: no such directory {directory}")
    return load_corpus(directory)


def _resolve_tx_rx(corpus: Corpus, s: RunSettings) -> tuple[GeoPoint, GeoPoint]:
    if s.tx is not None and s.rx is not None:
        return s.tx, s.rx
    return corpus.tx_rx()


def _resolve_min_samples(corpus: Corpus, s: RunSettings) -> int:
    if s.min_samples is not None:
        return s.min_samples
    if corpus.meta and "td_samples_per_hour" in corpus.meta:
        return min(DEFAULT_MIN_SAMPLES_PER_HOUR, int(corpus.meta["td_samples_per_hour"]))
    return DEFAULT_MIN_SAMPLES_PER_HOUR


def _bundle(args, s: RunSettings, factors: FactorSet | None = None):
    corpus = _resolve_corpus(args, s)
    tx, rx = _resolve_tx_rx(corpus, s)
    bundle = build_features(
        corpus,
        factors if factors is not None else s.factors,
        s.location_mode,
        tx,
        rx,
        l=s.l,
        min_samples=_resolve_min_samples(corpus, s),
        cellsize=s.grid_cellsize,
        padding=s.grid_padding,
    )
    return corpus, bundle


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    return repr(float(value))


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

def cmd_synth(args) -> int:
    s = load_settings(args.config)
    scenario_name = args.scenario or s.scenario
    if scenario_name == "default":
        cfg = synth.default_scenario_config()
    elif scenario_name == "cubic":
        cfg = synth.cubic_scenario_config()
    else:
        meta_path = Path(scenario_name)
        if not meta_path.is_file():
            raise ConfigError(f"synth.scenario: no such file {meta_path}")
        try:
            cfg = synth.load_scenario_config(meta_path)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"synth.scenario: {meta_path}: {exc}") from None
    # precedence: --seed flag, then [synth] seed, then the seed embedded
    # in the scenario (so regenerating from a meta file reproduces it)
    seed = args.seed if args.seed is not None else s.synth_seed
    overrides = {}
    if seed is not None:
        overrides["seed"] = int(seed)
    if s.noise_sd_ns is not None:
        overrides["noise_sd_ns"] = s.noise_sd_ns
    if overrides:
        try:  # ScenarioConfig range-checks the seed and the noise
            cfg = replace(cfg, **overrides)
        except ValueError as exc:
            raise ConfigError(f"synth: {exc}") from None
    scenario = synth.generate_scenario(cfg)
    paths = synth.write_corpus(scenario, args.out)
    print(f"scenario: {scenario_name} (seed {cfg.seed})")
    print(f"stations: {len(scenario.registry.entries)}")
    print(f"epochs:   {len(scenario.epochs)} hourly "
          f"({scenario.epochs[0].isoformat()} .. {scenario.epochs[-1].isoformat()})")
    print(f"path:     {scenario.path_length_km:.2f} km, {cfg.l} sample points")
    for key in sorted(paths):
        print(f"wrote {paths[key]}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    s = load_settings(args.config)
    corpus = _resolve_corpus(args, s)
    min_samples = _resolve_min_samples(corpus, s)
    hourly = aggregate_hourly(corpus.td_samples, min_samples)
    aligned = align_epochs(corpus.weather, hourly, s.factors, corpus.registry)
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
        _write_csv(args.out, header, rows)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_gridmap(args) -> int:
    s = load_settings(args.config)
    corpus = _resolve_corpus(args, s)
    tx, rx = _resolve_tx_rx(corpus, s)
    try:
        factor = MetFactor.from_column(args.factor)
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    try:
        epoch = EpochHour.parse(args.epoch)
    except ValueError as exc:
        raise ConfigError(f"--epoch: {exc}") from None
    spec = GridSpec.around(tx, rx, s.grid_padding, s.grid_cellsize)
    partial = assign_observations(spec, corpus.registry, corpus.weather, epoch, factor)
    complete = idw_fill(partial)
    export_gridmap_csv(complete, args.out)
    print(f"grid: {spec.nrows} x {spec.ncols} cells "
          f"({partial.assigned_mask.sum()} assigned, factor {factor.column}, "
          f"epoch {epoch.isoformat()})")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_correlate(args) -> int:
    s = load_settings(args.config)
    corpus, bundle = _bundle(args, s)
    # receiver-site series: correlation screening mirrors a single
    # observation point, so collapse the location axis by its last entry
    # (receiver end) when a multi-point mode is configured
    series = bundle.tensor[:, -1, :]
    correlations = []
    for i, f in enumerate(bundle.factors):
        correlations.append(pearson(series[:, i], bundle.td, factor=f))
    selected = select_factors(correlations, r_min=s.r_min, p_max=s.p_max)
    rows = []
    for c in correlations:
        rows.append(
            [c.factor.column, _fmt(c.r), _fmt(c.p), str(c.factor in selected).lower()]
        )
        print(f"{c.factor.column:16s} r={c.r:+.4f}  p={c.p:.3g}  "
              f"{'selected' if c.factor in selected else '-'}")
    _write_csv(args.out, ["factor", "r", "p", "selected"], rows)
    print(f"selected {len(selected)} of {len(correlations)} factors "
          f"(|r| >= {s.r_min}, p <= {s.p_max})")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    s = load_settings(args.config)
    name = args.model or s.model_name
    options = dict(s.model_options)
    if args.seed is not None:
        options["seed"] = args.seed
    model_config(name, options)  # reject bad options before loading the corpus
    corpus, bundle = _bundle(args, s)
    if s.train_ranges is None:
        raise ConfigError("split.train is required for training")
    train_mask = mask_for_ranges(bundle.epochs, s.train_ranges)
    if s.test_ranges is not None:
        # enforce overlap hygiene even though only the train side is used
        split_bundle(bundle, s.train_ranges, s.test_ranges)
    if not train_mask.any():
        raise EmptyIntersectionError("no aligned epoch falls in the train ranges")
    train = bundle.subset(train_mask)
    model, trace = train_model(name, train, options)
    save_model(model, args.out)
    trace_path = args.trace or (str(args.out) + ".trace.csv")
    _write_csv(
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


def cmd_predict(args) -> int:
    s = load_settings(args.config)
    model = load_model(args.artifact)
    corpus, bundle = _bundle(args, s)
    if args.range:
        ranges = parse_range_list(args.range)
    elif s.test_ranges is not None:
        ranges = s.test_ranges
    else:
        raise ConfigError("no prediction range (use --range or split.test)")
    mask = mask_for_ranges(bundle.epochs, ranges)
    subset = bundle.subset(mask)
    header = ["timestamp", "td_pred_ns"]
    if not mask.any():
        _write_csv(args.out, header, [])
        print("0 epochs in range; wrote header-only CSV")
        print(f"wrote {args.out}")
        return EXIT_OK
    pred = predict_model(model, subset)
    rows = [[e.isoformat(), _fmt(v)] for e, v in zip(subset.epochs, pred)]
    _write_csv(args.out, header, rows)
    print(f"predicted {len(rows)} epochs with {artifact_kind(args.artifact)} artifact")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    s = load_settings(args.config)
    named = []
    for path in args.artifacts:
        named.append((Path(path).stem, load_model(path)))
    corpus, bundle = _bundle(args, s)
    if s.test_ranges is None:
        raise ConfigError("split.test is required for evaluation")
    if s.train_ranges is not None:
        split_bundle(bundle, s.train_ranges, s.test_ranges)
    mask = mask_for_ranges(bundle.epochs, s.test_ranges)
    if not mask.any():
        raise EmptyIntersectionError("no aligned epoch falls in the test ranges")
    test = bundle.subset(mask)
    report = evaluate_models(named, test)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["model", "kind", "factors", "location_mode", "rmse_ns", "mae_ns", "n_test_epochs"]
        )
        factors_label = "|".join(f.column for f in test.factors)
        for row in report.rows:
            writer.writerow(
                [row.name, row.kind, factors_label, test.location_mode,
                 _fmt(row.rmse), _fmt(row.mae), str(row.n_samples)]
            )
        if report.anova is not None:
            fh.write("# one-way ANOVA across models over weekly-fold RMSE\n")
            writer.writerow(["f_statistic", "p_value", "df_between", "df_within"])
            writer.writerow(
                [_fmt(report.anova.f_statistic), _fmt(report.anova.p),
                 str(report.anova.df_between), str(report.anova.df_within)]
            )
    width = max(len(r.name) for r in report.rows)
    for row in report.rows:
        print(f"{row.name:{width}s}  rmse={row.rmse:10.4f} ns  mae={row.mae:10.4f} ns  "
              f"n={row.n_samples}")
    if report.anova is not None:
        print(f"anova: F={report.anova.f_statistic:.4f} p={report.anova.p:.4g} "
              f"over {len(report.rows[0].fold_rmse)} weekly folds")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    s = load_settings(args.config)
    kind = args.kind or s.sweep_kind
    if kind not in ("alpha", "degree"):
        raise ConfigError(f"sweep kind must be alpha or degree, got {kind!r}")
    if s.model_name != "lasso_mpr":
        raise ConfigError("sweeps require model.name = lasso_mpr")
    cfg = model_config(s.model_name, s.model_options)
    corpus, bundle = _bundle(args, s)
    if s.train_ranges is not None:
        mask = mask_for_ranges(bundle.epochs, s.train_ranges)
        if not mask.any():
            raise EmptyIntersectionError("no aligned epoch falls in the train ranges")
        bundle = bundle.subset(mask)
    fit, val = holdout_split(bundle, s.holdout_fraction)
    if kind == "alpha":
        table = lasso.sweep_alpha(
            fit.flat, fit.td, val.flat, val.td, bundle.factors,
            degree=cfg.degree, location_mode=bundle.location_mode,
            tol=cfg.tol, max_sweeps=cfg.max_sweeps,
        )
        header = ["alpha", "rmse_ns"]
        log_x = True
        x_label = "alpha (log scale)"
    else:
        table = lasso.sweep_degree(
            fit.flat, fit.td, val.flat, val.td, bundle.factors,
            alpha=cfg.alpha, location_mode=bundle.location_mode,
            tol=cfg.tol, max_sweeps=cfg.max_sweeps,
        )
        header = ["degree", "rmse_ns"]
        log_x = False
        x_label = "polynomial degree m"
    best = lasso.argmin_table(table)
    rows = [[_fmt(k) if kind == "alpha" else str(k), _fmt(v)] for k, v in table]
    _write_csv(args.out, header, rows)
    if args.svg:
        write_svg_line_chart(
            args.svg,
            [k for k, _ in table],
            [v for _, v in table],
            title=f"validation RMSE vs {header[0]}",
            x_label=x_label,
            y_label="RMSE (ns)",
            log_x=log_x,
        )
        print(f"wrote {args.svg}")
    print(f"swept {len(table)} {header[0]} values on "
          f"{len(fit.epochs)}/{len(val.epochs)} fit/validation epochs")
    print(f"best {header[0]}: {best[0]} (rmse {best[1]:.4f} ns)")
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
    p.add_argument("--kind", choices=("alpha", "degree"), help="sweep axis")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--svg", help="optional SVG line chart")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
