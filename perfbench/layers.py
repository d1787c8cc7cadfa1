"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are named after the library's modules.  ``types``, ``errors`` and
``optim`` do no separately timeable work (Adam steps fall into WLR self
time), so they have no targets.  ``synth`` runs only in the set-up child,
which times it itself.
"""
from __future__ import annotations

import os

from spans import (
    Target,
    Tracer,
    function_summary,
    layer_summary,
    self_times,
    top_level_seconds,
)

LAYERS = (
    "ingest", "gridmap", "features", "stats", "wlr", "baselines",
    "lasso", "artifacts", "pipeline", "cli",
)


def _td_rows(tr: Tracer, args, kwargs, samples) -> None:
    tr.count("ingest.td_rows", len(samples))


def _hours(tr: Tracer, args, kwargs, hourly) -> None:
    samples = args[0] if args else kwargs["samples"]
    if len(samples):
        first, last = samples[0][0], samples[-1][0]
        spanned = int((last.replace(minute=0, second=0, microsecond=0)
                       - first.replace(minute=0, second=0, microsecond=0)
                       ).total_seconds() // 3600) + 1
        tr.count("ingest.hours_spanned", spanned)
    tr.count("ingest.hours_kept", len(hourly.epochs))


def _aligned(tr: Tracer, args, kwargs, aligned) -> None:
    tr.count("ingest.aligned_epochs", len(aligned.epochs))


def _tensor(tr: Tracer, args, kwargs, tensor) -> None:
    tr.count("gridmap.tensor_mb", tensor.values.nbytes / 1e6)


def _wlr_train(tr: Tracer, args, kwargs, result) -> None:
    model, trace = result
    tr.count("wlr.iterations", trace.iterations)
    tr.count("wlr.bank_mb", model.bank.nbytes / 1e6)


def _lasso_train(tr: Tracer, args, kwargs, result) -> None:
    tr.count("lasso.design_cols", result[0].beta.size)


def _cd(tr: Tracer, args, kwargs, result) -> None:
    tr.count("lasso.cd_sweeps", result[1].iterations)
    tr.count("lasso.converged", 1 if result[1].converged else 0)


def _holdout(tr: Tracer, args, kwargs, result) -> None:
    fit, val = result
    tr.count("work.t_fit", len(fit.epochs))
    tr.count("work.t_validation", len(val.epochs))
    tr.count("work.l", fit.n_locations)
    tr.count("work.n", len(fit.factors))


def _saved(tr: Tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.count("artifacts.bytes", os.path.getsize(path))


TARGETS = (
    Target("elorantd.ingest", "parse_station_registry", "ingest.parse_station_registry"),
    Target("elorantd.ingest", "parse_weather_csv", "ingest.parse_weather_csv"),
    Target("elorantd.ingest", "parse_td_csv", "ingest.parse_td_csv", _td_rows),
    Target("elorantd.ingest", "parse_dem", "ingest.parse_dem"),
    Target("elorantd.ingest", "aggregate_hourly", "ingest.aggregate_hourly", _hours),
    Target("elorantd.ingest", "align_epochs", "ingest.align_epochs", _aligned),
    Target("elorantd.gridmap", "sample_path", "gridmap.sample_path"),
    Target("elorantd.gridmap", "build_path_tensor", "gridmap.build_path_tensor", _tensor),
    Target("elorantd.gridmap", "elevation_profile", "gridmap.elevation_profile"),
    Target("elorantd.gridmap", "assign_observations", "gridmap.assign_observations"),
    Target("elorantd.gridmap", "idw_fill", "gridmap.idw_fill"),
    Target("elorantd.gridmap", "export_gridmap_csv", "gridmap.export_gridmap_csv"),
    Target("elorantd.features", "poly_expand", "features.poly_expand"),
    Target("elorantd.stats", "rmse", "stats.rmse"),
    Target("elorantd.stats", "mae", "stats.mae"),
    Target("elorantd.stats", "anova_oneway", "stats.anova_oneway"),
    Target("elorantd.wlr_agrnn", "train", "wlr.train", _wlr_train),
    Target("elorantd.wlr_agrnn", "select_sigmas", "wlr.select_sigmas"),
    Target("elorantd.wlr_agrnn", "wrss_and_grads", "wlr.wrss_and_grads"),
    Target("elorantd.wlr_agrnn", "WlrAgrnnModel.predict_batch", "wlr.predict_batch"),
    Target("elorantd.baselines", "train_grnn", "baselines.train_grnn"),
    Target("elorantd.baselines", "grnn_predict_batch", "baselines.grnn_predict"),
    Target("elorantd.lasso", "sweep_alpha", "lasso.sweep_alpha"),
    Target("elorantd.lasso", "train", "lasso.train", _lasso_train),
    Target("elorantd.lasso", "coordinate_descent", "lasso.coordinate_descent", _cd),
    Target("elorantd.artifacts", "save_model", "artifacts.save_model", _saved),
    Target("elorantd.artifacts", "load_model", "artifacts.load_model"),
    Target("elorantd.pipeline", "load_corpus", "pipeline.load_corpus"),
    Target("elorantd.pipeline", "build_features", "pipeline.build_features"),
    Target("elorantd.pipeline", "split_bundle", "pipeline.split_bundle"),
    Target("elorantd.pipeline", "holdout_split", "pipeline.holdout_split", _holdout),
    Target("elorantd.pipeline", "train_model", "pipeline.train_model"),
    Target("elorantd.pipeline", "predict_model", "pipeline.predict_model"),
    Target("elorantd.pipeline", "evaluate_models", "pipeline.evaluate_models"),
    Target("elorantd.cli", "main", "cli.main"),
)

# metric name -> span name whose outermost-call seconds it reports
FUNCTION_SECONDS = {
    "ingest.parse_td_s": "ingest.parse_td_csv",
    "ingest.parse_weather_s": "ingest.parse_weather_csv",
    "ingest.parse_dem_s": "ingest.parse_dem",
    "ingest.aggregate_hourly_s": "ingest.aggregate_hourly",
    "ingest.align_epochs_s": "ingest.align_epochs",
    "gridmap.build_path_tensor_s": "gridmap.build_path_tensor",
    "gridmap.elevation_profile_s": "gridmap.elevation_profile",
    "gridmap.idw_fill_s": "gridmap.idw_fill",
    "features.poly_expand_s": "features.poly_expand",
    "wlr.train_s": "wlr.train",
    "wlr.select_sigmas_s": "wlr.select_sigmas",
    "wlr.wrss_and_grads_s": "wlr.wrss_and_grads",
    "wlr.predict_batch_s": "wlr.predict_batch",
    "baselines.train_grnn_s": "baselines.train_grnn",
    "baselines.grnn_predict_s": "baselines.grnn_predict",
    "lasso.train_s": "lasso.train",
    "artifacts.save_s": "artifacts.save_model",
    "artifacts.load_s": "artifacts.load_model",
    "pipeline.split_s": "pipeline.split_bundle",
    "pipeline.predict_model_s": "pipeline.predict_model",
    "pipeline.evaluate_models_s": "pipeline.evaluate_models",
}

FUNCTION_CALLS = {
    "wlr.select_sigmas_calls": "wlr.select_sigmas",
    "wlr.wrss_and_grads_calls": "wlr.wrss_and_grads",
    "lasso.train_calls": "lasso.train",
}

COUNTERS = (
    "ingest.td_rows", "ingest.aligned_epochs", "gridmap.tensor_mb", "wlr.iterations",
    "wlr.bank_mb", "lasso.cd_sweeps", "lasso.design_cols", "artifacts.bytes",
)


def traced_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer numbers from one traced pass of a chain.

    A layer or function that did not run reports 0 (absent).
    """
    spans = tracer.spans
    layers = layer_summary(spans)
    calls = function_summary(spans)
    counters = tracer.counters
    out: dict[str, float] = {}
    for layer in LAYERS:
        row = layers.get(layer, {"busy_s": 0.0, "calls": 0.0, "self_s": 0.0})
        out[f"{layer}.busy_s"] = row["busy_s"]
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.share"] = row["busy_s"] / wall_s if wall_s else 0.0
    for metric, name in FUNCTION_SECONDS.items():
        out[metric] = calls.get(name, (0.0, 0))[0]
    for metric, name in FUNCTION_CALLS.items():
        out[metric] = calls.get(name, (0.0, 0))[1]
    for key in COUNTERS:
        out[key] = counters.get(key, 0.0)
    # design_cols is summed per train call; report the width of one design
    n_train = out["lasso.train_calls"]
    out["lasso.design_cols"] = out["lasso.design_cols"] / n_train if n_train else 0.0
    spanned = counters.get("ingest.hours_spanned", 0.0)
    out["ingest.hours_kept_ratio"] = (
        counters.get("ingest.hours_kept", 0.0) / spanned if spanned else 0.0
    )
    # time inside wlr.train outside its traced callees: forward pass,
    # elevation weighting and the Adam steps
    out["wlr.train_self_s"] = sum(
        own for span, own in zip(spans, self_times(spans)) if span.name == "wlr.train"
    )
    iters = out["wlr.iterations"]
    out["wlr.s_per_iteration"] = out["wlr.train_s"] / iters if iters else 0.0
    sweeps = out["lasso.cd_sweeps"]
    cd_s = calls.get("lasso.coordinate_descent", (0.0, 0))[0]
    out["lasso.ms_per_sweep"] = 1e3 * cd_s / sweeps if sweeps else 0.0
    out["lasso.converged_ratio"] = (
        counters.get("lasso.converged", 0.0) / n_train if n_train else 0.0
    )
    attributed = top_level_seconds(spans)
    out["trace.spans"] = float(len(spans))
    out["trace.unattributed_s"] = wall_s - attributed
    out["trace.unattributed_share"] = (wall_s - attributed) / wall_s if wall_s else 0.0
    return out


def layer_unit(key: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if key.endswith((".share", "_ratio", "_share")):
        return "ratio"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("ms_per_sweep"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    if key == "artifacts.bytes":
        return "bytes"
    return "count"
