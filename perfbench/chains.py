"""The timed chain of each workload and the checks on its output.

Each chain calls the library only through its public entry points
(``pipeline.*``, ``artifacts.*``, ``gridmap.*`` and ``cli.main``), as a
user would, and times the stages it needs for the end-to-end metrics.
Checks run after the chain, outside its timing, and are of two kinds:

- gates: the program computed what it claims (exact references, artifact
  round trips, oracle agreement).  A failed gate is a failed operation: it
  counts in ``failed`` and makes the run exit non-zero.
- quality targets: model accuracy against the generator's 10 ns noise.
  Whether they hold depends on the synthetic world a seed draws, so a miss
  is reported (stderr, ``quality.targets_missed``) but fails nothing.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from elorantd import artifacts, cli, gridmap, pipeline
from elorantd.features import term_count
from elorantd.types import FACTORS_7, EpochHour

from corpus import Plan
from layers import TARGETS
from spans import Tracer, function_summary

RMSE_TARGET_NS = 12.5  # 1.25 x the generator's 10 ns noise
REFERENCE_TOL = 1e-9
RELOAD_REL_TOL = 1e-9
ORACLE_REL_TOL = 1e-3
ALPHA_GRID_POINTS = 27


@dataclass
class Context:
    plan: Plan
    corpus_dir: Path
    refs_path: Path
    work_dir: Path


@dataclass
class Rep:
    """One pass of a chain: timings, work sizes, and gate outcomes."""

    wall_s: float = 0.0
    features_s: float = 0.0
    values: dict[str, float] = field(default_factory=dict)
    work: dict[str, int] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    gates: dict[str, bool] = field(default_factory=dict)
    gate_notes: dict[str, str] = field(default_factory=dict)
    quality: dict[str, bool] = field(default_factory=dict)
    quality_notes: dict[str, str] = field(default_factory=dict)

    def gate(self, name: str, ok: bool, note: str = "") -> None:
        self.attempted += 1
        self.gates[name] = bool(ok)
        if not ok:
            self.gate_notes[name] = note

    def target(self, name: str, ok: bool, note: str = "") -> None:
        self.quality[name] = bool(ok)
        if not ok:
            self.quality_notes[name] = note

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.gates.values())


def _features(ctx: Context, rep: Rep, min_samples: int):
    t0 = time.perf_counter()
    corpus = pipeline.load_corpus(ctx.corpus_dir)
    tx, rx = corpus.tx_rx()
    bundle = pipeline.build_features(
        corpus, FACTORS_7, "path", tx, rx, min_samples=min_samples
    )
    rep.features_s = time.perf_counter() - t0
    rep.attempted += 2
    return corpus, bundle


def features_pass(ctx: Context) -> float:
    """One more timed load_corpus + build_features, configured as the chain's."""
    plan = ctx.plan
    mode = "receiver_only" if plan.workload == "lasso_sweep" else "path"
    # the CLI's own choice: the default, capped at the corpus's sampling rate
    min_samples = min(pipeline.DEFAULT_MIN_SAMPLES_PER_HOUR, plan.td_samples_per_hour)
    t0 = time.perf_counter()
    corpus = pipeline.load_corpus(ctx.corpus_dir)
    tx, rx = corpus.tx_rx()
    pipeline.build_features(corpus, FACTORS_7, mode, tx, rx, min_samples=min_samples)
    return time.perf_counter() - t0


def _windows(bundle, hours: int, stride: int = 24) -> list:
    t = len(bundle.epochs)
    out = []
    for start in range(0, max(t - hours, 0) + 1, stride):
        mask = np.zeros(t, dtype=bool)
        mask[start:start + hours] = True
        out.append(bundle.subset(mask))
    return out


def wlr_path(ctx: Context, rep: Rep, tracer: Tracer | None = None) -> None:
    plan = ctx.plan
    t0 = time.perf_counter()
    _, bundle = _features(ctx, rep, min_samples=plan.td_samples_per_hour)
    train_b, test_b = pipeline.split_bundle(
        bundle, pipeline.parse_range_list(plan.train), pipeline.parse_range_list(plan.test)
    )
    t1 = time.perf_counter()
    wlr, wlr_trace = pipeline.train_model(
        "wlr_agrnn", train_b,
        {"learning_rate": 0.01, "max_iterations": plan.wlr_iterations, "tol": 0.0, "seed": 0},
    )
    t2 = time.perf_counter()
    grnn, _ = pipeline.train_model("grnn", train_b)
    t3 = time.perf_counter()
    artifact = ctx.work_dir / "wlr_agrnn.json"
    artifacts.save_model(wlr, artifact)
    reloaded = artifacts.load_model(artifact)
    windows = _windows(test_b, plan.predict_window_hours)
    for i in range(plan.predict_requests):
        s = time.perf_counter()
        pipeline.predict_model(reloaded, windows[i % len(windows)])
        rep.latencies_s.append(time.perf_counter() - s)
    report = pipeline.evaluate_models([("wlr_agrnn", reloaded), ("grnn", grnn)], test_b)
    rep.wall_s = time.perf_counter() - t0
    rep.attempted += 7 + plan.predict_requests

    wlr_rmse, grnn_rmse = report.rows[0].rmse, report.rows[1].rmse
    rep.values.update(
        wlr_train_s=t2 - t1,
        grnn_train_s=t3 - t2,
        artifact_mb=artifact.stat().st_size / 1e6,
        wlr_rmse_ns=wlr_rmse,
        grnn_rmse_ns=grnn_rmse,
    )
    rep.work.update(
        t_train=len(train_b.epochs), t_test=len(test_b.epochs),
        l=train_b.n_locations, n=len(train_b.factors),
        wlr_iterations=wlr_trace.iterations,
    )
    rep.target("wlr_rmse_within_noise", wlr_rmse <= RMSE_TARGET_NS,
               f"wlr rmse {wlr_rmse:.4f} ns > {RMSE_TARGET_NS}")
    rep.target("wlr_beats_grnn", wlr_rmse < grnn_rmse,
               f"wlr {wlr_rmse:.4f} ns >= grnn {grnn_rmse:.4f} ns")
    rep.gate("evaluation_finite",
             all(math.isfinite(r.rmse) and r.n_samples == len(test_b.epochs)
                 for r in report.rows),
             "evaluate_models returned a non-finite RMSE or skipped epochs")
    rep.gate("anova_present", report.anova is not None and math.isfinite(report.anova.p),
             "evaluate_models returned no finite ANOVA")
    rep.gate("reloaded_artifact_bit_identical", _same_model(wlr, reloaded),
             "a reloaded array or scalar differs from the in-memory model")
    # The in-memory bank is a transposed view and the reloaded one is
    # C-contiguous, so BLAS may sum in another order: predictions are held
    # to 1e-9 relative and their largest difference is reported.
    diff = 0.0
    for k in sorted({0, len(windows) // 2, len(windows) - 1}):
        a = pipeline.predict_model(wlr, windows[k])
        b = pipeline.predict_model(reloaded, windows[k])
        diff = max(diff, float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1.0))))
    rep.values["reload_pred_rel_diff"] = diff
    rep.gate("reloaded_predictions_match", diff <= RELOAD_REL_TOL,
             f"reloaded predictions differ by {diff:.3g} relative")


def _same_model(a, b) -> bool:
    fields = ("h_tilde", "sigmas", "bank", "y", "w")
    params = ("w1", "b1", "w2")
    return (
        all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)
        and all(np.array_equal(getattr(a.params, f), getattr(b.params, f)) for f in params)
        and a.params.b2 == b.params.b2
        and np.array_equal(a.standardizer.mean, b.standardizer.mean)
        and np.array_equal(a.standardizer.sd, b.standardizer.sd)
    )


def ingest_1hz(ctx: Context, rep: Rep, tracer: Tracer | None = None) -> None:
    plan = ctx.plan
    t0 = time.perf_counter()
    corpus, bundle = _features(ctx, rep, min_samples=pipeline.DEFAULT_MIN_SAMPLES_PER_HOUR)
    tx, rx = corpus.tx_rx()
    spec = gridmap.GridSpec.around(tx, rx)
    epoch = EpochHour.parse(plan.gridmap_epoch)
    grids = []
    for factor in FACTORS_7:
        partial = gridmap.assign_observations(spec, corpus.registry, corpus.weather, epoch, factor)
        complete = gridmap.idw_fill(partial)
        gridmap.export_gridmap_csv(complete, ctx.work_dir / f"grid_{factor.column}.csv")
        grids.append(complete)
    rep.wall_s = time.perf_counter() - t0
    rep.attempted += 3 * len(FACTORS_7)
    rep.work.update(t_train=len(bundle.epochs), l=bundle.n_locations, n=len(bundle.factors))

    refs = np.load(ctx.refs_path)
    got_hours = np.array([e.hours_since_epoch for e in bundle.epochs])
    want_hours = refs["epoch_hours"]
    every_hour = got_hours.shape == want_hours.shape and np.array_equal(got_hours, want_hours)
    rep.gate("every_hour_aligned", every_hour,
             f"{got_hours.size} of {want_hours.size} generated hours survived alignment")
    if every_hour:
        td_err = float(np.max(np.abs(bundle.td - refs["hourly_td"])))
        tensor_err = float(np.max(np.abs(bundle.tensor - refs["tensor"])))
    else:
        td_err = tensor_err = math.inf
    rep.gate("hourly_td_matches_reference", td_err <= REFERENCE_TOL,
             f"max |hourly td - reference| = {td_err:.3g} ns")
    rep.gate("path_tensor_matches_reference", tensor_err <= REFERENCE_TOL,
             f"max |path tensor - reference| = {tensor_err:.3g}")
    rep.gate("grid_maps_finite", all(np.isfinite(g.values).all() for g in grids),
             "a filled grid map has non-finite cells")


SWEEP_INI = """\
[corpus]
dir = {corpus}

[features]
factors = 7
location_mode = receiver_only

[split]
train = {train}

[model]
name = lasso_mpr
degree = {degree}
"""


def write_sweep_config(ctx: Context) -> Path:
    path = ctx.work_dir / "sweep.ini"
    path.write_text(
        SWEEP_INI.format(corpus=ctx.corpus_dir, train=ctx.plan.train,
                         degree=ctx.plan.lasso_degree),
        encoding="utf-8",
    )
    return path


# stopwatches the untraced sweep needs: features_s and the sweep count
SWEEP_STOPWATCH = tuple(
    t for t in TARGETS
    if t.name in ("pipeline.load_corpus", "pipeline.build_features",
                  "pipeline.holdout_split", "lasso.coordinate_descent")
)


def lasso_sweep(ctx: Context, rep: Rep, tracer: Tracer | None = None) -> None:
    ini = ctx.work_dir / "sweep.ini"
    out_csv = ctx.work_dir / "alphas.csv"
    out_svg = ctx.work_dir / "alphas.svg"
    own = tracer is None
    if own:
        tracer = Tracer("stopwatch")
        tracer.install(SWEEP_STOPWATCH)
    sink = io.StringIO()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["sweep", "--config", str(ini), "--kind", "alpha",
                             "--out", str(out_csv), "--svg", str(out_svg)])
        rep.wall_s = time.perf_counter() - t0
    finally:
        if own:
            tracer.uninstall()
    calls = function_summary(tracer.spans)
    rep.features_s = sum(
        calls.get(name, (0.0, 0))[0]
        for name in ("pipeline.load_corpus", "pipeline.build_features")
    )
    rep.attempted += 1

    rows = []
    if code == 0 and out_csv.is_file():
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
    rmses = [float(r[1]) for r in rows if len(r) == 2]
    best = min(rmses) if rmses else math.inf
    rep.values["sweep_best_rmse_ns"] = best
    counters = tracer.counters
    rep.work.update(
        t_train=int(counters.get("work.t_fit", 0)),
        t_test=int(counters.get("work.t_validation", 0)),
        l=int(counters.get("work.l", 0)),
        n=int(counters.get("work.n", 0)),
        cd_sweeps=int(counters.get("lasso.cd_sweeps", 0)),
        lasso_cols=_lasso_cols(ctx.plan.lasso_degree),
    )
    rep.gate("sweep_exit_zero", code == 0,
             f"sweep exited {code}: {sink.getvalue().strip()[-300:]}")
    rep.gate("sweep_table_complete",
             len(rmses) == ALPHA_GRID_POINTS and all(math.isfinite(v) for v in rmses),
             f"{len(rmses)} rows, expected {ALPHA_GRID_POINTS} finite")
    # the smallest alpha is all but unpenalised, so its validation RMSE
    # must match the least-squares oracle's
    oracle = float(np.load(ctx.refs_path)["ols_validation_rmse"])
    first = rmses[0] if rmses else math.inf
    rep.gate("sweep_matches_ols_oracle", abs(first - oracle) <= ORACLE_REL_TOL * oracle,
             f"smallest-alpha rmse {first:.6f} ns vs least-squares oracle {oracle:.6f} ns")
    rep.target("sweep_best_within_noise", best <= RMSE_TARGET_NS,
               f"best rmse {best:.4f} ns > {RMSE_TARGET_NS}")


def _lasso_cols(degree: int) -> int:
    return term_count(len(FACTORS_7), degree) + 1  # + intercept


CHAINS = {"wlr_path": wlr_path, "ingest_1hz": ingest_1hz, "lasso_sweep": lasso_sweep}
