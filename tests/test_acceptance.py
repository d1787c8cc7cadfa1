"""End-to-end acceptance gate for the toolkit.

One test per criterion, run in order.  Each prints a single
``[criterion NN] PASS/FAIL`` line carrying the measured numbers (visible
under ``pytest -s`` and in the captured output of any failing run).
Heavyweight synthetic scenarios and trained models are memoised at module
level so the later criteria reuse the earlier work instead of re-running
minutes of training.
"""

import dataclasses
from functools import lru_cache

import numpy as np

from elorantd.baselines import grnn_predict_batch
from elorantd.cli import main
from elorantd.features import PolyTermIndex, Standardizer, poly_expand
from elorantd.gridmap import GridMap, GridSpec, idw_fill
from elorantd.lasso import (
    DEGREE_GRID,
    LassoConfig,
    argmin_table,
    descend,
    sweep,
)
from elorantd.pipeline import (
    FeatureBundle,
    parse_range_list,
    predict_model,
    split_bundle,
    train_model,
)
from elorantd.stats import (
    CorrelationResult,
    anova_oneway,
    f_sf,
    mae,
    pearson,
    rmse,
    select_factors,
    student_t_sf_two_sided,
)
from elorantd.synth import (
    cubic_scenario_config,
    default_scenario_config,
    generate_scenario,
    ols_oracle,
    write_corpus,
)
from elorantd.types import FACTORS_3, FACTORS_7, EpochHour, MetFactor, factor_set
from elorantd.wlr_agrnn import (
    agrnn_predict_batch,
    select_sigmas,
    transform_elevation,
    wrss_and_grads,
)
from tests.conftest import small_scenario_config
from tests.oracles import idw_combine, kernel_oracle, soft_threshold, wrss_loss
from tests.test_stats import F_TABLE, T_TABLE
from tests.test_wlr_agrnn import bank_of, toy_params

# Chronological split used by every scenario-level criterion: two training
# blocks bracketing a held-out mid-winter test block.
TRAIN_RANGES = "2024-10-01..2024-12-01,2025-01-20..2025-02-01"
TEST_RANGES = "2024-12-01..2025-01-20"

EPOCH0 = EpochHour.parse("2024-10-01T00:00:00Z")


def _verdict(n: int, ok: bool, label: str) -> None:
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} - {label}", flush=True)
    assert ok, f"criterion {n:02d}: {label}"


# -- shared scenario/model builders ---------------------------------------------


@lru_cache(maxsize=None)
def _default_scenario():
    return generate_scenario(default_scenario_config())


@lru_cache(maxsize=None)
def _cubic_scenario():
    return generate_scenario(cubic_scenario_config())


def _scenario_bundle(scn, factors, location_mode: str) -> FeatureBundle:
    """Feature bundle taken straight off a generated scenario's tensor."""
    factors = factor_set(factors)
    idx = [scn.config.factors.index(f) for f in factors]
    values = scn.tensor.values[:, :, idx]
    if location_mode == "receiver_only":
        return FeatureBundle(
            epochs=scn.epochs,
            factors=factors,
            location_mode=location_mode,
            points=(scn.path[-1],),
            elevations=scn.profile[-1:],
            tensor=values[:, -1:, :],
            td=scn.hourly_td,
        )
    return FeatureBundle(
        epochs=scn.epochs,
        factors=factors,
        location_mode=location_mode,
        points=scn.path,
        elevations=scn.profile,
        tensor=values,
        td=scn.hourly_td,
    )


def _split(bundle: FeatureBundle):
    return split_bundle(
        bundle, parse_range_list(TRAIN_RANGES), parse_range_list(TEST_RANGES)
    )


@lru_cache(maxsize=None)
def _headline_rmses() -> tuple[float, float]:
    """Held-out RMSE of the proposed model and the GRNN baseline, trained once
    on the default elevation-coupled scenario (criteria 5 and 10 share this)."""
    train_b, test_b = _split(_scenario_bundle(_default_scenario(), FACTORS_7, "path"))
    wlr, _ = train_model(
        "wlr_agrnn", train_b, {"learning_rate": 0.01, "max_iterations": 60, "seed": 0}
    )
    grnn, _ = train_model("grnn", train_b, {})
    return (
        rmse(test_b.td, predict_model(wlr, test_b)),
        rmse(test_b.td, predict_model(grnn, test_b)),
    )


# -- criterion 1: shared kernel identity -----------------------------------------


def test_criterion_01_kernel_identity_across_implementations():
    rng = np.random.default_rng(20241001)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        t = int(rng.integers(2, 13))
        bank = rng.normal(size=(d, t))
        y = 150.0 + 40.0 * rng.normal(size=t)
        sigma = float(rng.uniform(0.4, 2.5))
        query = bank[:, int(rng.integers(t))] + rng.normal(scale=0.3, size=d)
        via_agrnn = float(agrnn_predict_batch(query[:, None], bank, y, np.full(d, sigma))[0])
        via_grnn = float(grnn_predict_batch(query[None, :], bank.T, y, sigma)[0])
        via_oracle = kernel_oracle(query, bank, y, [sigma] * d)
        scale = max(1.0, abs(via_oracle))
        worst = max(
            worst,
            abs(via_agrnn - via_grnn) / scale,
            abs(via_agrnn - via_oracle) / scale,
        )
    _verdict(
        1,
        worst < 1e-12,
        f"tied-bandwidth AGRNN == GRNN == naive kernel oracle on 100 random banks, "
        f"worst relative deviation {worst:.2e} (cap 1e-12)",
    )


# -- criterion 2: inverse-distance mapping identities -----------------------------


def _partial_grid(spec: GridSpec, cells, values) -> GridMap:
    arr = np.full((spec.nrows, spec.ncols), np.nan)
    mask = np.zeros((spec.nrows, spec.ncols), dtype=bool)
    for (r, c), v in zip(cells, values):
        arr[r, c] = v
        mask[r, c] = True
    return GridMap(spec, MetFactor.TEMPERATURE, EPOCH0, arr, mask)


def test_criterion_02_idw_hand_value_exactness_bounds_linearity():
    combined = idw_combine([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
    hand_ok = abs(combined - 12.0 / 7.0) < 1e-9

    spec = GridSpec(lat_min=36.0, lat_max=36.1, lon_min=127.0, lon_max=127.1, cellsize=0.01)
    rng = np.random.default_rng(7)
    cells = list(
        dict.fromkeys(
            (int(r), int(c))
            for r, c in zip(
                rng.integers(0, spec.nrows, 8), rng.integers(0, spec.ncols, 8)
            )
        )
    )
    v1 = rng.uniform(-5.0, 30.0, len(cells))
    v2 = rng.uniform(-5.0, 30.0, len(cells))

    g1 = idw_fill(_partial_grid(spec, cells, v1))
    exact_ok = all(g1.values[r, c] == v1[k] for k, (r, c) in enumerate(cells))
    bounds_ok = bool(
        g1.values.min() >= v1.min() - 1e-12 and g1.values.max() <= v1.max() + 1e-12
    )

    g2 = idw_fill(_partial_grid(spec, cells, v2))
    mixed = idw_fill(_partial_grid(spec, cells, 2.5 * v1 - 1.25 * v2))
    linear_ok = np.allclose(
        mixed.values, 2.5 * g1.values - 1.25 * g2.values, rtol=1e-12, atol=1e-12
    )

    _verdict(
        2,
        hand_ok and exact_ok and bounds_ok and linear_ok,
        f"3-point hand value {combined:.9f} (want {12.0 / 7.0:.9f}); assigned cells "
        f"bit-exact, fill convex-bounded and linear in values on a 10x10 grid",
    )


# -- criterion 3: coordinate descent vs closed forms ------------------------------


def test_criterion_03_lasso_matches_ols_and_soft_threshold_forms():
    worst_beta = 0.0
    monotone_ok = True
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(80, 3))
        index = PolyTermIndex.build(3, 2)
        design = poly_expand(Standardizer.fit(x).transform(x), index)
        beta_true = rng.normal(scale=2.0, size=design.shape[1])
        y = design @ beta_true + 0.3 * rng.normal(size=80)

        (beta,), _ = descend(design, y, [0.0], tol=1e-12)
        expect = ols_oracle(design, y)
        worst_beta = max(
            worst_beta,
            float(np.max(np.abs(beta - expect)) / max(1.0, np.max(np.abs(expect)))),
        )
        _, traces = descend(design, y, [0.0, 3.0], tol=1e-14, max_sweeps=300)
        monotone_ok &= all(
            later <= earlier + 1e-9 * max(1.0, abs(earlier))
            for trace in traces for earlier, later in zip(trace.losses, trace.losses[1:])
        )
    ols_ok = worst_beta < 1e-6

    # one centered unit-norm feature plus intercept: the penalized optimum has
    # the closed form b1 = soft_threshold(x.y, alpha/2), b0 = mean(y)
    rng = np.random.default_rng(5)
    raw = rng.normal(size=50)
    xc = raw - raw.mean()
    xc /= np.linalg.norm(xc)
    y1 = 3.0 + 2.4 * xc + 0.1 * rng.normal(size=50)
    rho = float(xc @ y1)
    analytic_ok = True
    alphas = (0.0, 0.1, 1.5, abs(2.0 * rho), 10.0 * abs(rho))
    betas1, _ = descend(np.column_stack([np.ones(50), xc]), y1, alphas, tol=1e-14)
    for alpha, beta1 in zip(alphas, betas1):
        analytic_ok &= abs(beta1[1] - soft_threshold(rho, alpha / 2.0)) < 1e-9
        analytic_ok &= abs(beta1[0] - y1.mean()) < 1e-9

    _verdict(
        3,
        ols_ok and monotone_ok and analytic_ok,
        f"alpha=0 equals the normal-equations solution on 20 seeds (worst rel "
        f"{worst_beta:.2e}, cap 1e-6); objectives monotone per sweep; 1-D optimum "
        f"matches the soft-threshold closed form to 1e-9",
    )


# -- criterion 4: analytic gradients vs finite differences ------------------------


def test_criterion_04_wrss_gradients_match_finite_differences():
    eps = 1e-5
    worst_ratio = 0.0
    keys_ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = toy_params(rng, 3, 2)
        x = rng.normal(size=(3, 2, 3))
        y = 2.0 * rng.normal(size=3)
        h = transform_elevation(rng.uniform(5.0, 400.0, size=2))
        w = rng.uniform(0.5, 2.0, size=3)
        bank = bank_of(params, x, h)
        search = select_sigmas(bank, y, w)
        loss, grads, _ = wrss_and_grads(params, x, y, h, bank, search, w)

        # the nested-loop oracle at the sigmas the search picked, c held fixed
        def loss_at(p, sigmas=search.sigmas):
            return wrss_loss(p, x, y, h, sigmas, w)

        atol = 1e-7 * max(1.0, loss)
        # b1 and b2 get no gradient: a constant shift of the bank cancels
        keys_ok = keys_ok and [g.shape for g in grads] == [params.w1.shape, params.w2.shape]
        for name, grad in zip(("w1", "w2"), grads):
            arr = getattr(params, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                p_hi, p_lo = params.copy(), params.copy()
                getattr(p_hi, name)[idx] += eps
                getattr(p_lo, name)[idx] -= eps
                fd = (loss_at(p_hi) - loss_at(p_lo)) / (2.0 * eps)
                an = float(grad[idx])
                worst_ratio = max(worst_ratio, abs(an - fd) / (1e-4 * abs(fd) + atol))
    _verdict(
        4,
        keys_ok and worst_ratio <= 1.0,
        f"analytic w1/w2 loss gradients within rtol 1e-4 of central differences of the "
        f"nested-loop leave-one-out oracle on 10 random toys (worst scaled deviation {worst_ratio:.3f} of budget); "
        f"gradients for w1 and w2 only: {keys_ok}",
    )


# -- criterion 5: recovery of synthetic ground truth ------------------------------


def test_criterion_05_models_recover_truth_within_noise_budget():
    wlr_rmse, _ = _headline_rmses()

    train_b, test_b = _split(_scenario_bundle(_cubic_scenario(), FACTORS_3, "receiver_only"))
    model, _ = train_model("lasso_mpr", train_b, {"degree": 3, "alpha": 0.5})
    lasso_rmse = rmse(test_b.td, predict_model(model, test_b))

    cap = 1.25 * 10.0  # generator noise sd is 10 ns
    _verdict(
        5,
        wlr_rmse <= cap and lasso_rmse <= cap,
        f"held-out RMSE vs 10 ns truth noise: elevation-weighted kernel model "
        f"{wlr_rmse:.3f} ns, degree-3 polynomial on cubic recipe {lasso_rmse:.3f} ns "
        f"(cap {cap:.1f})",
    )


# -- criterion 6: sweep-curve shapes ----------------------------------------------


def test_criterion_06_sweep_curves_show_u_shape_and_cubic_argmin():
    scn = _cubic_scenario()

    # few fitting epochs against a rich degree-3 expansion makes the small-alpha
    # end overfit, so validation RMSE should dip and come back up
    tr7, te7 = _split(_scenario_bundle(scn, FACTORS_7, "receiver_only"))
    grid = tuple(sorted(set(np.logspace(-3, 2, 11)) | {0.5}))
    table = sweep(
        tr7.flat[:140], tr7.td[:140], te7.flat[:400], te7.td[:400],
        LassoConfig(degree=3), "alpha", grid,
    )
    values = [v for _, v in table]
    k = int(np.argmin(values))
    u_ok = values[0] > values[k] and values[-1] > values[k] and 0 < k < len(values) - 1

    tr3, te3 = _split(_scenario_bundle(scn, FACTORS_3, "receiver_only"))
    degree_table = sweep(
        tr3.flat[:400], tr3.td[:400], te3.flat[:400], te3.td[:400],
        LassoConfig(alpha=0.5), "degree", DEGREE_GRID,
    )
    best_degree = int(argmin_table(degree_table)[0])

    _verdict(
        6,
        u_ok and best_degree == 3,
        f"alpha sweep U-shaped (ends {values[0]:.1f}/{values[-1]:.1f} ns above "
        f"interior min {values[k]:.1f} ns at alpha={table[k][0]:.3g}); degree sweep "
        f"on a cubic target attains its minimum at m={best_degree}",
    )


# -- criterion 7: metric and statistics suite --------------------------------------


def test_criterion_07_metrics_and_statistics_reference_values():
    worst_t = max(abs(student_t_sf_two_sided(t, df) - p) for t, df, p in T_TABLE)
    worst_f = max(abs(f_sf(f, d1, d2) - p) for f, d1, d2, p in F_TABLE)
    tables_ok = worst_t < 1e-6 and worst_f < 1e-6

    rng = np.random.default_rng(99)
    order_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        scale = float(rng.uniform(0.5, 50.0))
        a = scale * rng.normal(size=n)
        b = scale * rng.normal(size=n)
        order_ok &= rmse(a, b) >= mae(a, b) - 1e-12

    x = rng.normal(size=200)
    y = 0.6 * x + rng.normal(size=200)
    base = pearson(x, y)
    flipped = pearson(3.5 * x - 2.0, -1.25 * y + 7.0)
    affine_ok = abs(flipped.r + base.r) < 1e-12 and abs(flipped.p - base.p) < 1e-9

    same = anova_oneway([[5.0, 6.0, 7.0]] * 3)
    hand = anova_oneway([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0]])
    anova_ok = (
        abs(same.f_statistic) < 1e-12
        and abs(same.p - 1.0) < 1e-12
        and abs(hand.f_statistic - 3.0) < 1e-9
        and abs(hand.p - 0.125) < 1e-9
    )

    _verdict(
        7,
        tables_ok and order_ok and affine_ok and anova_ok,
        f"64 t/F tail probabilities within 1e-6 (worst {max(worst_t, worst_f):.1e}); "
        f"RMSE >= MAE on 1000 draws; correlation affine-invariant; ANOVA F=0/p=1 on "
        f"identical groups and F={hand.f_statistic:.1f}, p={hand.p:.3f} on the hand example",
    )


# -- criterion 8: end-to-end determinism -------------------------------------------


def test_criterion_08_cli_chain_byte_identical_across_runs(tmp_path):
    cfg = dataclasses.replace(
        small_scenario_config(seed=23),
        duration_hours=96,
        station_count=4,
        td_samples_per_hour=4,
        l=12,
    )
    seed_dir = tmp_path / "seedcorpus"
    write_corpus(generate_scenario(cfg), seed_dir)
    meta = str(seed_dir / "scenario.meta")

    outputs = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        root.mkdir()
        corpus = root / "corpus"
        assert main(["synth", "--scenario", meta, "--out", str(corpus)]) == 0
        ini = root / "run.ini"
        ini.write_text(
            f"[corpus]\ndir = {corpus}\nmin_samples_per_hour = 1\n"
            "[features]\nfactors = 3\nlocation_mode = receiver_only\n"
            "[split]\ntrain = 2024-10-01..2024-10-03\ntest = 2024-10-03..2024-10-05\n"
            "[model]\nname = wlr_agrnn\nmax_iterations = 6\nhidden = 4\nseed = 5\n",
            encoding="utf-8",
        )
        aligned = root / "aligned.csv"
        assert main(["ingest", "--config", str(ini), "--out", str(aligned)]) == 0
        grid = root / "grid.csv"
        assert main([
            "gridmap", "--config", str(ini), "--factor", "temperature_c",
            "--epoch", "2024-10-02T00:00:00Z", "--out", str(grid),
        ]) == 0
        model = root / "model.json"
        trace = root / "trace.csv"
        assert main([
            "train", "--config", str(ini), "--out", str(model), "--trace", str(trace),
        ]) == 0
        report = root / "eval.csv"
        assert main([
            "evaluate", "--config", str(ini), "--artifacts", str(model),
            "--out", str(report),
        ]) == 0
        files = [
            corpus / "stations.csv", corpus / "weather.csv", corpus / "td.csv",
            corpus / "dem.asc", corpus / "scenario.meta",
            aligned, grid, model, trace, report,
        ]
        outputs.append([p.read_bytes() for p in files])

    _verdict(
        8,
        outputs[0] == outputs[1],
        "synth -> ingest -> gridmap -> train -> evaluate run twice from one seed: "
        "all 10 output files byte-identical",
    )


# -- criterion 9: factor screening -------------------------------------------------

# Published receiver-site correlation screen: (factor, r, p-band stand-in).
# Reported significance bands are encoded as representative p values
# (<0.001 -> 0.0005, <0.05 -> 0.04, >0.05 -> 0.06).
SCREENING_TABLE = [
    (MetFactor.PRESSURE, -0.72, 0.0005),
    (MetFactor.CLOUD_COVER, 0.60, 0.0005),
    (MetFactor.HUMIDITY, 0.51, 0.0005),
    (MetFactor.PRECIPITATION, -0.64, 0.06),
    (MetFactor.SNOW_DEPTH, -0.46, 0.04),
    (MetFactor.SUNSHINE, -0.46, 0.0005),
    (MetFactor.TEMPERATURE, 0.50, 0.0005),
    (MetFactor.VAPOR_PRESSURE, 0.71, 0.0005),
    (MetFactor.VISIBILITY, -0.68, 0.0005),
    (MetFactor.WIND_DIR, -0.17, 0.04),
    (MetFactor.WIND_SPEED, -0.52, 0.0005),
]


def test_criterion_09_screening_rule_selects_the_seven_factors():
    results = [CorrelationResult(f, r, p, 720) for f, r, p in SCREENING_TABLE]
    selected = select_factors(results, r_min=0.5, p_max=0.05)
    ok = len(selected) == 7 and set(selected) == set(FACTORS_7)
    _verdict(
        9,
        ok,
        "published correlation screen (|r| >= 0.5, p <= 0.05) keeps exactly the "
        f"seven-factor set: {', '.join(f.column for f in selected)}",
    )


# -- criterion 10: seeded ordering against the baseline -----------------------------


def test_criterion_10_proposed_model_beats_grnn_baseline():
    wlr_rmse, grnn_rmse = _headline_rmses()
    _verdict(
        10,
        wlr_rmse < grnn_rmse,
        f"held-out RMSE ordering at fixed seed: elevation-weighted kernel model "
        f"{wlr_rmse:.3f} ns < GRNN baseline {grnn_rmse:.3f} ns",
    )
