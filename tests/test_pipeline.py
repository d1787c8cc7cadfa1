import dataclasses
import tracemalloc

import numpy as np
import pytest

from elorantd import baselines, models, pipeline
from elorantd.artifacts import load_model, save_model
from elorantd.errors import (
    AxisMismatchError,
    ConfigError,
    DataError,
    EmptyIntersectionError,
)
from elorantd.pipeline import (
    FeatureBundle,
    build_features,
    check_disjoint,
    evaluate_models,
    holdout_split,
    load_corpus,
    location_points,
    mask_for_ranges,
    model_config,
    parse_range_list,
    predict_model,
    split_bundle,
    train_model,
    weekly_folds,
)
from elorantd.features import PolyTermIndex
from elorantd.cli import SECTIONS, load_settings
from elorantd.models import option_types, section_config
from elorantd.optim import MAX_ARRAY_CELLS
from elorantd.types import ALL_FACTORS, FACTORS_7, EpochHour, GeoPoint, MetFactor, factor_set


@pytest.fixture(scope="module")
def corpus(small_corpus_dir):
    return load_corpus(small_corpus_dir)


@pytest.fixture(scope="module")
def rx_bundle(corpus, small_scenario):
    cfg = small_scenario.config
    return build_features(
        corpus, cfg.factors, "receiver_only", cfg.tx, cfg.rx,
        l=cfg.l, min_samples=1, cellsize=cfg.grid_cellsize, padding=cfg.grid_padding,
    )


def sub_bundle(bundle, t: int) -> FeatureBundle:
    mask = np.zeros(len(bundle.epochs), dtype=bool)
    mask[:t] = True
    return bundle.subset(mask)


# -- corpus loading -------------------------------------------------------------


def test_load_corpus_round_trips_scenario(corpus, small_scenario):
    assert corpus.registry == small_scenario.registry
    assert corpus.weather == small_scenario.weather
    assert corpus.dem == small_scenario.dem
    assert len(corpus.td_samples) == len(small_scenario.td_samples)
    cfg = small_scenario.config
    tx, rx = corpus.tx_rx()
    assert (tx.lat, tx.lon) == (cfg.tx.lat, cfg.tx.lon)
    assert (rx.lat, rx.lon) == (cfg.rx.lat, cfg.rx.lon)


def test_load_corpus_missing_file(tmp_path, small_corpus_dir):
    broken = tmp_path / "partial"
    broken.mkdir()
    for name in ("stations.csv", "weather.csv", "td.csv"):
        (broken / name).write_bytes((small_corpus_dir / name).read_bytes())
    with pytest.raises(DataError, match="dem.asc"):
        load_corpus(broken)


def test_tx_rx_requires_metadata(tmp_path, small_corpus_dir):
    bare = tmp_path / "bare"
    bare.mkdir()
    for name in ("stations.csv", "weather.csv", "td.csv", "dem.asc"):
        (bare / name).write_bytes((small_corpus_dir / name).read_bytes())
    loaded = load_corpus(bare)
    with pytest.raises(ConfigError, match="tx/rx"):
        loaded.tx_rx()


# -- feature construction --------------------------------------------------------


def test_path_features_reproduce_generator_tensor(corpus, small_scenario):
    cfg = small_scenario.config
    bundle = build_features(
        corpus, cfg.factors, "path", cfg.tx, cfg.rx,
        l=cfg.l, min_samples=1, cellsize=cfg.grid_cellsize, padding=cfg.grid_padding,
    )
    assert bundle.epochs == small_scenario.epochs
    assert bundle.n_locations == cfg.l
    np.testing.assert_array_equal(bundle.tensor, small_scenario.tensor.values)
    np.testing.assert_array_equal(bundle.elevations, small_scenario.profile)
    np.testing.assert_allclose(bundle.td, small_scenario.hourly_td, atol=1e-9)


def test_receiver_bundle_axes(rx_bundle, small_scenario):
    assert rx_bundle.n_locations == 1
    assert rx_bundle.flat.shape == (480, 3)
    assert rx_bundle.points == (small_scenario.config.rx,)


def test_stations_bundle_uses_registry_points(corpus, small_scenario):
    cfg = small_scenario.config
    bundle = build_features(
        corpus, cfg.factors, "stations", cfg.tx, cfg.rx,
        l=cfg.l, min_samples=1, cellsize=cfg.grid_cellsize, padding=cfg.grid_padding,
    )
    assert bundle.n_locations == 5
    expect = tuple(corpus.registry.location(sid) for sid in corpus.registry.ids)
    assert bundle.points == expect
    assert bundle.flat.shape == (len(bundle.epochs), 15)


def test_location_points_unknown_mode(corpus):
    with pytest.raises(ConfigError):
        location_points("everywhere", corpus, 4, GeoPoint(0, 0), GeoPoint(1, 1))


def test_flat_layout_is_location_major():
    tensor = np.arange(12, dtype=float).reshape(2, 3, 2)
    bundle = FeatureBundle(
        epochs=tuple(EpochHour.of(2024, 10, 1, h) for h in range(2)),
        factors=factor_set([MetFactor.TEMPERATURE, MetFactor.HUMIDITY]),
        location_mode="path",
        points=(GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(0, 2)),
        elevations=np.zeros(3),
        tensor=tensor,
        td=np.zeros(2),
    )
    np.testing.assert_array_equal(bundle.flat[0], np.arange(6.0))
    np.testing.assert_array_equal(bundle.flat[1], np.arange(6.0, 12.0))


def test_bundle_validates_axis_lengths():
    epochs = tuple(EpochHour.of(2024, 10, 1, h) for h in range(2))
    factors = factor_set([MetFactor.TEMPERATURE])
    good = dict(
        epochs=epochs, factors=factors, location_mode="receiver_only",
        points=(GeoPoint(0, 0),), elevations=np.zeros(1),
        tensor=np.zeros((2, 1, 1)), td=np.zeros(2),
    )
    FeatureBundle(**good)
    with pytest.raises(ValueError):
        FeatureBundle(**{**good, "tensor": np.zeros((3, 1, 1)), "td": np.zeros(3)})
    with pytest.raises(ValueError):
        FeatureBundle(**{**good, "td": np.zeros(5)})


# -- range parsing and splits ----------------------------------------------------


def test_parse_range_list_dates_and_hours():
    ranges = parse_range_list("2024-10-01..2024-12-01, 2025-01-20..2025-02-01")
    assert ranges == (
        (EpochHour.of(2024, 10, 1), EpochHour.of(2024, 12, 1)),
        (EpochHour.of(2025, 1, 20), EpochHour.of(2025, 2, 1)),
    )
    (hour_range,) = parse_range_list("2024-10-01T06:00Z..2024-10-01T09:00Z")
    assert hour_range == (EpochHour.of(2024, 10, 1, 6), EpochHour.of(2024, 10, 1, 9))


@pytest.mark.parametrize(
    "text",
    ["", "2024-10-01", "2024-12-01..2024-10-01", "x..y", "2024-10-01..2024-10-01"],
)
def test_parse_range_list_rejects(text):
    with pytest.raises(ConfigError):
        parse_range_list(text)


def test_mask_for_ranges_half_open():
    epochs = [EpochHour.of(2024, 10, 1, h) for h in range(6)]
    ranges = ((EpochHour.of(2024, 10, 1, 2), EpochHour.of(2024, 10, 1, 4)),)
    np.testing.assert_array_equal(
        mask_for_ranges(epochs, ranges), [False, False, True, True, False, False]
    )


def test_check_disjoint():
    tr = parse_range_list("2024-10-01..2024-11-01")
    check_disjoint(tr, parse_range_list("2024-11-01..2024-12-01"))  # touching is fine
    with pytest.raises(ConfigError, match="overlaps"):
        check_disjoint(tr, parse_range_list("2024-10-20..2024-11-05"))


def test_split_bundle(rx_bundle):
    train, test = split_bundle(
        rx_bundle,
        parse_range_list("2024-10-01..2024-10-08"),
        parse_range_list("2024-10-15..2024-10-18"),
    )
    assert len(train.epochs) == 7 * 24
    assert len(test.epochs) == 3 * 24
    assert train.epochs[0] == rx_bundle.epochs[0]
    assert test.epochs[0] == EpochHour.of(2024, 10, 15)
    # subset keeps the location axes intact
    assert train.points == rx_bundle.points
    assert train.tensor.shape == (168, 1, 3)


def test_split_bundle_empty_sides(rx_bundle):
    with pytest.raises(EmptyIntersectionError):
        split_bundle(rx_bundle, parse_range_list("2030-01-01..2030-02-01"),
                     parse_range_list("2024-10-15..2024-10-18"))
    with pytest.raises(EmptyIntersectionError):
        split_bundle(rx_bundle, parse_range_list("2024-10-01..2024-10-08"),
                     parse_range_list("2030-01-01..2030-02-01"))


def test_holdout_split(rx_bundle):
    head, tail = holdout_split(rx_bundle, fraction=0.25)
    assert len(head.epochs) == 360 and len(tail.epochs) == 120
    assert head.epochs[-1] < tail.epochs[0]
    with pytest.raises(DataError):
        holdout_split(sub_bundle(rx_bundle, 2), fraction=0.9)


# -- model dispatch ---------------------------------------------------------------


@pytest.mark.parametrize(
    "name,options",
    [
        ("lasso_mpr", {"degree": 2, "alpha": 0.5}),
        ("wlr_agrnn", {"max_iterations": 3, "hidden": 3}),
        ("bpnn", {"max_iterations": 3}),
        ("grnn", {}),
        ("moe", {"max_iterations": 3, "experts": 2}),
    ],
)
def test_train_model_dispatch(name, options, rx_bundle):
    bundle = sub_bundle(rx_bundle, 60)
    model, trace = train_model(name, bundle, {**options, "seed": 1})
    assert model.meta["n_train"] == 60
    assert model.meta["seed"] == 1
    assert len(trace.losses) >= 1
    pred = predict_model(model, bundle)
    assert pred.shape == (60,)
    assert np.isfinite(pred).all()


# options that keep each kind's fit small on 15 flat inputs
SMALL_OPTIONS = {"lasso_mpr": {"degree": 1}, "wlr_agrnn": {"max_iterations": 2},
                 "bpnn": {"max_iterations": 2}, "grnn": {},
                 "moe": {"max_iterations": 2, "experts": 2}}


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_train_model_labels_every_kind_and_a_round_trip_keeps_the_labels(
    name, corpus, small_scenario, tmp_path
):
    """stations mode and three factors differ from every model class's
    default labels, so only train_model can have set them."""
    cfg = small_scenario.config
    bundle = sub_bundle(build_features(
        corpus, cfg.factors, "stations", cfg.tx, cfg.rx,
        l=cfg.l, min_samples=1, cellsize=cfg.grid_cellsize, padding=cfg.grid_padding,
    ), 40)
    model, _ = train_model(name, bundle, {**SMALL_OPTIONS[name], "seed": 3})
    labels = (bundle.factors, "stations", {
        "train_start": bundle.epochs[0].isoformat(), "train_end": bundle.epochs[-1].isoformat(),
        "n_train": 40, "n_locations": 5, "seed": 3})
    assert (model.factors, model.location_mode, model.meta) == labels
    save_model(model, tmp_path / "model.json")
    again = load_model(tmp_path / "model.json")
    assert (again.factors, again.location_mode, again.meta) == labels


def test_train_model_unknown_name(rx_bundle):
    with pytest.raises(ConfigError, match="unknown model"):
        train_model("forest", sub_bundle(rx_bundle, 30))


_ADAM_DEFAULTS = dict(learning_rate=0.001, max_iterations=2000, tol=1e-8, patience=5, seed=0)


@pytest.mark.parametrize(
    "name,defaults",
    [
        ("lasso_mpr", dict(degree=3, alpha=0.5, tol=1e-8, max_sweeps=10000, seed=0)),
        ("wlr_agrnn", dict(hidden=8, learning_rate=0.001, max_iterations=200, tol=1e-6,
                           patience=5, elevation_mode="floored_normalized",
                           weight_scheme="uniform", sigma_tol=0.02, seed=0)),
        ("bpnn", dict(hidden=16, **_ADAM_DEFAULTS)),
        ("moe", dict(experts=4, expert_hidden=8, **_ADAM_DEFAULTS)),
        ("grnn", dict(sigma=None, seed=0)),
    ],
)
def test_model_options_and_defaults(name, defaults):
    """Each kind's [model] keys and their defaults, as the CLI documents them."""
    cfg = model_config(name)
    assert set(option_types(type(cfg))) == set(defaults)
    assert {key: getattr(cfg, key) for key in defaults} == defaults
    # INI strings take the field types
    typed = model_config(name, {key: str(value) for key, value in defaults.items()
                                if value is not None})
    assert typed == cfg


@pytest.mark.parametrize(
    "section,defaults",
    [
        ("corpus", dict(dir=None, min_samples_per_hour=None, tx_lat=None, tx_lon=None,
                        rx_lat=None, rx_lon=None)),
        ("features", dict(factors=ALL_FACTORS, location_mode="path", l=198,
                          grid_cellsize=0.01, grid_padding=0.05)),
        ("split", dict(train=None, test=None)),
        ("synth", dict(scenario="default", seed=None, noise_sd_ns=None)),
        ("correlate", dict(r_min=0.5, p_max=0.05)),
        ("sweep", dict(kind="alpha", holdout_fraction=0.25)),
    ],
)
def test_section_keys_and_defaults(section, defaults):
    """Each other INI section's keys and their defaults, as the CLI documents
    them; with the [model] name (default wlr_agrnn) every section is covered."""
    assert set(SECTIONS) == {"corpus", "features", "split", "synth", "correlate", "sweep"}
    config = SECTIONS[section]
    assert list(option_types(config)) == list(defaults)
    settings = load_settings(None)
    assert getattr(settings, section) == config() == config(**defaults)
    assert settings.model_name == "wlr_agrnn" and settings.model_options == {}
    # INI strings take the field types
    given = {key: str(value) for key, value in defaults.items() if value is not None}
    if "factors" in given:
        given["factors"] = "all"
    assert section_config(config, section, given) == config()


def test_path_tensor_over_the_cell_bound_is_refused_before_sampling(corpus, small_scenario,
                                                                    monkeypatch):
    """480 epochs x 10**6 points x 3 factors is over the cell bound."""
    monkeypatch.setattr(pipeline, "sample_path",
                        lambda *args: pytest.fail("the path was sampled"))
    cfg = small_scenario.config
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"480 epochs x 1000000 points .* {MAX_ARRAY_CELLS}"):
            build_features(corpus, cfg.factors, "path", cfg.tx, cfg.rx, l=10 ** 6, min_samples=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the other modes do not sample the path, so l does not bound them
    build_features(corpus, cfg.factors, "receiver_only", cfg.tx, cfg.rx, l=10 ** 6, min_samples=1)


@pytest.mark.parametrize("padding,cellsize", [(0.05, 1e-320), (1e300, 0.01), (1e308, 0.01)])
def test_grid_settings_over_the_cell_bound_are_config_errors(corpus, small_scenario,
                                                             padding, cellsize):
    cfg = small_scenario.config
    with pytest.raises(ConfigError, match="features.grid_cellsize/grid_padding"):
        build_features(corpus, cfg.factors, "receiver_only", cfg.tx, cfg.rx,
                       min_samples=1, cellsize=cellsize, padding=padding)


def test_lasso_design_size_guard_refuses_before_allocating(monkeypatch):
    """Path mode gives 198 x 7 = 1386 flat inputs; degree 3 would need
    term_count(1386, 3) + 1 = 445,673,614 design columns."""
    monkeypatch.setattr(
        PolyTermIndex, "build",
        classmethod(lambda cls, *args: pytest.fail("design index was built")),
    )
    t, l = 10, 198
    points = tuple(GeoPoint(36.0, 127.0 + 0.001 * j) for j in range(l))
    bundle = FeatureBundle(
        epochs=tuple(EpochHour.of(2024, 10, 1, h) for h in range(t)),
        factors=FACTORS_7,
        location_mode="path",
        points=points,
        elevations=np.zeros(l),
        tensor=np.zeros((t, l, len(FACTORS_7))),
        td=np.zeros(t),
    )
    with pytest.raises(ConfigError, match=r"1386 inputs at degree 3 needs 445673614"):
        train_model("lasso_mpr", bundle)


@pytest.mark.parametrize("name", ["lasso_mpr", "wlr_agrnn", "bpnn", "grnn", "moe"])
def test_train_model_rejects_unknown_options(name, rx_bundle):
    with pytest.raises(ConfigError, match="unknown .* option"):
        train_model(name, sub_bundle(rx_bundle, 30), {"bogus": 1})


def test_moe_slices_follow_station_groups(corpus, small_scenario):
    cfg = small_scenario.config
    bundle = build_features(
        corpus, cfg.factors, "stations", cfg.tx, cfg.rx,
        l=cfg.l, min_samples=1, cellsize=cfg.grid_cellsize, padding=cfg.grid_padding,
    )
    model, _ = train_model("moe", sub_bundle(bundle, 40), {"max_iterations": 2, "experts": 2})
    assert model.group_slices == baselines.default_group_slices(15, 2, n_locations=5)


# -- prediction and compatibility checks ------------------------------------------


def test_predict_model_factor_mismatch(corpus, small_scenario, rx_bundle):
    cfg = small_scenario.config
    two = build_features(
        corpus, factor_set([MetFactor.TEMPERATURE, MetFactor.HUMIDITY]),
        "receiver_only", cfg.tx, cfg.rx,
        l=cfg.l, min_samples=1, cellsize=cfg.grid_cellsize, padding=cfg.grid_padding,
    )
    model, _ = train_model("grnn", sub_bundle(rx_bundle, 30))
    with pytest.raises(AxisMismatchError, match="factors"):
        predict_model(model, two)


def test_predict_model_location_count_mismatch(corpus, small_scenario):
    cfg = small_scenario.config
    kw = dict(min_samples=1, cellsize=cfg.grid_cellsize, padding=cfg.grid_padding)
    wide = build_features(corpus, cfg.factors, "path", cfg.tx, cfg.rx, l=16, **kw)
    narrow = build_features(corpus, cfg.factors, "path", cfg.tx, cfg.rx, l=8, **kw)
    model, _ = train_model("wlr_agrnn", sub_bundle(wide, 30), {"max_iterations": 2})
    with pytest.raises(AxisMismatchError, match="locations"):
        predict_model(model, narrow)
    flat_model, _ = train_model("grnn", sub_bundle(wide, 30))
    with pytest.raises(AxisMismatchError, match="flat features"):
        predict_model(flat_model, narrow)


def test_predict_model_mode_mismatch(rx_bundle):
    model, _ = train_model("grnn", sub_bundle(rx_bundle, 30))
    disguised = dataclasses.replace(sub_bundle(rx_bundle, 30), location_mode="stations")
    with pytest.raises(AxisMismatchError, match="location mode"):
        predict_model(model, disguised)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_predict_model_refuses_non_finite_predictions(rx_bundle):
    """Finite but huge artifact weights that no fit writes overflow: a data
    error naming the kind, where inf predictions were returned."""
    model, _ = train_model("lasso_mpr", sub_bundle(rx_bundle, 30), {"degree": 1})
    beta = model.beta.copy()
    beta[1:3] = 1e308
    with pytest.raises(DataError, match=r"lasso_mpr artifact predicts \d+ non-finite values"):
        predict_model(dataclasses.replace(model, beta=beta), rx_bundle)


# -- evaluation --------------------------------------------------------------------


def test_weekly_folds_partition(rx_bundle):
    folds = weekly_folds(rx_bundle.epochs)
    assert len(folds) == 3  # 480 h = 168 + 168 + 144
    np.testing.assert_array_equal(np.concatenate(folds), np.arange(480))
    assert [len(f) for f in folds] == [168, 168, 144]


def test_weekly_folds_respect_gaps():
    epochs = [EpochHour.of(2024, 10, 1, h) for h in range(10)]
    epochs += [EpochHour.from_hours(epochs[0].hours_since_epoch + 400 + h) for h in range(5)]
    folds = weekly_folds(epochs)
    assert [len(f) for f in folds] == [10, 5]


def perfect_and_mean_models(bundle):
    """Trained on bundle: a GRNN whose tiny sigma gives each epoch only its
    own bank row, so it predicts TD exactly there, and a lasso whose huge
    alpha leaves only the intercept, the mean TD."""
    perfect, _ = train_model("grnn", bundle, {"sigma": 1e-6})
    mean_model, _ = train_model("lasso_mpr", bundle, {"degree": 1, "alpha": 1e12})
    return perfect, mean_model


def test_evaluate_perfect_and_constant_models(rx_bundle):
    bundle = sub_bundle(rx_bundle, 400)
    perfect, mean_model = perfect_and_mean_models(bundle)
    report = evaluate_models([("perfect", perfect), ("mean", mean_model)], bundle)
    by_name = {r.name: r for r in report.rows}
    assert by_name["perfect"].rmse == 0.0
    assert by_name["perfect"].mae == 0.0
    assert by_name["mean"].rmse == pytest.approx(float(bundle.td.std()), abs=1e-9)
    assert all(r.n_samples == 400 for r in report.rows)
    assert len(report.fold_edges) == len(by_name["mean"].fold_rmse)


def test_evaluate_identical_models_anova(rx_bundle):
    model, _ = train_model("grnn", sub_bundle(rx_bundle, 30))
    report = evaluate_models([("a", model), ("b", model)], rx_bundle)
    assert report.anova is not None
    assert report.anova.f_statistic == pytest.approx(0.0, abs=1e-12)
    assert report.anova.p == pytest.approx(1.0, abs=1e-12)


def test_evaluate_single_fold_skips_anova(rx_bundle):
    bundle = sub_bundle(rx_bundle, 100)  # < one week: a single RMSE fold
    model, _ = train_model("grnn", bundle)
    report = evaluate_models([("a", model), ("b", model)], bundle)
    assert report.anova is None
    assert all(len(r.fold_rmse) == 1 for r in report.rows)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_evaluate_refuses_overflowing_errors(rx_bundle):
    """A GRNN predicts a weighted mean of its stored TD, so a stored TD of
    1e306 ns gives finite predictions whose squared errors overflow."""
    model, _ = train_model("grnn", sub_bundle(rx_bundle, 30))
    huge = dataclasses.replace(model, y=np.full(30, 1e306))
    with pytest.raises(DataError, match="grnn artifact's errors overflow"):
        evaluate_models([("huge", huge)], rx_bundle)


def test_evaluate_requires_models(rx_bundle):
    with pytest.raises(DataError):
        evaluate_models([], rx_bundle)
