import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from elorantd.artifacts import decode, encode
from elorantd.errors import DataError
from elorantd.ingest import (
    aggregate_hourly,
    parse_dem,
    parse_station_registry,
    parse_td_csv,
    parse_weather_csv,
)
from elorantd.stats import pearson
from elorantd.optim import MAX_ARRAY_CELLS
from elorantd.synth import (
    SCENARIO_LAYOUT,
    DemConfig,
    GroundTruthRecipe,
    ScenarioConfig,
    WeatherParams,
    cubic_scenario_config,
    default_scenario_config,
    generate_scenario,
    load_scenario_config,
    ols_oracle,
    write_corpus,
)
from elorantd.types import (
    ALL_FACTORS,
    FACTORS_3,
    EpochHour,
    MetFactor,
    factor_set,
    validate_factor_value,
)
from elorantd.wlr_agrnn import transform_elevation
from tests.oracles import hourly_value, kernel_oracle


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        seed=11,
        duration_hours=96,
        station_count=4,
        l=12,
        factors=FACTORS_3,
        td_samples_per_hour=6,
        noise_sd_ns=2.0,
        recipe=GroundTruthRecipe(
            base_ns=100.0,
            linear_ns={MetFactor.TEMPERATURE: 2.0, MetFactor.PRESSURE: -1.0},
        ),
        dem=DemConfig(cellsize=0.05, hills=4),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# -- generation ---------------------------------------------------------------


def test_same_seed_reproduces_scenario_exactly():
    a = generate_scenario(tiny_config())
    b = generate_scenario(tiny_config())
    assert a.registry == b.registry
    assert a.weather == b.weather
    assert a.td_samples == b.td_samples
    np.testing.assert_array_equal(a.dem.values, b.dem.values)
    np.testing.assert_array_equal(a.hourly_td, b.hourly_td)


def test_different_seed_changes_data():
    a = generate_scenario(tiny_config())
    b = generate_scenario(dataclasses.replace(tiny_config(), seed=12))
    assert not np.array_equal(a.hourly_td, b.hourly_td)
    assert a.registry != b.registry


def test_default_config_dimensions():
    cfg = default_scenario_config()
    assert cfg.duration_hours == 2952  # 123 days x 24 h, Oct 1 through Jan 31
    assert cfg.station_count == 10
    assert cfg.l == 198
    assert len(cfg.factors) == 11


def test_generated_weather_within_validated_ranges():
    scenario = generate_scenario(tiny_config(duration_hours=48))
    weather = scenario.weather
    assert weather.station_ids == scenario.registry.ids
    np.testing.assert_array_equal(weather.hours, [e.hours_since_epoch for e in scenario.epochs])
    generated = [f in FACTORS_3 for f in ALL_FACTORS]
    np.testing.assert_array_equal(weather.present, np.broadcast_to(generated, weather.present.shape))
    for i, f in enumerate(FACTORS_3):
        column = weather.values[:, :, ALL_FACTORS.index(f)]
        np.testing.assert_array_equal(validate_factor_value(f, column), column)


def test_td_equals_truth_plus_noise_in_distribution():
    cfg = tiny_config(duration_hours=600, noise_sd_ns=5.0)
    scenario = generate_scenario(cfg)
    resid = scenario.hourly_td - scenario.hourly_truth
    assert abs(float(resid.mean())) < 1.0
    assert float(resid.std()) == pytest.approx(5.0, rel=0.15)


def test_noiseless_linear_recipe_correlates_with_driver():
    cfg = tiny_config(
        noise_sd_ns=0.0,
        duration_hours=240,
        recipe=GroundTruthRecipe(
            base_ns=0.0,
            linear_ns={MetFactor.TEMPERATURE: 3.0},
            receiver_only=True,
        ),
    )
    scenario = generate_scenario(cfg)
    temp_col = list(scenario.tensor.factors).index(MetFactor.TEMPERATURE)
    driver = scenario.tensor.values[:, -1, temp_col]
    result = pearson(driver, scenario.hourly_td)
    assert abs(result.r) >= 0.99


def test_receiver_only_recipe_is_scaled_receiver_series():
    cfg = tiny_config(
        noise_sd_ns=0.0,
        recipe=GroundTruthRecipe(
            linear_ns={MetFactor.TEMPERATURE: 3.0}, receiver_only=True
        ),
    )
    scenario = generate_scenario(cfg)
    temp_col = list(scenario.tensor.factors).index(MetFactor.TEMPERATURE)
    expect = 3.0 * scenario.tensor.values[:, -1, temp_col]
    np.testing.assert_allclose(scenario.hourly_truth, expect, rtol=1e-12)


def test_zero_recipe_gives_zero_truth():
    scenario = generate_scenario(tiny_config(recipe=GroundTruthRecipe(), noise_sd_ns=0.0))
    np.testing.assert_array_equal(scenario.hourly_truth, 0.0)
    np.testing.assert_array_equal(scenario.hourly_td, 0.0)


def test_dem_independence_without_elevation_coupling():
    """Zero elevation gain: a different DEM must not move the TD series."""
    cfg = tiny_config()
    assert cfg.recipe.elevation_gain == 0.0
    a = generate_scenario(cfg)
    b = generate_scenario(
        dataclasses.replace(cfg, dem=DemConfig(cellsize=0.04, base_m=500.0, hills=2))
    )
    assert not np.array_equal(a.dem.values, b.dem.values)
    np.testing.assert_array_equal(a.hourly_td, b.hourly_td)
    np.testing.assert_array_equal(a.hourly_truth, b.hourly_truth)


def test_elevation_coupling_reacts_to_dem():
    cfg = tiny_config(
        recipe=GroundTruthRecipe(
            linear_ns={MetFactor.TEMPERATURE: 2.0}, elevation_gain=3.0
        )
    )
    a = generate_scenario(cfg)
    b = generate_scenario(
        dataclasses.replace(cfg, dem=DemConfig(cellsize=0.04, base_m=500.0, hills=2))
    )
    assert not np.array_equal(a.hourly_truth, b.hourly_truth)


def test_ground_truth_matches_independent_recipe_evaluation():
    cfg = tiny_config()
    scenario = generate_scenario(cfg)
    h_tilde = transform_elevation(scenario.profile)
    w = cfg.recipe.location_weights(h_tilde)
    col = {f: i for i, f in enumerate(scenario.tensor.factors)}
    t = 17
    expect = cfg.recipe.base_ns
    for f, coef in cfg.recipe.linear_ns.items():
        expect += coef * float(scenario.tensor.values[t, :, col[f]] @ w)
    assert scenario.hourly_truth[t] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("per_hour", [1, 7, 3600])
def test_td_samples_are_evenly_spaced_whole_seconds_in_each_hour(per_hour):
    scenario = generate_scenario(tiny_config(duration_hours=3, td_samples_per_hour=per_hour))
    td = scenario.td_samples
    assert len(td) == 3 * per_hour
    seconds = td.micros.reshape(3, per_hour) // 1_000_000
    starts = np.array([e.hours_since_epoch * 3600 for e in scenario.epochs])
    step = 3600 // per_hour
    np.testing.assert_array_equal(seconds, starts[:, None] + step * np.arange(per_hour))
    assert td[0][0] == scenario.epochs[0].instant


def test_hourly_td_matches_aggregated_second_samples():
    scenario = generate_scenario(tiny_config(duration_hours=24))
    hourly = aggregate_hourly(scenario.td_samples, min_samples=1)
    for t, epoch in enumerate(scenario.epochs):
        # the within-hour jitter is a pure sinusoid, so the mean cancels it
        assert hourly_value(hourly, epoch) == pytest.approx(scenario.hourly_td[t], abs=1e-9)


# -- corpus round trip ---------------------------------------------------------


def test_corpus_round_trip(tmp_path):
    scenario = generate_scenario(tiny_config(duration_hours=48))
    paths = write_corpus(scenario, tmp_path / "corpus")
    registry = parse_station_registry(paths["stations"])
    assert registry == scenario.registry
    weather = parse_weather_csv(paths["weather"], registry)
    assert weather == scenario.weather
    td = parse_td_csv(paths["td"])
    assert len(td) == len(scenario.td_samples)
    assert td[0][0] == scenario.td_samples[0][0]
    np.testing.assert_allclose(
        [v for _, v in td], [v for _, v in scenario.td_samples], rtol=0
    )
    dem = parse_dem(paths["dem"])
    assert dem == scenario.dem
    cfg = load_scenario_config(paths["meta"])
    assert cfg == scenario.config


def test_write_corpus_is_byte_deterministic(tmp_path):
    s1 = generate_scenario(tiny_config(duration_hours=24))
    s2 = generate_scenario(tiny_config(duration_hours=24))
    p1 = write_corpus(s1, tmp_path / "a")
    p2 = write_corpus(s2, tmp_path / "b")
    for key in p1:
        assert p1[key].read_bytes() == p2[key].read_bytes(), key


def test_corpus_regenerates_byte_for_byte_from_its_meta(tmp_path):
    """tiny_config declares temperature before pressure; its meta stores the
    recipe sorted by column, so the sum must not follow the dict order."""
    first = write_corpus(generate_scenario(tiny_config()), tmp_path / "a")
    again = write_corpus(generate_scenario(load_scenario_config(first["meta"])), tmp_path / "b")
    for key in first:
        assert first[key].read_bytes() == again[key].read_bytes(), key


def test_config_json_round_trip():
    for cfg in (tiny_config(), default_scenario_config(), cubic_scenario_config(seed=7)):
        text = json.dumps(encode(SCENARIO_LAYOUT, cfg), sort_keys=True)
        again = decode(SCENARIO_LAYOUT, json.loads(text), {}, "scenario")
        assert again == cfg
        assert json.dumps(encode(SCENARIO_LAYOUT, again), sort_keys=True) == text


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(noise_sd_ns=-1.0)
    for per_hour in (0, 3601, 7200):  # more than one a second would repeat a stamp
        with pytest.raises(ValueError):
            tiny_config(td_samples_per_hour=per_hour)
    with pytest.raises(ValueError):
        tiny_config(duration_hours=0)
    with pytest.raises(ValueError):
        # recipe driven by a factor the scenario does not simulate
        tiny_config(
            recipe=GroundTruthRecipe(linear_ns={MetFactor.SUNSHINE: 1.0}),
        )


@pytest.mark.parametrize("fields", [
    {"cellsize": 0.0}, {"cellsize": math.inf}, {"cellsize": -0.02}, {"padding": -0.1},
    {"hills": -1}, {"amp_range": (450.0, 50.0)},
    {"width_range": (0.0, 0.3)}, {"width_range": (0.3, 0.05)}, {"amp_range": (1.0, math.inf)},
])
def test_dem_config_range_checks(fields):
    with pytest.raises(ValueError):
        DemConfig(**fields)


def test_scenario_config_range_checks():
    weather = dict(default_scenario_config().weather)
    del weather[MetFactor.TEMPERATURE]
    for fields in ({"weather": weather}, {"factors": ()},
                   {"factors": (MetFactor.PRESSURE, MetFactor.PRESSURE)},
                   {"rx": default_scenario_config().tx}, {"station_jitter_deg": -0.1},
                   {"grid_cellsize": 0.0}, {"td_jitter_ns": math.nan}, {"l": 1},
                   {"start": EpochHour.of(9999, 12, 31)}):
        with pytest.raises(ValueError):
            tiny_config(**fields)
    with pytest.raises(ValueError, match="elevation_gain"):
        GroundTruthRecipe(elevation_gain=-1.0)
    with pytest.raises(ValueError, match="scales"):
        GroundTruthRecipe(scales={MetFactor.PRESSURE: 0.0})
    with pytest.raises(ValueError, match="ar_rho"):
        WeatherParams(1.0, 0.0, 0.0, 1.0, 1.0)
    # factors are canonicalised, so a reordered set is the same scenario
    assert tiny_config(factors=FACTORS_3[::-1]) == tiny_config()


@pytest.mark.parametrize("fields", [
    {"duration_hours": 10 ** 9}, {"station_count": 2 ** 15}, {"l": 2 ** 27},
    {"td_samples_per_hour": 3600, "duration_hours": 2 ** 17},
    {"dem": DemConfig(cellsize=1e-6)}, {"dem": DemConfig(hills=10 ** 9)},
    {"grid_padding": 1e300},
])
def test_scenario_over_the_cell_bound_is_refused_before_generating(fields):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f" cells would exceed {MAX_ARRAY_CELLS} cells; "):
            tiny_config(**fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_scenario_path_length_matches_declared_geometry():
    cfg = default_scenario_config()
    scenario = generate_scenario(
        dataclasses.replace(
            cfg, duration_hours=2, factors=FACTORS_3,
            recipe=GroundTruthRecipe(linear_ns={MetFactor.TEMPERATURE: 1.0}),
            td_samples_per_hour=2,
        )
    )
    assert scenario.path_length_km == pytest.approx(179.28, abs=0.01)
    assert len(scenario.path) == 198
    assert len(scenario.profile) == 198
    assert np.isfinite(scenario.profile).all()


# -- brute-force oracles ------------------------------------------------------


def test_ols_oracle_identity_design():
    y = np.array([3.0, -1.0, 7.0])
    np.testing.assert_allclose(ols_oracle(np.eye(3), y), y, rtol=1e-14)


def test_ols_oracle_hand_solved_system():
    # y = 1 + 2 a - 3 b fitted exactly on 4 points
    a = np.array([0.0, 1.0, 0.0, 1.0])
    b = np.array([0.0, 0.0, 1.0, 1.0])
    y = 1.0 + 2.0 * a - 3.0 * b
    x = np.column_stack([np.ones(4), a, b])
    np.testing.assert_allclose(ols_oracle(x, y), [1.0, 2.0, -3.0], atol=1e-12)


def test_ols_oracle_rank_deficient():
    x = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0)])
    with pytest.raises(DataError, match="design matrix is rank deficient"):
        ols_oracle(x, np.ones(5))


def test_kernel_oracle_single_column():
    assert kernel_oracle([0.3, 0.4], [[1.0], [2.0]], [5.5], [1.0, 1.0]) == 5.5


def test_kernel_oracle_tied_sigma_matches_isotropic_form():
    rng = np.random.default_rng(19)
    bank = rng.normal(size=(3, 5))
    y = rng.normal(size=5)
    q = rng.normal(size=3)
    sigma = 1.3
    num = den = 0.0
    for t in range(5):
        d2 = float(np.sum((q - bank[:, t]) ** 2))
        k = math.exp(-d2 / (2.0 * sigma**2))
        num += k * y[t]
        den += k
    got = kernel_oracle(q, bank, y, [sigma] * 3)
    assert got == pytest.approx(num / den, rel=1e-12)
