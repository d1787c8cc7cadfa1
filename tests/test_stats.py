import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elorantd.errors import DataError
from elorantd.stats import (
    anova_oneway,
    f_sf,
    mae,
    pearson,
    regularized_incomplete_beta,
    rmse,
    select_factors,
    student_t_sf_two_sided,
)
from elorantd.types import MetFactor

# Reference p-values computed once with an independent statistics library
# and frozen: (t, df, two-sided p)
T_TABLE = [
    (0.0, 1, 1.0),
    (0.1, 1, 0.9365489651388929),
    (0.25, 1, 0.8440417392452614),
    (0.5, 1, 0.7048327646991336),
    (0.75, 1, 0.5903344706017333),
    (1.0, 1, 0.49999999999999956),
    (1.5, 1, 0.3743340836219976),
    (2.0, 1, 0.2951672353008664),
    (0.0, 2, 1.0),
    (0.1, 2, 0.9294654384141401),
    (0.25, 2, 0.8259223440443022),
    (0.5, 2, 0.6666666666666667),
    (0.75, 2, 0.5314787143341818),
    (1.0, 2, 0.42264973081037427),
    (1.5, 2, 0.2723931248910009),
    (2.0, 2, 0.1835034190722739),
    (0.0, 5, 1.0),
    (0.1, 5, 0.9242301411546604),
    (0.25, 5, 0.8125341307441234),
    (0.5, 5, 0.638298871640929),
    (0.75, 5, 0.487024248059309),
    (1.0, 5, 0.36321746764912255),
    (1.5, 5, 0.19390368024247315),
    (2.0, 5, 0.10193947882985828),
    (0.0, 30, 1.0),
    (0.1, 30, 0.9210096117902711),
    (0.25, 30, 0.8042914090805751),
    (0.5, 30, 0.6207230048851273),
    (0.75, 30, 0.45909654567433),
    (1.0, 30, 0.32530861542602985),
    (1.5, 30, 0.14406592912864605),
    (2.0, 30, 0.0546250449629831),
]

# (f, df1, df2, upper-tail p)
F_TABLE = [
    (0.0, 1, 10, 1.0),
    (0.5, 1, 10, 0.49564750438311955),
    (1.0, 1, 10, 0.34089313230205975),
    (2.0, 1, 10, 0.18766987086960304),
    (3.0, 1, 10, 0.11393741215192044),
    (4.5, 1, 10, 0.05989032442555945),
    (7.0, 1, 10, 0.02449101003668705),
    (10.0, 1, 10, 0.010119559735433718),
    (0.0, 2, 6, 1.0),
    (0.5, 2, 6, 0.629737609329446),
    (1.0, 2, 6, 0.421875),
    (2.0, 2, 6, 0.21599999999999997),
    (3.0, 2, 6, 0.125),
    (4.5, 2, 6, 0.06400000000000002),
    (7.0, 2, 6, 0.026999999999999996),
    (10.0, 2, 6, 0.012289485662266729),
    (0.0, 3, 20, 1.0),
    (0.5, 3, 20, 0.6865186128364029),
    (1.0, 3, 20, 0.4132519140624602),
    (2.0, 3, 20, 0.1464388030866216),
    (3.0, 3, 20, 0.054858618668295125),
    (4.5, 3, 20, 0.014373244610897444),
    (7.0, 3, 20, 0.0021045250355063447),
    (10.0, 3, 20, 0.0003094054635144073),
    (0.0, 5, 40, 1.0),
    (0.5, 5, 40, 0.7743574758662036),
    (1.0, 5, 40, 0.4302282293926576),
    (2.0, 5, 40, 0.09951560849107283),
    (3.0, 5, 40, 0.021605690375421777),
    (4.5, 5, 40, 0.002394428768545323),
    (7.0, 5, 40, 8.8251551304541e-05),
    (10.0, 5, 40, 2.9195853033816456e-06),
]


def test_t_pvalues_match_reference_table():
    for t, df, want in T_TABLE:
        got = student_t_sf_two_sided(t, df)
        assert got == pytest.approx(want, abs=1e-6), (t, df)


def test_f_pvalues_match_reference_table():
    for f, d1, d2, want in F_TABLE:
        got = f_sf(f, d1, d2)
        assert got == pytest.approx(want, abs=1e-6), (f, d1, d2)


def test_incomplete_beta_boundaries_and_symmetry():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(a, b) = 1 - I_{1-x}(b, a)
    for a, b, x in [(2.0, 3.0, 0.3), (0.5, 0.5, 0.7), (5.0, 1.5, 0.9)]:
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_incomplete_beta_half_half_is_arcsine():
    # I_x(1/2, 1/2) = (2/pi) arcsin(sqrt(x))
    for x in (0.1, 0.25, 0.5, 0.9):
        want = 2.0 / math.pi * math.asin(math.sqrt(x))
        assert regularized_incomplete_beta(0.5, 0.5, x) == pytest.approx(want, abs=1e-12)


def test_pearson_known_example():
    r = pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    assert r.r == pytest.approx(0.8, abs=1e-12)
    assert r.p == pytest.approx(0.10408803866182799, abs=1e-9)
    assert r.n_samples == 5


def test_pearson_perfect_correlation():
    r = pearson([1.0, 2.0, 3.0, 4.0], [3.0, 5.0, 7.0, 9.0])  # y = 2x + 1
    assert r.r == pytest.approx(1.0, abs=1e-12)
    assert r.p < 1e-6
    r = pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    assert r.r == pytest.approx(-1.0, abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    base = pearson(x, y)
    scaled = pearson(3.5 * x - 2.0, 0.25 * y + 10.0)
    assert scaled.r == pytest.approx(base.r, abs=1e-12)
    assert scaled.p == pytest.approx(base.p, abs=1e-12)
    flipped = pearson(-x, y)
    assert flipped.r == pytest.approx(-base.r, abs=1e-12)
    assert flipped.p == pytest.approx(base.p, abs=1e-12)


def test_pearson_rejects_degenerate_input():
    with pytest.raises(DataError, match="need at least 3 samples, got 0"):
        pearson([], [])
    with pytest.raises(DataError, match=r"series shapes \(3,\) vs \(2,\)"):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(DataError, match="need at least 3 samples, got 2"):
        pearson([1, 2], [3, 4])  # n < 3 cannot produce a p-value
    with pytest.raises(DataError, match="pearson undefined for a constant series"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_select_factors_thresholds_inclusive():
    rows = [
        pearson([1, 2, 3, 4, 5, 6], [1.1, 2.2, 2.9, 4.2, 4.8, 6.1], factor=MetFactor.TEMPERATURE),
    ]
    # manufactured results exercise the rule directly
    from elorantd.stats import CorrelationResult

    rows = [
        CorrelationResult(MetFactor.PRESSURE, -0.72, 0.0005, 100),
        CorrelationResult(MetFactor.TEMPERATURE, 0.50, 0.05, 100),   # both boundaries
        CorrelationResult(MetFactor.HUMIDITY, 0.49, 0.01, 100),      # |r| below
        CorrelationResult(MetFactor.PRECIPITATION, -0.64, 0.06, 100),  # p above
    ]
    selected = select_factors(rows)
    assert MetFactor.PRESSURE in selected
    assert MetFactor.TEMPERATURE in selected  # r = 0.5 and p = 0.05 inclusive
    assert MetFactor.HUMIDITY not in selected
    assert MetFactor.PRECIPITATION not in selected


def test_select_factors_monotone_in_r_min():
    from elorantd.stats import CorrelationResult

    rows = [
        CorrelationResult(f, r, 0.001, 50)
        for f, r in zip(
            [MetFactor.PRESSURE, MetFactor.TEMPERATURE, MetFactor.HUMIDITY],
            [-0.9, 0.6, 0.52],
        )
    ]
    loose = set(select_factors(rows, r_min=0.5))
    tight = set(select_factors(rows, r_min=0.7))
    assert tight <= loose


def test_rmse_mae_basics():
    pred = np.array([1.0, 2.0, 3.0])
    truth = np.array([1.0, 2.0, 3.0])
    assert rmse(pred, truth) == 0.0
    assert mae(pred, truth) == 0.0
    pred = np.array([2.0, 0.0])
    truth = np.array([0.0, 0.0])
    assert rmse(pred, truth) == pytest.approx(math.sqrt(2.0))
    assert mae(pred, truth) == pytest.approx(1.0)
    with pytest.raises(DataError, match=r"series shapes \(1,\) vs \(2,\)"):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(DataError, match="empty series"):
        mae([], [])


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)), min_size=1, max_size=64
    )
)
def test_rmse_at_least_mae_property(data):
    pred = np.array([a for a, _ in data])
    truth = np.array([b for _, b in data])
    assert rmse(pred, truth) >= mae(pred, truth) - 1e-12


def test_rmse_mae_hand_example():
    actual = [1.0, 2.0, 3.0]
    predicted = [2.0, 4.0, 3.0]
    assert rmse(actual, predicted) == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-12)
    assert mae(actual, predicted) == pytest.approx(1.0, abs=1e-12)


def test_rmse_mae_constant_offset():
    rng = np.random.default_rng(11)
    y = rng.normal(size=50)
    assert rmse(y, y + 3.25) == pytest.approx(3.25, abs=1e-12)
    assert mae(y, y - 3.25) == pytest.approx(3.25, abs=1e-12)


def test_anova_separated_groups_significant():
    rng = np.random.default_rng(5)
    a = rng.normal(0.0, 1.0, size=30)
    b = rng.normal(10.0, 1.0, size=30)
    res = anova_oneway([a, b])
    assert res.p < 0.001


def test_anova_offset_invariance():
    rng = np.random.default_rng(9)
    groups = [rng.normal(size=8) for _ in range(3)]
    base = anova_oneway(groups)
    shifted = anova_oneway([g + 42.0 for g in groups])
    assert shifted.f_statistic == pytest.approx(base.f_statistic, rel=1e-9)
    assert shifted.p == pytest.approx(base.p, rel=1e-9)


def test_anova_hand_example():
    res = anova_oneway([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    assert res.f_statistic == pytest.approx(3.0, abs=1e-9)
    assert res.p == pytest.approx(0.125, abs=1e-9)
    assert (res.df_between, res.df_within) == (2, 6)


def test_anova_identical_groups():
    res = anova_oneway([[1.0, 2.0, 3.0]] * 4)
    assert res.f_statistic == 0.0
    assert res.p == 1.0


def test_anova_zero_within_variance():
    res = anova_oneway([[1.0, 1.0], [2.0, 2.0]])
    assert math.isinf(res.f_statistic)
    assert res.p == 0.0


def test_anova_rejects_insufficient_groups():
    with pytest.raises(DataError, match="need >= 2 groups with >= 2 samples each"):
        anova_oneway([[1.0, 2.0]])
    with pytest.raises(DataError, match="need >= 2 groups with >= 2 samples each"):
        anova_oneway([[1.0, 2.0], [3.0]])
