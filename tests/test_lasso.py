import numpy as np
import pytest

from elorantd.errors import ConfigError, DegenerateDesignError, DimensionMismatchError
from elorantd.features import PolyTermIndex, Standardizer, poly_expand, term_count
from elorantd.lasso import (
    MAX_DESIGN_CELLS,
    LassoMprModel,
    alpha_max,
    argmin_table,
    coordinate_descent,
    default_alpha_grid,
    soft_threshold,
    sweep_alpha,
    sweep_degree,
    train,
)
from elorantd.stats import rmse
from elorantd.synth import ols_oracle
from elorantd.types import FACTORS_3, MetFactor

TOL_TIGHT = 1e-12


def random_regression(rng, n_rows, n_cols, noise=0.0):
    x = rng.normal(size=(n_rows, n_cols))
    true_beta = rng.normal(size=n_cols + 1)
    y = true_beta[0] + x @ true_beta[1:] + noise * rng.normal(size=n_rows)
    return x, y


# -- soft threshold -----------------------------------------------------------


def test_soft_threshold_branches():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    # boundary kills exactly
    assert soft_threshold(1.0, 1.0) == 0.0
    assert soft_threshold(-1.0, 1.0) == 0.0


def test_one_dimensional_analytic_solution():
    """Unit-norm feature orthogonal to the intercept: closed-form solution."""
    rng = np.random.default_rng(21)
    raw = rng.normal(size=40)
    xcol = raw - raw.mean()
    xcol /= np.linalg.norm(xcol)
    y = rng.normal(size=40)
    design = np.column_stack([np.ones(40), xcol])
    alpha = 0.5
    beta, trace = coordinate_descent(design, y, alpha, tol=TOL_TIGHT)
    rho = float(xcol @ y)
    expect = np.sign(rho) * max(abs(rho) - alpha / 2.0, 0.0)
    assert beta[1] == pytest.approx(expect, abs=1e-10)
    assert beta[0] == pytest.approx(y.mean(), abs=1e-10)
    assert trace.converged


# -- covariance form vs the residual form it replaced ------------------------


def residual_cd_oracle(x, y, alpha, penalize, tol, max_sweeps):
    """Residual-form cyclic coordinate descent, one column pass per update.

    The same cyclic order, soft-threshold update and stopping rule as
    coordinate_descent, but each update reads the T-long residual directly.
    """
    col_sq = np.einsum("tp,tp->p", x, x)
    beta = np.zeros(x.shape[1])
    residual = y.copy()
    losses = []
    for _ in range(max_sweeps):
        max_delta = 0.0
        for p in range(x.shape[1]):
            old = beta[p]
            c_p = float(np.dot(x[:, p], residual)) + col_sq[p] * old
            new = (soft_threshold(c_p, alpha / 2.0) if penalize[p] else c_p) / col_sq[p]
            if new != old:
                residual += x[:, p] * (old - new)
                beta[p] = new
                max_delta = max(max_delta, abs(new - old))
        residual = y - x @ beta
        losses.append(float(residual @ residual) + alpha * float(np.sum(np.abs(beta[penalize]))))
        if max_delta < tol:
            return beta, losses, True
    return beta, losses, False


@pytest.mark.parametrize(
    "rows,cols,alpha,free,max_sweeps,converges",
    [
        (80, 12, 0.5, 1, 10000, True),  # T > p
        (15, 40, 0.05, 1, 25, False),  # p > T, stopped by max_sweeps
        (60, 10, 30.0, 3, 10000, True),  # intercept and two more columns unpenalised
    ],
)
def test_covariance_form_follows_residual_form(rows, cols, alpha, free, max_sweeps, converges):
    rng = np.random.default_rng(rows * cols)
    x = np.column_stack([np.ones(rows), rng.normal(size=(rows, cols - 1))])
    x[:, 2] += 0.9 * x[:, 1]  # correlated columns make the path matter
    y = x @ rng.normal(size=cols) + rng.normal(size=rows)
    penalize = np.arange(cols) >= free
    expect, losses, converged = residual_cd_oracle(x, y, alpha, penalize, 1e-10, max_sweeps)
    beta, trace = coordinate_descent(x, y, alpha, penalize=penalize, tol=1e-10,
                                     max_sweeps=max_sweeps)
    assert converged is converges
    assert trace.converged is converged
    assert trace.iterations == len(losses)
    assert np.max(np.abs(beta - expect)) <= 1e-9 * np.max(np.abs(expect))
    np.testing.assert_allclose(trace.losses, losses, rtol=1e-9)
    if free > 1:
        assert np.any(beta[free:] == 0.0) and np.all(beta[:free] != 0.0)


# -- coordinate descent vs least squares --------------------------------------


def test_alpha_zero_matches_ols_oracle_many_seeds():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, y = random_regression(rng, 60, 4, noise=0.3)
        design = np.column_stack([np.ones(60), x])
        beta, _ = coordinate_descent(design, y, alpha=0.0, tol=TOL_TIGHT)
        expect = ols_oracle(design, y)
        np.testing.assert_allclose(beta, expect, rtol=1e-6, atol=1e-9)


def test_objective_monotone_per_sweep():
    rng = np.random.default_rng(7)
    x, y = random_regression(rng, 50, 6, noise=1.0)
    design = np.column_stack([np.ones(50), x])
    for alpha in (0.0, 0.5, 5.0):
        _, trace = coordinate_descent(design, y, alpha, tol=1e-14, max_sweeps=200)
        losses = np.asarray(trace.losses)
        slack = 1e-9 * np.maximum(1.0, np.abs(losses[:-1]))
        assert np.all(np.diff(losses) <= slack)


def test_alpha_max_kills_everything():
    rng = np.random.default_rng(3)
    x, y = random_regression(rng, 80, 3, noise=2.0)
    standardizer = Standardizer.fit(x)
    index = PolyTermIndex.build(3, 2)
    design = poly_expand(standardizer.transform(x), index)
    a_star = alpha_max(design, y)
    beta, _ = coordinate_descent(design, y, a_star, tol=TOL_TIGHT)
    np.testing.assert_array_equal(beta[1:], 0.0)
    assert beta[0] == pytest.approx(y.mean(), rel=1e-12)
    # absorbing state: doubling alpha stays all-zero
    beta2, _ = coordinate_descent(design, y, 2.0 * a_star, tol=TOL_TIGHT)
    np.testing.assert_array_equal(beta2[1:], 0.0)
    # just below the kill threshold something survives
    beta3, _ = coordinate_descent(design, y, 0.5 * a_star, tol=TOL_TIGHT)
    assert np.any(beta3[1:] != 0.0)


def test_degenerate_design_rejected():
    design = np.zeros((10, 2))
    design[:, 0] = 1.0
    with pytest.raises(DegenerateDesignError):
        coordinate_descent(design, np.ones(10), alpha=0.1)


def test_nonzero_count_monotone_in_alpha():
    rng = np.random.default_rng(17)
    x, y = random_regression(rng, 120, 5, noise=3.0)
    counts = []
    for alpha in default_alpha_grid():
        model, _ = train(x, y, FACTORS_3, degree=2, alpha=alpha, tol=1e-10)
        counts.append(int(np.sum(model.beta[1:] != 0.0)))
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    assert counts[0] == term_count(5, 2)  # essentially OLS: nothing exactly zero
    assert counts[-1] < counts[0]


# -- train / predict ----------------------------------------------------------


def test_train_recovers_exact_cubic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(240, 2))

    def target(a, b):
        return 3.0 + 2.0 * a - b + 0.5 * a * b - 0.25 * b**3 + 0.1 * a**2 * b

    y = target(x[:, 0], x[:, 1])
    model, trace = train(
        x, y, FACTORS_3, degree=3, alpha=0.0, tol=1e-13, max_sweeps=20000
    )
    holdout = rng.normal(size=(50, 2))
    got = model.predict(holdout)
    expect = target(holdout[:, 0], holdout[:, 1])
    np.testing.assert_allclose(got, expect, rtol=1e-6, atol=1e-6)


def test_predict_intercept_only_model():
    x = np.arange(12.0).reshape(6, 2)
    standardizer = Standardizer.fit(x)
    index = PolyTermIndex.build(2, 2)
    beta = np.zeros(index.n_columns)
    beta[0] = 42.5
    model = LassoMprModel(
        factors=FACTORS_3,
        location_mode="receiver_only",
        n_inputs=2,
        degree=2,
        alpha=0.5,
        standardizer=standardizer,
        index=index,
        beta=beta,
    )
    assert model.predict(np.array([100.0, -3.0])) == 42.5
    np.testing.assert_array_equal(model.predict(x), 42.5)


def test_predict_wrong_width():
    rng = np.random.default_rng(2)
    x, y = random_regression(rng, 30, 3)
    model, _ = train(x, y, FACTORS_3, degree=1, alpha=0.1)
    with pytest.raises(DimensionMismatchError):
        model.predict(np.ones(4))


def test_train_warns_when_underdetermined():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    with pytest.warns(UserWarning, match="training epochs"):
        train(x, y, FACTORS_3, degree=3, alpha=0.5)


def test_lasso_gram_size_guard_refuses_before_allocating(monkeypatch):
    """Ten epochs of 11 inputs at degree 7: the design has 318,240 cells, but
    its Gram matrix would have term_count(11, 7) + 1 = 31,824 squared."""
    monkeypatch.setattr(
        PolyTermIndex, "build",
        classmethod(lambda cls, *args: pytest.fail("design index was built")),
    )
    x = np.zeros((10, 11))
    assert 10 * (term_count(11, 7) + 1) <= MAX_DESIGN_CELLS < (term_count(11, 7) + 1) ** 2
    with pytest.raises(ConfigError, match=r"31824 x 31824 Gram matrix"):
        train(x, np.zeros(10), FACTORS_3, degree=7)


# -- sweeps -------------------------------------------------------------------


def test_default_alpha_grid_shape():
    grid = default_alpha_grid()
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e2)
    assert 0.5 in grid
    assert list(grid) == sorted(grid)
    assert all(a > 0 for a in grid)


def test_sweep_alpha_rejects_bad_grid():
    rng = np.random.default_rng(0)
    x, y = random_regression(rng, 30, 2)
    with pytest.raises(ValueError):
        sweep_alpha(x, y, x, y, FACTORS_3, degree=1, alphas=[0.5, 0.1])
    with pytest.raises(ValueError):
        sweep_alpha(x, y, x, y, FACTORS_3, degree=1, alphas=[-1.0, 0.5])


def test_sweep_alpha_pure_noise_runs():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(80, 3))
    y = rng.normal(size=80)
    xv = rng.normal(size=(40, 3))
    yv = rng.normal(size=40)
    grid = (0.01, 0.1, 1.0, 10.0)
    table = sweep_alpha(x, y, xv, yv, FACTORS_3, degree=1, alphas=grid)
    assert [a for a, _ in table] == list(grid)
    best = argmin_table(table)
    assert best in table


@pytest.mark.filterwarnings("ignore:only .* training epochs")
def test_sweep_alpha_u_shape_on_overfit_prone_data():
    """Many spurious features and few rows: validation RMSE dips at moderate alpha."""
    rng = np.random.default_rng(23)
    n_train, n_val, n_feat = 46, 400, 6
    x = rng.normal(size=(n_train, n_feat))
    xv = rng.normal(size=(n_val, n_feat))

    def target(m):
        return 5.0 + 4.0 * m[:, 0] - 3.0 * m[:, 1]

    y = target(x) + rng.normal(0.0, 1.0, size=n_train)
    yv = target(xv) + rng.normal(0.0, 1.0, size=n_val)
    grid = tuple(np.logspace(-3.0, 2.0, 11))
    table = sweep_alpha(x, y, xv, yv, FACTORS_3, degree=3, alphas=grid)
    values = [r for _, r in table]
    best_alpha, best_rmse = argmin_table(table)
    assert values[0] > best_rmse, "tiny alpha should overfit"
    assert values[-1] > best_rmse, "huge alpha should underfit"
    assert grid[0] < best_alpha < grid[-1]


def test_sweep_degree_flat_for_linear_target():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(300, 2))
    xv = rng.normal(size=(150, 2))
    noise = 0.5

    def target(m):
        return 10.0 + 3.0 * m[:, 0] - 2.0 * m[:, 1]

    y = target(x) + rng.normal(0, noise, size=300)
    yv = target(xv) + rng.normal(0, noise, size=150)
    table = sweep_degree(x, y, xv, yv, FACTORS_3, alpha=0.5)
    assert [m for m, _ in table] == [1, 2, 3, 4, 5]
    values = np.array([r for _, r in table])
    # every degree reaches the noise floor; no blow-up at high degree
    assert values.max() < 2.0 * noise
    assert values.max() / values.min() < 1.5


def test_sweep_degree_detects_cubic_target():
    rng = np.random.default_rng(37)
    x = rng.normal(size=(400, 2))
    xv = rng.normal(size=(200, 2))
    noise = 0.2

    def target(m):
        return 1.0 + m[:, 0] - 2.0 * m[:, 1] + 0.8 * m[:, 0] ** 3 - 0.6 * m[:, 0] * m[:, 1] ** 2

    y = target(x) + rng.normal(0, noise, size=400)
    yv = target(xv) + rng.normal(0, noise, size=200)
    table = sweep_degree(x, y, xv, yv, FACTORS_3, alpha=0.01)
    by_degree = dict(table)
    assert by_degree[2] > 3.0 * by_degree[3], "cubic terms must matter"
    assert by_degree[3] < 2.0 * noise
    # plateau beyond the true degree
    assert by_degree[4] < 2.0 * by_degree[3] + noise
    best_m, _ = argmin_table(table)
    assert best_m >= 3


def test_argmin_table_first_tie_wins():
    assert argmin_table([(1, 5.0), (2, 3.0), (3, 3.0)]) == (2, 3.0)


# -- oracle self-check --------------------------------------------------------


def test_ols_oracle_solves_normal_equations():
    rng = np.random.default_rng(9)
    x = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
    y = rng.normal(size=30)
    beta = ols_oracle(x, y)
    np.testing.assert_allclose(x.T @ (y - x @ beta), 0.0, atol=1e-10)


def test_rmse_of_perfect_fit_is_zero():
    rng = np.random.default_rng(13)
    x, y = random_regression(rng, 50, 3, noise=0.0)
    model, _ = train(x, y, FACTORS_3, degree=1, alpha=0.0, tol=1e-13)
    assert rmse(y, model.predict(x)) < 1e-8
