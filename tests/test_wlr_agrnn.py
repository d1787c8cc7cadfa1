import numpy as np
import pytest

from elorantd.errors import (
    DegenerateBankError,
    DimensionMismatchError,
    EmptyBankError,
    LengthMismatchError,
    NonFiniteLossError,
)
from elorantd.stats import rmse
from elorantd.synth import kernel_oracle
from elorantd.wlr_agrnn import (
    SIGMA_BOUNDS,
    TrainConfig,
    WlrParams,
    agrnn_predict,
    agrnn_predict_batch,
    elevation_weight,
    loo_weights,
    pairwise_sq_dists,
    select_sigmas,
    train,
    transform_elevation,
    wlr_forward,
    wrss_and_grads,
    wrss_loss,
)


def toy_params(rng, n, hidden):
    return WlrParams(
        w1=rng.normal(size=(hidden, n)),
        b1=rng.normal(size=hidden),
        w2=rng.normal(size=hidden),
        b2=float(rng.normal()),
    )


# -- linear expert ------------------------------------------------------------


def test_wlr_forward_identity_composition():
    params = WlrParams(w1=np.eye(3), b1=np.zeros(3), w2=np.ones(3), b2=0.0)
    assert wlr_forward(params, np.array([1.0, 2.0, 3.0])) == 6.0


def test_wlr_forward_zero_params():
    params = WlrParams(w1=np.zeros((4, 2)), b1=np.zeros(4), w2=np.zeros(4), b2=-3.5)
    assert wlr_forward(params, np.array([100.0, -7.0])) == -3.5


def test_wlr_forward_matches_matrix_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        params = toy_params(rng, 4, 6)
        x = rng.normal(size=4)
        expect = float(params.w2 @ (params.w1 @ x + params.b1) + params.b2)
        assert wlr_forward(params, x) == pytest.approx(expect, rel=1e-12)


def test_wlr_forward_dimension_check():
    params = WlrParams(w1=np.eye(3), b1=np.zeros(3), w2=np.ones(3), b2=0.0)
    with pytest.raises(DimensionMismatchError):
        wlr_forward(params, np.ones(2))


# -- elevation weighting ------------------------------------------------------


def test_flat_terrain_weights_are_identity():
    h = transform_elevation(np.full(5, 320.0))
    np.testing.assert_allclose(h, 1.0, rtol=1e-14)
    xhat = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
    np.testing.assert_allclose(elevation_weight(xhat, h), xhat, rtol=1e-14)


def test_elevation_transform_hand_example():
    h = transform_elevation(np.array([100.0, 200.0]))  # mean 150
    np.testing.assert_allclose(h, [100.0 / 150.0, 200.0 / 150.0], rtol=1e-14)
    assert h[0] == pytest.approx(0.667, abs=5e-4)
    assert h[1] == pytest.approx(1.333, abs=5e-4)


def test_sea_level_point_not_annihilated():
    h = transform_elevation(np.array([0.0, 300.0]))
    assert h[0] > 0.0
    assert h[0] == pytest.approx(1.0 / 150.0, rel=1e-12)


def test_raw_mode_passthrough():
    raw = np.array([0.0, 55.5, 1200.0])
    np.testing.assert_array_equal(transform_elevation(raw, mode="raw"), raw)


def test_elevation_weight_length_check():
    with pytest.raises(LengthMismatchError):
        elevation_weight(np.ones(3), np.ones(4))


# -- smoothing-factor selection -----------------------------------------------


def test_equal_sd_rows_get_equal_sigmas():
    rng = np.random.default_rng(3)
    base = rng.normal(size=10)
    bank = np.stack([base, base[::-1], -base])  # identical sd by construction
    y = rng.normal(size=10)
    sigmas = select_sigmas(bank, y)
    np.testing.assert_allclose(sigmas, sigmas[0], rtol=1e-12)


def test_sigma_scales_with_row_sd():
    rng = np.random.default_rng(4)
    bank = rng.normal(size=(3, 12))
    y = rng.normal(size=12)
    a = select_sigmas(bank, y)
    scaled = bank.copy()
    scaled[1] *= 10.0
    b = select_sigmas(scaled, y)
    assert b[1] == pytest.approx(10.0 * a[1], rel=1e-9)
    assert b[0] == pytest.approx(a[0], rel=1e-9)


@pytest.mark.parametrize("tol", [0.0, -0.01, float("nan")])
def test_select_sigmas_rejects_non_positive_tol(tol):
    # golden-section search never narrows below a tolerance <= 0
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="tolerance"):
        select_sigmas(rng.normal(size=(3, 12)), rng.normal(size=12), tol=tol)


def test_golden_section_matches_brute_force():
    rng = np.random.default_rng(8)
    bank = rng.normal(size=(3, 9))
    y = rng.normal(size=9)
    sigmas = select_sigmas(bank, y, tol=1e-4)
    sd = bank.std(axis=1, ddof=1)
    c_found = float(sigmas[0] / sd[0])

    def objective(c):
        yhat = np.empty(9)
        for t in range(9):
            keep = [s for s in range(9) if s != t]
            yhat[t] = kernel_oracle(bank[:, t], bank[:, keep], y[keep], c * sd)
        return float(np.sum((y - yhat) ** 2))

    grid = np.arange(SIGMA_BOUNDS[0], SIGMA_BOUNDS[1] + 1e-9, 0.001)
    values = [objective(c) for c in grid]
    c_brute = float(grid[int(np.argmin(values))])
    assert abs(c_found - c_brute) < 0.005
    assert objective(c_found) <= min(values) * (1.0 + 1e-6)


def test_select_sigmas_degenerate_cases():
    y = np.arange(4.0)
    with pytest.raises(DegenerateBankError):
        select_sigmas(np.ones((2, 1)), np.ones(1))
    with pytest.raises(DegenerateBankError):
        select_sigmas(np.ones((2, 4)), y)  # every row constant


def test_select_sigmas_floors_constant_row():
    rng = np.random.default_rng(5)
    bank = rng.normal(size=(3, 8))
    bank[2] = 7.0  # zero variance
    sigmas = select_sigmas(bank, rng.normal(size=8))
    assert sigmas[2] == pytest.approx(1e-6 * 7.0 + 1e-12)
    assert np.all(sigmas > 0)


# -- anisotropic kernel regression --------------------------------------------


def test_agrnn_single_column_bank():
    bank = np.array([[1.0], [2.0]])
    y = np.array([42.0])
    for q in (np.zeros(2), np.array([100.0, -100.0])):
        assert agrnn_predict(q, bank, y, np.ones(2)) == 42.0


def test_agrnn_equidistant_symmetry():
    bank = np.array([[-1.0, 1.0]])
    y = np.array([10.0, 20.0])
    assert agrnn_predict(np.array([0.0]), bank, y, np.array([0.7])) == pytest.approx(15.0)


def test_agrnn_matches_nested_loop_oracle():
    rng = np.random.default_rng(6)
    bank = rng.normal(size=(4, 3))
    y = rng.normal(size=3)
    sigmas = rng.uniform(0.5, 2.0, size=4)
    for _ in range(5):
        q = rng.normal(size=4)
        expect = kernel_oracle(q, bank, y, sigmas)
        assert agrnn_predict(q, bank, y, sigmas) == pytest.approx(expect, rel=1e-12)


def test_agrnn_convex_combination_bounds():
    rng = np.random.default_rng(7)
    bank = rng.normal(size=(3, 20))
    y = rng.normal(size=20) * 50.0
    sigmas = rng.uniform(0.2, 2.0, size=3)
    queries = rng.normal(size=(3, 40)) * 3.0
    out = agrnn_predict_batch(queries, bank, y, sigmas)
    assert out.min() >= y.min() - 1e-9
    assert out.max() <= y.max() + 1e-9


def test_agrnn_single_sigma_reduces_to_grnn_formula():
    rng = np.random.default_rng(9)
    bank = rng.normal(size=(3, 8))
    y = rng.normal(size=8)
    sigma = 0.9
    q = rng.normal(size=3)
    # isotropic-kernel evaluation over the whole vector distance
    d2 = np.sum((bank - q[:, None]) ** 2, axis=0)
    k = np.exp(-d2 / (2.0 * sigma**2))
    expect = float(k @ y / k.sum())
    got = agrnn_predict(q, bank, y, np.full(3, sigma))
    assert got == pytest.approx(expect, rel=1e-12)


def test_agrnn_huge_sigma_ignores_coordinate():
    rng = np.random.default_rng(10)
    bank = rng.normal(size=(3, 10))
    y = rng.normal(size=10)
    sigmas = np.array([0.8, 1.2, 1e12])
    q = rng.normal(size=3)
    q_moved = q.copy()
    q_moved[2] += 1000.0
    a = agrnn_predict(q, bank, y, sigmas)
    b = agrnn_predict(q_moved, bank, y, sigmas)
    assert a == pytest.approx(b, rel=1e-9)


def test_agrnn_far_query_falls_back_to_nearest():
    bank = np.array([[0.0, 1.0]])
    y = np.array([5.0, 9.0])
    out = agrnn_predict(np.array([1e6]), bank, y, np.array([1.0]))
    assert out == 9.0  # nearest column wins even when kernels underflow


def test_agrnn_empty_bank():
    with pytest.raises(EmptyBankError):
        agrnn_predict(np.ones(2), np.empty((2, 0)), np.empty(0), np.ones(2))


def test_agrnn_rejects_nonpositive_sigma():
    bank = np.ones((2, 3))
    with pytest.raises(ValueError):
        agrnn_predict(np.ones(2), bank, np.ones(3), np.array([1.0, 0.0]))


# -- training objective and gradients -----------------------------------------


@pytest.mark.parametrize("tied", [True, False])
def test_loo_predictions_match_kernel_oracle_without_column_t(tied):
    """The leave-one-out kernel behind select_sigmas and wrss_loss, checked
    against the nested-loop oracle on the bank with column t removed."""
    rng = np.random.default_rng(20)
    params = toy_params(rng, 3, 4)
    x = rng.normal(size=(9, 2, 3))
    y = rng.normal(size=9) * 5.0
    h = transform_elevation(rng.uniform(10, 500, size=2))
    w = rng.uniform(0.5, 2.0, size=9)
    bank = np.stack(
        [[wlr_forward(params, x[t, j]) * h[j] for t in range(9)] for j in range(2)]
    )
    sd = bank.std(axis=1, ddof=1)
    sigmas = np.full(2, 0.8 * sd.mean()) if tied else 0.8 * sd * [0.5, 2.0]
    expect = np.empty(9)
    for t in range(9):
        keep = np.arange(9) != t
        expect[t] = kernel_oracle(bank[:, t], bank[:, keep], y[keep], sigmas)
    _, yhat = loo_weights(pairwise_sq_dists(bank / sigmas[:, None]), y)
    np.testing.assert_allclose(yhat, expect, rtol=1e-12)
    r = y - expect
    assert wrss_loss(params, x, y, h, sigmas, w) == pytest.approx(float(np.sum(w * r * r)), rel=1e-12)


def test_predict_batch_matches_per_epoch_oracle():
    rng = np.random.default_rng(21)
    x, y, elevations, _ = linear_scenario(rng, t_count=20)
    cfg = TrainConfig(learning_rate=0.01, max_iterations=5, hidden=3, seed=4)
    model, _ = train(x, y, elevations, cfg)
    probe = x[:6] + rng.normal(0.0, 0.1, size=(6, 3, 2))
    expect = []
    for row in probe:
        z = (row - model.standardizer.mean) / model.standardizer.sd
        query = [wlr_forward(model.params, z[j]) * model.h_tilde[j] for j in range(3)]
        expect.append(kernel_oracle(query, model.bank, model.y, model.sigmas))
    np.testing.assert_allclose(model.predict_batch(probe), expect, rtol=1e-10)
    assert model.predict(probe[2]) == pytest.approx(expect[2], rel=1e-10)
    for bad in (probe[0], probe[:, :2], probe[..., :1]):
        with pytest.raises(DimensionMismatchError):
            model.predict_batch(bad)


def test_wrss_uniform_weights_equal_rss():
    rng = np.random.default_rng(11)
    params = toy_params(rng, 3, 4)
    x = rng.normal(size=(6, 2, 3))
    y = rng.normal(size=6)
    h = transform_elevation(rng.uniform(10, 500, size=2))
    sigmas = rng.uniform(0.5, 1.5, size=2)
    w_uniform = np.ones(6)
    loss = wrss_loss(params, x, y, h, sigmas, w_uniform)
    w_scaled = np.full(6, 2.0)
    assert wrss_loss(params, x, y, h, sigmas, w_scaled) == pytest.approx(2.0 * loss, rel=1e-12)


def test_loo_exclusion_keeps_loss_positive_at_tiny_sigma():
    """With self-exclusion a shrinking bandwidth cannot zero the loss."""
    rng = np.random.default_rng(12)
    params = toy_params(rng, 2, 3)
    x = rng.normal(size=(5, 2, 2))
    y = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    h = np.ones(2)
    loss = wrss_loss(params, x, y, h, np.full(2, 1e-3), np.ones(5))
    assert loss > 1.0


def test_analytic_gradients_match_finite_differences():
    eps = 1e-5
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = toy_params(rng, 3, 2)
        x = rng.normal(size=(3, 2, 3))
        y = rng.normal(size=3) * 2.0
        h = transform_elevation(rng.uniform(5.0, 400.0, size=2))
        sigmas = rng.uniform(0.5, 1.5, size=2)
        w = rng.uniform(0.5, 2.0, size=3)
        loss, grads = wrss_and_grads(params, x, y, h, sigmas, w)

        def loss_at(p):
            return wrss_loss(p, x, y, h, sigmas, w)

        fd_all: list[float] = []
        an_all: list[float] = []
        for name in ("w1", "b1", "w2"):
            arr = getattr(params, name)
            g = grads[name]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                p_hi = params.copy()
                getattr(p_hi, name)[idx] += eps
                p_lo = params.copy()
                getattr(p_lo, name)[idx] -= eps
                fd_all.append((loss_at(p_hi) - loss_at(p_lo)) / (2.0 * eps))
                an_all.append(float(g[idx]))
        p_hi = params.copy()
        p_hi.b2 += eps
        p_lo = params.copy()
        p_lo.b2 -= eps
        fd_all.append((loss_at(p_hi) - loss_at(p_lo)) / (2.0 * eps))
        an_all.append(float(grads["b2"]))
        # absolute floor covers finite-difference cancellation noise, which
        # scales with the loss value, not with the gradient components
        np.testing.assert_allclose(
            an_all, fd_all, rtol=1e-4, atol=1e-7 * max(1.0, loss)
        )


def test_elevation_scale_equivariance():
    """Scaling every location weight by c leaves predictions unchanged."""
    rng = np.random.default_rng(13)
    params = toy_params(rng, 2, 3)
    x = rng.normal(size=(8, 3, 2))
    y = rng.normal(size=8)
    xhat = np.stack([[wlr_forward(params, x[t, j]) for j in range(3)] for t in range(8)])
    h1 = transform_elevation(rng.uniform(50, 300, size=3))
    for c in (0.5, 4.0):
        bank1 = elevation_weight(xhat, h1).T
        bank2 = elevation_weight(xhat, c * h1).T
        s1 = select_sigmas(bank1, y)
        s2 = select_sigmas(bank2, y)
        q1 = bank1[:, 0] * 1.01
        q2 = bank2[:, 0] * 1.01
        a = agrnn_predict(q1, bank1, y, s1)
        b = agrnn_predict(q2, bank2, y, s2)
        assert a == pytest.approx(b, rel=1e-9)


# -- end-to-end training ------------------------------------------------------


def linear_scenario(rng, t_count=80, noise=0.5):
    x = rng.normal(size=(t_count, 3, 2)) * [3.0, 10.0] + [15.0, 60.0]
    truth = 100.0 + 1.6 * (x[:, 1, 0] - 15.0) / 3.0 - 0.32 * (x[:, 1, 1] - 60.0) / 10.0
    y = truth + rng.normal(0.0, noise, size=t_count)
    elevations = np.full(3, 120.0)
    return x, y, elevations, truth


def test_train_fits_linear_target_on_flat_terrain():
    rng = np.random.default_rng(14)
    noise = 0.5
    x, y, elevations, _ = linear_scenario(rng, noise=noise)
    cfg = TrainConfig(learning_rate=0.02, max_iterations=200, hidden=4, seed=0)
    model, trace = train(x, y, elevations, cfg)
    np.testing.assert_allclose(model.h_tilde, 1.0, rtol=1e-12)
    got = model.predict_batch(x)
    assert rmse(y, got) < 1.05 * noise
    assert trace.losses[-1] < trace.losses[0]


def test_train_zero_learning_rate_is_inert():
    rng = np.random.default_rng(15)
    x, y, elevations, _ = linear_scenario(rng, t_count=20)
    cfg = TrainConfig(learning_rate=0.0, max_iterations=30, hidden=3, seed=7)
    model, trace = train(x, y, elevations, cfg)
    fresh = WlrParams.init(2, 3, np.random.default_rng(7))
    np.testing.assert_array_equal(model.params.w1, fresh.w1)
    np.testing.assert_array_equal(model.params.w2, fresh.w2)
    assert len(set(trace.losses)) == 1
    assert trace.converged


def test_train_epoch_permutation_invariance():
    rng = np.random.default_rng(16)
    x, y, elevations, _ = linear_scenario(rng, t_count=30)
    cfg = TrainConfig(learning_rate=0.01, max_iterations=25, hidden=3, seed=1)
    m1, _ = train(x, y, elevations, cfg)
    perm = rng.permutation(30)
    m2, _ = train(x[perm], y[perm], elevations, cfg)
    probe = x[:5]
    np.testing.assert_allclose(
        m1.predict_batch(probe), m2.predict_batch(probe), rtol=1e-8
    )


def test_trained_model_kernel_concentration():
    rng = np.random.default_rng(17)
    x, y, elevations, _ = linear_scenario(rng, t_count=25)
    cfg = TrainConfig(learning_rate=0.01, max_iterations=20, hidden=3, seed=2)
    model, _ = train(x, y, elevations, cfg)
    t = 7
    query = model.bank[:, t]
    got = agrnn_predict(query, model.bank, model.y, model.sigmas * 0.01)
    assert got == pytest.approx(y[t], abs=1e-6)


def test_train_rejects_non_finite_inputs():
    rng = np.random.default_rng(18)
    x, y, elevations, _ = linear_scenario(rng, t_count=10)
    x[0, 0, 0] = np.nan
    cfg = TrainConfig(max_iterations=5, hidden=2)
    with pytest.raises((NonFiniteLossError, DegenerateBankError)):
        train(x, y, elevations, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(elevation_mode="exponential")
    with pytest.raises(ValueError):
        TrainConfig(weight_scheme="softmax")
    for bad in (dict(hidden=0), dict(max_iterations=-1), dict(patience=0),
                dict(weight_every=0), dict(weight_eps=0.0), dict(sigma_tol=0.0),
                dict(sigma_tol=float("nan")), dict(tol=float("inf")), dict(seed=-1)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


def test_train_inverse_residual_scheme_runs():
    rng = np.random.default_rng(19)
    x, y, elevations, _ = linear_scenario(rng, t_count=24)
    cfg = TrainConfig(
        learning_rate=0.01,
        max_iterations=12,
        hidden=3,
        weight_scheme="inverse_residual",
        weight_every=5,
        seed=3,
    )
    model, trace = train(x, y, elevations, cfg)
    assert np.all(model.w > 0)
    assert np.isfinite(trace.losses).all()
