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
from elorantd.wlr_agrnn import (
    SIGMA_BOUNDS,
    WEIGHT_EVERY,
    TrainConfig,
    WlrParams,
    _forward_all,
    agrnn_predict_batch,
    elevation_weight,
    kernel_regression,
    loo_shift,
    pairwise_sq_dists,
    select_sigmas,
    train,
    transform_elevation,
    wrss_and_grads,
    wrss_loss,
)
from tests.oracles import kernel_oracle, wlr_forward


def toy_params(rng, n, hidden):
    return WlrParams(
        w1=rng.normal(size=(hidden, n)),
        b1=rng.normal(size=hidden),
        w2=rng.normal(size=hidden),
        b2=float(rng.normal()),
    )


# -- linear expert ------------------------------------------------------------


def test_forward_identity_composition():
    params = WlrParams(w1=np.eye(3), b1=np.zeros(3), w2=np.ones(3), b2=0.0)
    assert _forward_all(params, np.array([[[1.0, 2.0, 3.0]]])) == 6.0


def test_forward_zero_params():
    params = WlrParams(w1=np.zeros((4, 2)), b1=np.zeros(4), w2=np.zeros(4), b2=-3.5)
    np.testing.assert_array_equal(_forward_all(params, np.full((2, 3, 2), 100.0)), -3.5)


def test_forward_matches_the_scalar_oracle_at_every_epoch_and_location():
    """The affine map, biases included, is the two-layer expert."""
    rng = np.random.default_rng(0)
    for _ in range(5):
        params = toy_params(rng, 4, 6)
        x = rng.normal(size=(3, 2, 4))
        expect = [[wlr_forward(params, x[t, j]) for j in range(2)] for t in range(3)]
        np.testing.assert_allclose(_forward_all(params, x), expect, rtol=1e-12)


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


def test_constant_row_does_not_move_the_sigma_scale():
    rng = np.random.default_rng(22)
    bank = rng.normal(size=(3, 15))
    y = rng.normal(size=15)
    w = rng.uniform(0.5, 2.0, size=15)
    with_constant = np.vstack([bank, np.full(15, -4.25)])
    a = select_sigmas(bank, y, w)
    b = select_sigmas(with_constant, y, w)
    np.testing.assert_array_equal(b[:3], a)
    assert b[3] == pytest.approx(1e-6 * 4.25 + 1e-12)


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
        assert agrnn_predict_batch(q[:, None], bank, y, np.ones(2))[0] == 42.0


def test_agrnn_equidistant_symmetry():
    bank = np.array([[-1.0, 1.0]])
    y = np.array([10.0, 20.0])
    out = agrnn_predict_batch(np.array([[0.0]]), bank, y, np.array([0.7]))
    assert out[0] == pytest.approx(15.0)


def test_agrnn_matches_nested_loop_oracle():
    rng = np.random.default_rng(6)
    bank = rng.normal(size=(4, 3))
    y = rng.normal(size=3)
    sigmas = rng.uniform(0.5, 2.0, size=4)
    for _ in range(5):
        q = rng.normal(size=4)
        expect = kernel_oracle(q, bank, y, sigmas)
        assert agrnn_predict_batch(q[:, None], bank, y, sigmas)[0] == pytest.approx(
            expect, rel=1e-12
        )


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
    got = agrnn_predict_batch(q[:, None], bank, y, np.full(3, sigma))[0]
    assert got == pytest.approx(expect, rel=1e-12)


def test_agrnn_huge_sigma_ignores_coordinate():
    rng = np.random.default_rng(10)
    bank = rng.normal(size=(3, 10))
    y = rng.normal(size=10)
    sigmas = np.array([0.8, 1.2, 1e12])
    q = rng.normal(size=3)
    q_moved = q.copy()
    q_moved[2] += 1000.0
    a, b = agrnn_predict_batch(np.column_stack((q, q_moved)), bank, y, sigmas)
    assert a == pytest.approx(b, rel=1e-9)


def test_agrnn_far_query_falls_back_to_nearest():
    bank = np.array([[0.0, 1.0]])
    y = np.array([5.0, 9.0])
    out = agrnn_predict_batch(np.array([[1e6]]), bank, y, np.array([1.0]))
    assert out[0] == 9.0  # nearest column wins even when kernels underflow


def test_agrnn_overflowing_distances_fall_back_to_the_nearest_column():
    # every squared distance overflows to inf; the column at +1e152 is nearer
    bank = np.array([[-1e152, 1e152]])
    y = np.array([5.0, 9.0])
    queries = np.array([[1e155, -1e155, 0.5]])
    with pytest.warns(UserWarning, match="nearest bank column") as caught:
        out = agrnn_predict_batch(queries, bank, y, np.array([1.0]))
    assert [w.category for w in caught] == [UserWarning]
    np.testing.assert_array_equal(out, [9.0, 5.0, 7.0])


def test_agrnn_empty_bank():
    with pytest.raises(EmptyBankError):
        agrnn_predict_batch(np.ones((2, 1)), np.empty((2, 0)), np.empty(0), np.ones(2))


def test_agrnn_rejects_nonpositive_sigma():
    bank = np.ones((2, 3))
    with pytest.raises(ValueError):
        agrnn_predict_batch(np.ones((2, 1)), bank, np.ones(3), np.array([1.0, 0.0]))


# -- training objective and gradients -----------------------------------------


@pytest.mark.parametrize("tied", [True, False])
def test_loo_predictions_match_kernel_oracle_without_column_t(tied):
    """The leave-one-out kernel behind select_sigmas and wrss_loss, checked
    against the nested-loop oracle on the bank with column t removed, at
    several bandwidths from one shifted distance matrix."""
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
    base = np.full(2, sd.mean()) if tied else sd * [0.5, 2.0]
    shifted = loo_shift(pairwise_sq_dists(bank / base[:, None]))
    kernel = np.empty_like(shifted)
    for c in (0.3, 0.8, 2.5):
        sigmas = c * base
        expect = np.empty(9)
        for t in range(9):
            keep = np.arange(9) != t
            expect[t] = kernel_oracle(bank[:, t], bank[:, keep], y[keep], sigmas)
        k, yhat, den = kernel_regression(shifted, y, 0.5 / (c * c), out=kernel)
        np.testing.assert_allclose(yhat, expect, rtol=1e-12)
        np.testing.assert_array_equal(np.diag(k), 0.0)
        assert np.all(den >= 1.0)
        r = y - expect
        assert wrss_loss(params, x, y, h, sigmas, w) == pytest.approx(
            float(np.sum(w * r * r)), rel=1e-12
        )


def test_loo_fallback_is_per_row():
    # column 2 is infinitely far from the others: row 0 keeps its nearest
    # neighbour, and only row 2, with no finite distance, is uniform
    bank = np.array([[0.0, 1.0, 1e200]])
    y = np.array([1.0, 2.0, 3.0])
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = loo_shift(pairwise_sq_dists(bank))
    k, yhat, den = kernel_regression(shifted, y)
    weights = k / den[:, None]
    np.testing.assert_array_equal(weights[0], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(weights[2], [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(yhat, [2.0, 1.0, 1.5])


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
        # the biases do not move the loss (test_bias_shift_changes_nothing)
        assert set(grads) == {"w1", "w2"}

        def loss_at(p):
            return wrss_loss(p, x, y, h, sigmas, w)

        fd_all: list[float] = []
        an_all: list[float] = []
        for name in ("w1", "w2"):
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
        # absolute floor covers finite-difference cancellation noise, which
        # scales with the loss value, not with the gradient components
        np.testing.assert_allclose(
            an_all, fd_all, rtol=1e-4, atol=1e-7 * max(1.0, loss)
        )


def test_analytic_gradients_match_finite_differences_on_a_larger_bank():
    """More epochs than locations, weights spread over 50x, so the
    leave-one-out rows mix many columns."""
    eps = 1e-5
    rng = np.random.default_rng(24)
    params = toy_params(rng, 2, 3)
    x = rng.normal(size=(14, 3, 2))
    y = rng.normal(size=14) * 3.0 + 40.0
    h = transform_elevation(rng.uniform(5.0, 400.0, size=3))
    sigmas = rng.uniform(2.0, 6.0, size=3)
    w = rng.uniform(0.1, 5.0, size=14)
    loss, grads = wrss_and_grads(params, x, y, h, sigmas, w)
    assert set(grads) == {"w1", "w2"}
    for name in ("w1", "w2"):
        arr = getattr(params, name)
        fd = np.empty_like(arr)
        for idx in np.ndindex(arr.shape):
            p_hi, p_lo = params.copy(), params.copy()
            getattr(p_hi, name)[idx] += eps
            getattr(p_lo, name)[idx] -= eps
            fd[idx] = (wrss_loss(p_hi, x, y, h, sigmas, w) - wrss_loss(p_lo, x, y, h, sigmas, w)) / (
                2.0 * eps
            )
        np.testing.assert_allclose(grads[name], fd, rtol=1e-4, atol=1e-7 * max(1.0, loss))


# -- what the model learns: sigma_j = c * sd_j cancels the rest ----------------


def bank_of(params, x, h):
    return elevation_weight(_forward_all(params, x), h).T


def test_bias_shift_changes_nothing():
    """A shift of b1 or b2 moves each bank row (and each query) by one
    constant: the selected sigmas, the loss and the predictions stay."""
    rng = np.random.default_rng(25)
    params = toy_params(rng, 3, 4)
    params.b1[:] = 0.0
    params.b2 = 0.0
    x = rng.normal(size=(16, 3, 3))
    probe = rng.normal(size=(5, 3, 3))
    y = rng.normal(size=16) * 4.0 + 30.0
    h = transform_elevation(rng.uniform(5.0, 400.0, size=3))
    w = rng.uniform(0.5, 2.0, size=16)
    bank = bank_of(params, x, h)
    sigmas = select_sigmas(bank, y, w)
    loss = wrss_loss(params, x, y, h, sigmas, w)
    pred = agrnn_predict_batch(bank_of(params, probe, h), bank, y, sigmas)
    for b1, b2 in ((rng.normal(size=4), 0.0), (np.zeros(4), -1.5), (rng.normal(size=4), 2.5)):
        shifted = WlrParams(params.w1, b1, params.w2, b2)
        bank_s = bank_of(shifted, x, h)
        np.testing.assert_allclose(np.ptp(bank_s - bank, axis=1), 0.0, atol=1e-12)
        assert np.abs(bank_s - bank).max() > 0.1
        sigmas_s = select_sigmas(bank_s, y, w)
        np.testing.assert_allclose(sigmas_s, sigmas, rtol=1e-12)
        assert wrss_loss(shifted, x, y, h, sigmas_s, w) == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(
            agrnn_predict_batch(bank_of(shifted, probe, h), bank_s, y, sigmas_s), pred, rtol=1e-12
        )


def test_rescaling_v_scales_the_sigmas_and_keeps_the_loss():
    """w2 * k scales v = w1.T w2, so every bank row, by k: the selected
    sigmas scale by |k| and the leave-one-out loss does not change."""
    rng = np.random.default_rng(26)
    params = toy_params(rng, 3, 4)
    x = rng.normal(size=(16, 3, 3))
    y = rng.normal(size=16) * 4.0 + 30.0
    h = transform_elevation(rng.uniform(5.0, 400.0, size=3))
    w = rng.uniform(0.5, 2.0, size=16)
    sigmas = select_sigmas(bank_of(params, x, h), y, w)
    loss = wrss_loss(params, x, y, h, sigmas, w)
    for k in (0.05, 3.0, -2.0):
        scaled = WlrParams(params.w1, params.b1, params.w2 * k, params.b2)
        sigmas_k = select_sigmas(bank_of(scaled, x, h), y, w)
        np.testing.assert_allclose(sigmas_k, abs(k) * sigmas, rtol=1e-12)
        assert wrss_loss(scaled, x, y, h, sigmas_k, w) == pytest.approx(loss, rel=1e-12)


def test_elevation_scale_equivariance():
    """Any positive per-location weight vector h~ trains the same model:
    the losses, the bandwidth scale c and the predictions agree."""
    rng = np.random.default_rng(13)
    x, y, _, _ = linear_scenario(rng, t_count=20)
    probe = x[:6] + rng.normal(0.0, 0.1, size=(6, 3, 2))
    cfg = TrainConfig(learning_rate=0.01, max_iterations=15, tol=0.0, hidden=3,
                      elevation_mode="raw", seed=6)
    h = rng.uniform(50.0, 300.0, size=3)
    base, base_trace = train(x, y, h, cfg)
    for factor in (np.full(3, 4.0), rng.uniform(0.01, 100.0, size=3)):
        model, trace = train(x, y, h * factor, cfg)
        np.testing.assert_allclose(model.h_tilde, h * factor, rtol=1e-15)
        np.testing.assert_allclose(trace.losses, base_trace.losses, rtol=1e-12)
        np.testing.assert_allclose(trace.sigma_scales, base_trace.sigma_scales, rtol=1e-12)
        np.testing.assert_allclose(model.predict_batch(probe), base.predict_batch(probe), rtol=1e-12)


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
    got = agrnn_predict_batch(query[:, None], model.bank, model.y, model.sigmas * 0.01)[0]
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
                dict(sigma_tol=0.0),
                dict(sigma_tol=float("nan")), dict(tol=float("inf")), dict(seed=-1)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


def test_trace_records_the_sigma_scale_of_each_iteration():
    rng = np.random.default_rng(23)
    x, y, elevations, _ = linear_scenario(rng, t_count=20)
    cfg = TrainConfig(learning_rate=0.01, max_iterations=6, hidden=3, seed=5)
    model, trace = train(x, y, elevations, cfg)
    assert len(trace.sigma_scales) == trace.iterations == 6
    lo, hi = SIGMA_BOUNDS
    assert all(lo <= c <= hi for c in trace.sigma_scales)
    # the first iteration selects on the bank of the initial parameters
    z = (x - model.standardizer.mean) / model.standardizer.sd
    params = WlrParams.init(2, 3, np.random.default_rng(5))
    bank = np.array([[wlr_forward(params, z[t, j]) for t in range(20)] for j in range(3)])
    bank *= model.h_tilde[:, None]
    np.testing.assert_allclose(
        select_sigmas(bank, y), trace.sigma_scales[0] * bank.std(axis=1, ddof=1), rtol=1e-12
    )
    _, again = train(x, y, elevations, cfg)
    assert again.sigma_scales == trace.sigma_scales


def test_training_holds_the_biases_at_zero():
    rng = np.random.default_rng(27)
    x, y, elevations, _ = linear_scenario(rng, t_count=20)
    cfg = TrainConfig(learning_rate=0.05, max_iterations=20, tol=0.0, hidden=3, seed=8)
    model, trace = train(x, y, elevations, cfg)
    assert trace.iterations == 20
    fresh = WlrParams.init(2, 3, np.random.default_rng(8))
    assert np.abs(model.params.w1 - fresh.w1).max() > 1e-3
    np.testing.assert_array_equal(model.params.b1, 0.0)
    assert model.params.b2 == 0.0


def test_train_inverse_residual_scheme_reweights():
    rng = np.random.default_rng(19)
    x, y, elevations, _ = linear_scenario(rng, t_count=24)
    cfg = TrainConfig(
        learning_rate=0.01,
        max_iterations=WEIGHT_EVERY + 2,
        tol=0.0,
        hidden=3,
        weight_scheme="inverse_residual",
        seed=3,
    )
    model, trace = train(x, y, elevations, cfg)
    assert trace.iterations == WEIGHT_EVERY + 2
    assert np.all(model.w > 0)
    assert np.ptp(model.w) > 0.01 * model.w.max()  # no longer uniform
    assert np.isfinite(trace.losses).all()
