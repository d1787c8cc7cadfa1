import re
import tracemalloc

import numpy as np
import pytest

from elorantd import wlr_agrnn
from elorantd.errors import ConfigError, DataError, NonFiniteLossError
from elorantd.optim import MAX_ARRAY_CELLS
from elorantd.stats import rmse
from elorantd.wlr_agrnn import (
    SIGMA_BOUNDS,
    WEIGHT_EPS,
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
)
from tests.oracles import kernel_oracle, wlr_forward, wrss_loss


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
    with pytest.raises(DataError, match="3 outputs vs 4 elevations"):
        elevation_weight(np.ones(3), np.ones(4))


# -- smoothing-factor selection -----------------------------------------------


def test_equal_sd_rows_get_equal_sigmas():
    rng = np.random.default_rng(3)
    base = rng.normal(size=10)
    bank = np.stack([base, base[::-1], -base])  # identical sd by construction
    y = rng.normal(size=10)
    sigmas = select_sigmas(bank, y).sigmas
    np.testing.assert_allclose(sigmas, sigmas[0], rtol=1e-12)


def test_sigma_scales_with_row_sd():
    rng = np.random.default_rng(4)
    bank = rng.normal(size=(3, 12))
    y = rng.normal(size=12)
    a = select_sigmas(bank, y).sigmas
    scaled = bank.copy()
    scaled[1] *= 10.0
    b = select_sigmas(scaled, y).sigmas
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
    search = select_sigmas(bank, y, tol=1e-4)
    sd = bank.std(axis=1, ddof=1)
    c_found = search.c
    np.testing.assert_array_equal(search.sigmas, c_found * sd)

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
    with pytest.raises(DataError, match="need at least 2 bank columns to select sigmas"):
        select_sigmas(np.ones((2, 1)), np.ones(1))
    with pytest.raises(DataError, match="every bank row is constant"):
        select_sigmas(np.ones((2, 4)), y)  # every row constant


def test_constant_row_does_not_move_the_sigma_scale():
    rng = np.random.default_rng(22)
    bank = rng.normal(size=(3, 15))
    y = rng.normal(size=15)
    w = rng.uniform(0.5, 2.0, size=15)
    with_constant = np.vstack([bank, np.full(15, -4.25)])
    a = select_sigmas(bank, y, w)
    b = select_sigmas(with_constant, y, w)
    assert b.c == a.c
    np.testing.assert_array_equal(b.sigmas[:3], a.sigmas)
    assert b.sigmas[3] == pytest.approx(1e-6 * 4.25 + 1e-12)
    np.testing.assert_array_equal(b.live, [True, True, True, False])
    np.testing.assert_array_equal(b.shifted, a.shifted)


def test_select_sigmas_floors_constant_row():
    rng = np.random.default_rng(5)
    bank = rng.normal(size=(3, 8))
    bank[2] = 7.0  # zero variance
    sigmas = select_sigmas(bank, rng.normal(size=8)).sigmas
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


def test_agrnn_refuses_a_batch_whose_every_query_would_fall_back():
    bank = np.array([[-1e152, 1e152]])
    y = np.array([5.0, 9.0])
    for queries in ([[1e155]], [[1e155, -1e155]]):
        with pytest.raises(DataError, match=f"wlr_agrnn kernel weights underflowed for all "
                                            f"{len(queries[0])} queries"):
            agrnn_predict_batch(np.array(queries), bank, y, np.array([1.0]))
    assert agrnn_predict_batch(np.empty((1, 0)), bank, y, np.array([1.0])).shape == (0,)


def test_agrnn_empty_bank():
    with pytest.raises(DataError, match="bank has no columns"):
        agrnn_predict_batch(np.ones((2, 1)), np.empty((2, 0)), np.empty(0), np.ones(2))


def test_agrnn_rejects_nonpositive_sigma():
    bank = np.ones((2, 3))
    with pytest.raises(ValueError):
        agrnn_predict_batch(np.ones((2, 1)), bank, np.ones(3), np.array([1.0, 0.0]))


# -- training objective and gradients -----------------------------------------


@pytest.mark.parametrize("tied", [True, False])
def test_loo_predictions_match_kernel_oracle_without_column_t(tied):
    """The leave-one-out kernel behind select_sigmas and wrss_and_grads,
    checked against the nested-loop oracle on the bank with column t
    removed, at several bandwidths from one shifted distance matrix."""
    rng = np.random.default_rng(20)
    params = toy_params(rng, 3, 4)
    x = rng.normal(size=(9, 2, 3))
    y = rng.normal(size=9) * 5.0
    h = transform_elevation(rng.uniform(10, 500, size=2))
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
    assert model.predict_batch(probe[2:3])[0] == pytest.approx(expect[2], rel=1e-10)
    for bad in (probe[0], probe[:, :2], probe[..., :1]):
        with pytest.raises(DataError, match=f"expected \\(M, 3, 2\\) features, got "
                                            f"{re.escape(str(bad.shape))}"):
            model.predict_batch(bad)


def test_wrss_uniform_weights_equal_rss():
    """Uniform weights give the plain leave-one-out RSS; doubling them picks
    the same scale and doubles the loss and the gradients."""
    rng = np.random.default_rng(11)
    params = toy_params(rng, 3, 4)
    x = rng.normal(size=(6, 2, 3))
    y = rng.normal(size=6)
    h = transform_elevation(rng.uniform(10, 500, size=2))
    bank = bank_of(params, x, h)
    runs = []
    for w in (np.ones(6), np.full(6, 2.0)):
        search = select_sigmas(bank, y, w)
        runs.append((search.sigmas, *wrss_and_grads(params, x, y, h, bank, search, w)))
    (sigmas, loss1, g1, _), (sigmas2, loss2, g2, _) = runs
    np.testing.assert_array_equal(sigmas2, sigmas)
    yhat = [kernel_oracle(bank[:, t], np.delete(bank, t, axis=1), np.delete(y, t), sigmas)
            for t in range(6)]
    assert loss1 == pytest.approx(float(np.sum((y - yhat) ** 2)), rel=1e-12)
    assert loss2 == pytest.approx(2.0 * loss1, rel=1e-12)
    for grad2, grad1 in zip(g2, g1, strict=True):
        np.testing.assert_allclose(grad2, 2.0 * grad1, rtol=1e-12)


def test_loo_exclusion_keeps_loss_positive_at_tiny_sigma():
    """With self-exclusion a shrinking bandwidth cannot zero the loss."""
    rng = np.random.default_rng(12)
    params = toy_params(rng, 2, 3)
    x = rng.normal(size=(5, 2, 2))
    y = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    bank = bank_of(params, x, np.ones(2))
    _, yhat, _ = kernel_regression(loo_shift(pairwise_sq_dists(bank / 1e-3)), y)
    assert float(np.sum((y - yhat) ** 2)) > 1.0


def check_gradients_against_the_oracle(params, x, y, h, w, eps=1e-5):
    """wrss_and_grads against central differences of the nested-loop oracle
    at the sigmas its own search picked, held fixed."""
    bank = bank_of(params, x, h)
    search = select_sigmas(bank, y, w)
    sigmas = search.sigmas
    loss, grads, w_used = wrss_and_grads(params, x, y, h, bank, search, w)
    assert w_used is w
    assert loss == pytest.approx(wrss_loss(params, x, y, h, sigmas, w), rel=1e-12)
    # the biases do not move the loss (test_bias_shift_changes_nothing)
    assert [g.shape for g in grads] == [params.w1.shape, params.w2.shape]
    fd_all: list[float] = []
    an_all: list[float] = []
    for name, grad in zip(("w1", "w2"), grads):
        arr = getattr(params, name)
        for idx in np.ndindex(arr.shape):
            p_hi, p_lo = params.copy(), params.copy()
            getattr(p_hi, name)[idx] += eps
            getattr(p_lo, name)[idx] -= eps
            fd_all.append((wrss_loss(p_hi, x, y, h, sigmas, w)
                           - wrss_loss(p_lo, x, y, h, sigmas, w)) / (2.0 * eps))
            an_all.append(float(grad[idx]))
    # absolute floor covers finite-difference cancellation noise, which
    # scales with the loss value, not with the gradient components
    np.testing.assert_allclose(an_all, fd_all, rtol=1e-4, atol=1e-7 * max(1.0, loss))


def test_analytic_gradients_match_finite_differences():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = toy_params(rng, 3, 2)
        x = rng.normal(size=(3, 2, 3))
        y = rng.normal(size=3) * 2.0
        h = transform_elevation(rng.uniform(5.0, 400.0, size=2))
        w = rng.uniform(0.5, 2.0, size=3)
        check_gradients_against_the_oracle(params, x, y, h, w)


def test_analytic_gradients_match_finite_differences_on_a_larger_bank():
    """More epochs than locations, weights spread over 50x, so the
    leave-one-out rows mix many columns."""
    rng = np.random.default_rng(24)
    params = toy_params(rng, 2, 3)
    x = rng.normal(size=(14, 3, 2))
    y = rng.normal(size=14) * 3.0 + 40.0
    h = transform_elevation(rng.uniform(5.0, 400.0, size=3))
    w = rng.uniform(0.1, 5.0, size=14)
    check_gradients_against_the_oracle(params, x, y, h, w)


def test_a_constant_location_adds_no_loss_and_no_gradient():
    """A location whose features never change gives a constant bank row:
    it is absent from the search's matrix, so loss and gradients match
    those of the bank without it."""
    rng = np.random.default_rng(28)
    params = toy_params(rng, 2, 3)
    x = rng.normal(size=(12, 3, 2))
    y = rng.normal(size=12) * 3.0 + 40.0
    h = transform_elevation(rng.uniform(5.0, 400.0, size=4))
    w = rng.uniform(0.5, 2.0, size=12)
    with_constant = np.concatenate([x, np.broadcast_to([2.0, -1.0], (12, 1, 2))], axis=1)
    runs = []
    for xs, hs in ((x, h[:3]), (with_constant, h)):
        bank = bank_of(params, xs, hs)
        search = select_sigmas(bank, y, w)
        runs.append((search.c, *wrss_and_grads(params, xs, y, hs, bank, search, w)[:2]))
    (c1, loss1, g1), (c2, loss2, g2) = runs
    assert c2 == c1
    assert loss2 == loss1
    for grad2, grad1 in zip(g2, g1, strict=True):
        np.testing.assert_allclose(grad2, grad1, rtol=1e-12)


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
    search = select_sigmas(bank, y, w)
    sigmas = search.sigmas
    loss, _, _ = wrss_and_grads(params, x, y, h, bank, search, w)
    pred = agrnn_predict_batch(bank_of(params, probe, h), bank, y, sigmas)
    for b1, b2 in ((rng.normal(size=4), 0.0), (np.zeros(4), -1.5), (rng.normal(size=4), 2.5)):
        shifted = WlrParams(params.w1, b1, params.w2, b2)
        bank_s = bank_of(shifted, x, h)
        np.testing.assert_allclose(np.ptp(bank_s - bank, axis=1), 0.0, atol=1e-12)
        assert np.abs(bank_s - bank).max() > 0.1
        search_s = select_sigmas(bank_s, y, w)
        sigmas_s = search_s.sigmas
        np.testing.assert_allclose(sigmas_s, sigmas, rtol=1e-12)
        loss_s, _, _ = wrss_and_grads(shifted, x, y, h, bank_s, search_s, w)
        assert loss_s == pytest.approx(loss, rel=1e-12)
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
    bank = bank_of(params, x, h)
    search = select_sigmas(bank, y, w)
    sigmas = search.sigmas
    loss, _, _ = wrss_and_grads(params, x, y, h, bank, search, w)
    for k in (0.05, 3.0, -2.0):
        scaled = WlrParams(params.w1, params.b1, params.w2 * k, params.b2)
        bank_k = bank_of(scaled, x, h)
        search_k = select_sigmas(bank_k, y, w)
        np.testing.assert_allclose(search_k.sigmas, abs(k) * sigmas, rtol=1e-12)
        loss_k, _, _ = wrss_and_grads(scaled, x, y, h, bank_k, search_k, w)
        assert loss_k == pytest.approx(loss, rel=1e-12)


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
    with pytest.raises((NonFiniteLossError, DataError)):
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
    assert select_sigmas(bank, y).c == pytest.approx(trace.sigma_scales[0], rel=1e-12)
    _, again = train(x, y, elevations, cfg)
    assert again.sigma_scales == trace.sigma_scales


def test_sigma_scales_hold_one_search_per_loss():
    """At learning rate 0 the bank never moves, so every entry is the c of
    select_sigmas on the initial bank; zero iterations give one entry, and
    a run that stops early one entry per recorded loss."""
    rng = np.random.default_rng(33)
    x, y, elevations, _ = linear_scenario(rng, t_count=20)
    model, trace = train(x, y, elevations, TrainConfig(learning_rate=0.0, max_iterations=5,
                                                       tol=0.0, hidden=3, seed=6))
    z = model.standardizer.transform(x.reshape(-1, 2)).reshape(x.shape)
    initial = bank_of(WlrParams.init(2, 3, np.random.default_rng(6)), z, model.h_tilde)
    assert trace.sigma_scales == (select_sigmas(initial, y).c,) * 5
    for cfg, count in ((TrainConfig(max_iterations=0, hidden=3), 1),
                       (TrainConfig(learning_rate=0.01, tol=1e300, patience=2, hidden=3), 3)):
        _, trace = train(x, y, elevations, cfg)
        assert len(trace.sigma_scales) == len(trace.losses) == count


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


def test_each_iteration_builds_one_distance_matrix(monkeypatch):
    """k iterations forward the experts, build and shift one T x T matrix
    k + 1 times (the last for the final selection), and the trace holds
    the c each search returned; zero iterations take one step for the
    initial loss and the final selection."""
    calls = {"_forward_all": 0, "pairwise_sq_dists": 0, "loo_shift": 0}
    for name in calls:
        inner = getattr(wlr_agrnn, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(wlr_agrnn, name, counted)
    searched = []
    inner_select = wlr_agrnn.select_sigmas

    def recording_select(*args, **kwargs):
        search = inner_select(*args, **kwargs)
        searched.append(search.c)
        return search

    monkeypatch.setattr(wlr_agrnn, "select_sigmas", recording_select)
    rng = np.random.default_rng(29)
    x, y, elevations, _ = linear_scenario(rng, t_count=20)
    for k in (0, 4):
        for name in calls:
            calls[name] = 0
        searched.clear()
        cfg = TrainConfig(learning_rate=0.01, max_iterations=k, tol=0.0, hidden=3, seed=9)
        _, trace = train(x, y, elevations, cfg)
        assert calls == dict.fromkeys(calls, max(k, 1) + 1)
        assert trace.sigma_scales == tuple(searched[:max(k, 1)])


def test_zero_iterations_take_the_loss_from_the_final_search():
    rng = np.random.default_rng(30)
    x, y, elevations, _ = linear_scenario(rng, t_count=12)
    cfg = TrainConfig(max_iterations=0, hidden=3, seed=10)
    model, trace = train(x, y, elevations, cfg)
    z = (x - model.standardizer.mean) / model.standardizer.sd
    assert trace.losses == pytest.approx(
        [wrss_loss(model.params, z, y, model.h_tilde, model.sigmas, np.ones(12))], rel=1e-10
    )
    sd = model.bank.std(axis=1, ddof=1)
    np.testing.assert_allclose(model.sigmas, trace.sigma_scales[0] * sd, rtol=1e-15)


def test_inverse_residual_weights_come_from_the_leave_one_out_fit():
    """With a frozen bank every search picks the c of uniform weights; at
    iteration WEIGHT_EVERY the weights become 1 / (WEIGHT_EPS + |y - yhat|)
    of that fit, and that iteration's loss already uses them."""
    rng = np.random.default_rng(31)
    x, y, elevations, _ = linear_scenario(rng, t_count=16)
    cfg = TrainConfig(learning_rate=0.0, max_iterations=WEIGHT_EVERY + 1, tol=0.0, hidden=3,
                      weight_scheme="inverse_residual", seed=11)
    model, trace = train(x, y, elevations, cfg)
    assert trace.iterations == WEIGHT_EVERY + 1
    bank = model.bank
    sigmas = select_sigmas(bank, y).sigmas
    yhat = np.array([
        kernel_oracle(bank[:, t], np.delete(bank, t, axis=1), np.delete(y, t), sigmas)
        for t in range(16)
    ])
    r = y - yhat
    expect_w = 1.0 / (WEIGHT_EPS + np.abs(r))
    np.testing.assert_allclose(model.w, expect_w, rtol=1e-10)
    np.testing.assert_allclose(trace.losses[:WEIGHT_EVERY], np.sum(r * r), rtol=1e-10)
    assert trace.losses[WEIGHT_EVERY] == pytest.approx(np.sum(expect_w * r * r), rel=1e-10)


def test_training_holds_at_most_two_square_buffers():
    """The T x T memory budget: one iteration holds the search's shifted
    matrix and one kernel buffer, and frees both before the next search."""
    rng = np.random.default_rng(32)
    t_count = 600
    x = rng.normal(size=(t_count, 12, 3))
    y = rng.normal(size=t_count) * 3.0 + 40.0
    cfg = TrainConfig(learning_rate=0.01, max_iterations=3, tol=0.0, hidden=3, seed=12)
    tracemalloc.start()
    try:
        _, trace = train(x, y, rng.uniform(10.0, 500.0, size=12), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.iterations == 3
    assert peak < 2.5 * t_count * t_count * 8


# -- the cell bound -------------------------------------------------------------
# Each guard refuses before its first large allocation, so the steps after it
# are replaced by failures: a missing guard fails the test, not the machine.


def fail(what):
    def call(*args, **kwargs):
        pytest.fail(f"{what} ran")
    return call


def refused_with_small_peak(call, match) -> None:
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=match):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_train_over_the_cell_bound_is_refused_before_standardizing(monkeypatch):
    """3.5 x 9000^2 cells exceed the bound; the tensor itself is 72 kB."""
    monkeypatch.setattr(wlr_agrnn.Standardizer, "fit", fail("standardizing"))
    monkeypatch.setattr(wlr_agrnn, "pairwise_sq_dists", fail("the distance matrix"))
    x = np.zeros((9000, 1, 1))
    refused_with_small_peak(
        lambda: train(x, np.zeros(9000), np.ones(1)),
        rf"^leave one out stage of 3.5 x 9000 x 9000 cells would exceed {MAX_ARRAY_CELLS} "
        "cells; wlr_agrnn trains on 9000 epochs: use a shorter train range$")


def test_hidden_width_over_the_cell_bound_is_refused_before_drawing_weights(monkeypatch):
    monkeypatch.setattr(wlr_agrnn.Standardizer, "fit", fail("standardizing"))
    monkeypatch.setattr(wlr_agrnn.WlrParams, "init", fail("drawing weights"))
    refused_with_small_peak(
        lambda: train(np.zeros((20, 2, 3)), np.zeros(20), np.ones(2),
                      TrainConfig(hidden=10 ** 11)),
        r"^expert and Adam state of 7 x 1e\+11 x 4 cells would exceed .*; "
        "lower the wlr_agrnn hidden width$")


def test_select_sigmas_over_the_cell_bound_is_refused_before_its_matrices(monkeypatch):
    """The shifted matrix and the kernel, 2 x 12000^2 cells."""
    monkeypatch.setattr(wlr_agrnn, "pairwise_sq_dists", fail("the distance matrix"))
    refused_with_small_peak(
        lambda: select_sigmas(np.zeros((1, 12000)), np.zeros(12000)),
        r"^shifted distances and kernel of 2 x 12000 x 12000 cells would exceed .*"
        "wlr_agrnn trains on 12000 epochs")


@pytest.mark.parametrize("kind", ["wlr_agrnn", "grnn"])
def test_prediction_over_the_cell_bound_is_refused_before_its_distances(monkeypatch, kind):
    """20000 queries against a 20000-column bank."""
    monkeypatch.setattr(wlr_agrnn, "pairwise_sq_dists", fail("the distance matrix"))
    refused_with_small_peak(
        lambda: agrnn_predict_batch(np.zeros((1, 20000)), np.zeros((1, 20000)),
                                    np.zeros(20000), np.ones(1), kind),
        rf"^distance matrix of 20000 x 20000 cells would exceed .*; predict {kind} on a "
        "shorter range than 20000 epochs$")


def test_wide_expert_peak_is_within_its_declared_cells():
    """Seven hidden x (n + 1) arrays cover the heap peak of a wide expert's fit."""
    rng = np.random.default_rng(33)
    x, y = rng.normal(size=(30, 2, 3)), rng.normal(size=30)
    hidden = 50000
    tracemalloc.start()
    try:
        train(x, y, np.full(2, 100.0), TrainConfig(max_iterations=3, hidden=hidden))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 3 * hidden * 3 * 8 < peak < 7 * hidden * (3 + 1) * 8
