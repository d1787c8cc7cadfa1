import math
import re
import tracemalloc

import numpy as np
import pytest

from elorantd import baselines, wlr_agrnn
from elorantd.baselines import (
    GRNN_SIGMA_RANGE,
    BpnnConfig,
    BpnnModel,
    GrnnConfig,
    GrnnModel,
    MoeConfig,
    MoeModel,
    _loss_and_grads,
    default_group_slices,
    grnn_predict_batch,
    train_bpnn,
    train_grnn,
    train_moe,
)
from elorantd.errors import DataError, NonFiniteLossError
from elorantd.features import ScalarStandardizer, Standardizer
from elorantd.optim import MAX_ARRAY_CELLS
from elorantd.stats import rmse
from elorantd.synth import ols_oracle
from elorantd.types import FACTORS_3
from elorantd.wlr_agrnn import agrnn_predict_batch
from tests.oracles import kernel_oracle
from tests.test_wlr_agrnn import fail, refused_with_small_peak


# -- BPNN ---------------------------------------------------------------------


def test_bpnn_learns_xor_style_target():
    rng = np.random.default_rng(42)
    x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]] * 10)
    x += rng.normal(0.0, 0.05, size=x.shape)
    y = np.sign(x[:, 0] * x[:, 1]).astype(float)
    cfg = BpnnConfig(hidden=16, learning_rate=0.01, max_iterations=5000, seed=1)
    model, trace = train_bpnn(x, y, cfg)
    assert trace.losses[-1] < 1e-2
    assert np.abs(model.predict(x) - y).max() < 0.2


def test_bpnn_zero_iterations_is_initial_net():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    cfg = BpnnConfig(hidden=4, max_iterations=0, seed=9)
    model, trace = train_bpnn(x, y, cfg)
    assert len(trace.losses) == 1
    assert not trace.converged
    # reproduce the seeded initialization by hand
    init = np.random.default_rng(9)
    lim1 = 1.0 / math.sqrt(3)
    lim2 = 1.0 / math.sqrt(4)
    w1 = init.uniform(-lim1, lim1, size=(4, 3))
    b1 = init.uniform(-lim1, lim1, size=4)
    w2 = init.uniform(-lim2, lim2, size=4)
    z = model.standardizer.transform(x)
    expect = model.target_scale.inverse(np.tanh(z @ w1.T + b1) @ w2)
    np.testing.assert_allclose(model.predict(x), expect, rtol=1e-12)


def test_bpnn_matches_ols_on_linear_target():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 3))
    y = 50.0 + x @ np.array([3.0, -2.0, 1.0]) + rng.normal(0.0, 0.5, size=200)
    cfg = BpnnConfig(hidden=16, learning_rate=0.01, max_iterations=2000, seed=0)
    model, _ = train_bpnn(x, y, cfg)
    design = np.column_stack([np.ones(200), x])
    beta = ols_oracle(design, y)
    ols_rmse = rmse(y, design @ beta)
    bpnn_rmse = rmse(y, model.predict(x))
    assert bpnn_rmse < 1.1 * ols_rmse
    assert bpnn_rmse > 0.5 * ols_rmse  # no pathological overfit on this budget


def test_bpnn_rejects_non_finite_inputs():
    x = np.ones((10, 2)) + np.arange(10)[:, None]
    x[3, 1] = np.nan
    with pytest.raises(NonFiniteLossError):
        train_bpnn(x, np.arange(10.0), BpnnConfig(max_iterations=3))


# -- GRNN ---------------------------------------------------------------------


def test_grnn_single_row_bank_is_constant():
    bank = np.array([[0.5, -0.5]])
    y = np.array([33.0])
    out = grnn_predict_batch(np.array([[9.0, 9.0], [0.5, -0.5]]), bank, y, sigma=1.0)
    np.testing.assert_allclose(out, 33.0)


def test_grnn_symmetric_midpoint():
    bank = np.array([[-1.0], [1.0]])
    y = np.array([10.0, 30.0])
    out = grnn_predict_batch(np.array([[0.0]]), bank, y, sigma=0.8)
    assert out[0] == pytest.approx(20.0, rel=1e-12)


def test_grnn_matches_nested_loop_oracle():
    rng = np.random.default_rng(4)
    bank = rng.normal(size=(4, 3))
    y = rng.normal(size=4)
    sigma = 1.0
    for _ in range(4):
        q = rng.normal(size=3)
        num = den = 0.0
        for t in range(4):
            k = math.exp(-float(np.sum((q - bank[t]) ** 2)) / (2.0 * sigma**2))
            num += k * y[t]
            den += k
        got = grnn_predict_batch(q[None, :], bank, y, sigma)[0]
        assert got == pytest.approx(num / den, rel=1e-12)


def test_grnn_equals_tied_sigma_anisotropic_kernel():
    rng = np.random.default_rng(5)
    bank = rng.normal(size=(6, 3))
    y = rng.normal(size=6)
    sigma = 0.7
    q = rng.normal(size=3)
    iso = grnn_predict_batch(q[None, :], bank, y, sigma)[0]
    aniso = agrnn_predict_batch(q[:, None], bank.T, y, np.full(3, sigma))[0]
    assert iso == pytest.approx(aniso, rel=1e-12)


def test_grnn_output_bounded_by_targets():
    rng = np.random.default_rng(6)
    bank = rng.normal(size=(15, 2))
    y = rng.normal(size=15) * 40.0
    q = rng.normal(size=(30, 2)) * 4.0
    out = grnn_predict_batch(q, bank, y, sigma=0.5)
    assert out.min() >= y.min() - 1e-9
    assert out.max() <= y.max() + 1e-9


def test_grnn_overflowing_distance_falls_back_like_agrnn():
    # the first query's squared distances overflow to inf, so none of its
    # kernel weights is finite; the second query's are
    bank = np.array([[0.0], [1.0]])
    y = np.array([5.0, 9.0])
    queries = np.array([[1e200], [0.5]])
    with pytest.warns(UserWarning, match="nearest bank column") as caught:
        out = grnn_predict_batch(queries, bank, y, 1.0)
    with pytest.warns(UserWarning, match="nearest bank column"):
        expect = agrnn_predict_batch(queries.T, bank.T, y, np.ones(1))
    assert [w.category for w in caught] == [UserWarning]
    assert np.isfinite(out).all()
    np.testing.assert_array_equal(out, expect)


def test_grnn_overflowing_distance_picks_the_nearest_row():
    bank = np.array([[-1e152], [1e152]])
    y = np.array([5.0, 9.0])
    with pytest.warns(UserWarning, match="nearest bank column"):
        out = grnn_predict_batch(np.array([[1e155], [0.0]]), bank, y, 1.0)
    np.testing.assert_array_equal(out, [9.0, 7.0])


def test_grnn_refuses_a_batch_whose_every_query_would_fall_back():
    bank = np.array([[-1e152], [1e152]])
    y = np.array([5.0, 9.0])
    with pytest.raises(DataError, match="grnn kernel weights underflowed for all 2 queries"):
        grnn_predict_batch(np.array([[1e155], [-1e155]]), bank, y, 1.0)


def test_grnn_sigma_selection_matches_loo_oracle():
    """The searched sigma's brute-force leave-one-out RSS is no higher than
    at any point of the 30-point log grid that chose sigma before."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(25, 2)) * [2.0, 5.0] + [10.0, -3.0]
    y = np.sin(x[:, 0]) * 10.0 + rng.normal(0, 0.5, size=25)
    model, trace = train_grnn(x, y)
    assert len(trace.losses) == 1  # no iterative training
    assert trace.converged

    def loo_rss(sigma):
        total = 0.0
        for t in range(25):
            keep = np.arange(25) != t
            pred = kernel_oracle(model.bank[t], model.bank[keep].T, y[keep], [sigma] * 2)
            total += (y[t] - pred) ** 2
        return total

    lo, hi = GRNN_SIGMA_RANGE
    grid = np.logspace(math.log10(lo), math.log10(hi), 30) * math.sqrt(2)
    assert lo * math.sqrt(2) <= model.sigma <= hi * math.sqrt(2)
    assert loo_rss(model.sigma) <= min(loo_rss(s) for s in grid)
    assert trace.losses[0] == pytest.approx(loo_rss(model.sigma), rel=1e-9)


def test_grnn_search_makes_fifteen_kernel_evaluations(monkeypatch):
    """Golden section on log sigma over a factor of 100 at tol 0.02 takes
    14 evaluations, and the trace one more; an explicit sigma takes one."""
    calls = []
    inner = wlr_agrnn.kernel_regression

    def counted(*args, **kwargs):
        calls.append(args[2])
        return inner(*args, **kwargs)

    monkeypatch.setattr(wlr_agrnn, "kernel_regression", counted)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    model, _ = train_grnn(x, y)
    assert len(calls) == 15
    assert calls[-1] == 0.5 / (model.sigma * model.sigma)
    calls.clear()
    train_grnn(x, y, GrnnConfig(sigma=2.5))
    assert calls == [0.5 / (2.5 * 2.5)]


def test_grnn_explicit_sigma_respected():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    model, _ = train_grnn(x, y, GrnnConfig(sigma=2.5))
    assert model.sigma == 2.5
    with pytest.raises(ValueError):
        train_grnn(x, y, GrnnConfig(sigma=0.0))


def test_grnn_error_paths():
    with pytest.raises(DataError, match="bank has no rows"):
        grnn_predict_batch(np.ones((1, 2)), np.empty((0, 2)), np.empty(0), 1.0)
    with pytest.raises(DataError, match=r"queries \(1, 3\) vs bank \(4, 2\)"):
        grnn_predict_batch(np.ones((1, 3)), np.ones((4, 2)), np.ones(4), 1.0)
    with pytest.raises(ValueError):
        grnn_predict_batch(np.ones((1, 2)), np.ones((4, 2)), np.ones(4), -1.0)


# -- mixture of experts -------------------------------------------------------


def build_moe(experts, gate_w, gate_b, x_fit, y_fit, slices=None):
    n = x_fit.shape[1]
    if slices is None:
        slices = tuple((0, n) for _ in experts)
    return MoeModel(
        experts=tuple(experts),
        gate_w=np.asarray(gate_w, dtype=float),
        gate_b=np.asarray(gate_b, dtype=float),
        group_slices=slices,
        standardizer=Standardizer.fit(x_fit),
        target_scale=ScalarStandardizer.fit(y_fit),
        factors=FACTORS_3,
        location_mode="receiver_only",
    )


def gate_weights(model, x):
    """Softmax gate probabilities of a mixture-of-experts model."""
    logits = model.standardizer.transform(x) @ model.gate_w.T + model.gate_b
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def random_expert(rng, width, hidden):
    return (
        rng.normal(size=(hidden, width)),
        rng.normal(size=hidden),
        rng.normal(size=hidden),
        float(rng.normal()),
    )


def test_moe_one_hot_gate_selects_expert():
    rng = np.random.default_rng(10)
    x_fit = rng.normal(size=(30, 2))
    y_fit = rng.normal(size=30) * 10.0
    e0 = random_expert(rng, 2, 3)
    e1 = random_expert(rng, 2, 3)
    # gate bias dominates: expert 1 wins everywhere
    model = build_moe([e0, e1], np.zeros((2, 2)), [-1000.0, 0.0], x_fit, y_fit)
    x = rng.normal(size=(5, 2))
    z = model.standardizer.transform(x)
    w1, b1, w2, b2 = e1
    expect = model.target_scale.inverse(np.tanh(z @ w1.T + b1) @ w2 + b2)
    np.testing.assert_allclose(model.predict(x), expect, rtol=1e-12)
    gates = gate_weights(model, x)
    np.testing.assert_allclose(gates[:, 1], 1.0)


def test_moe_identical_experts_ignore_gate():
    rng = np.random.default_rng(11)
    x_fit = rng.normal(size=(30, 2))
    y_fit = rng.normal(size=30)
    e = random_expert(rng, 2, 3)
    x = rng.normal(size=(8, 2))
    a = build_moe([e, e, e], rng.normal(size=(3, 2)), rng.normal(size=3), x_fit, y_fit)
    b = build_moe([e, e, e], rng.normal(size=(3, 2)), rng.normal(size=3), x_fit, y_fit)
    np.testing.assert_allclose(a.predict(x), b.predict(x), rtol=1e-12)


def test_moe_gate_weights_sum_to_one():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(50, 3)) * 20.0
    y = rng.normal(size=50)
    cfg = MoeConfig(experts=3, expert_hidden=4, max_iterations=20, seed=2)
    model, _ = train_moe(x, y, cfg)
    gates = gate_weights(model, rng.normal(size=(40, 3)) * 100.0)
    np.testing.assert_allclose(gates.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(gates >= 0)


def test_moe_beats_single_bpnn_on_regime_switching_target():
    rng = np.random.default_rng(42)
    x = rng.uniform(-2.0, 2.0, size=(240, 2))
    y = np.where(x[:, 1] > 0, 5.0 + 3.0 * x[:, 0], -5.0 - 3.0 * x[:, 0])
    y += rng.normal(0.0, 0.2, size=240)
    # roughly equal parameter budgets: 2x(8-hidden expert) + gate vs 16-hidden net
    moe, _ = train_moe(
        x, y, MoeConfig(experts=2, expert_hidden=8, learning_rate=0.02,
                        max_iterations=2500, seed=0)
    )
    bpnn, _ = train_bpnn(
        x, y, BpnnConfig(hidden=16, learning_rate=0.02, max_iterations=2500, seed=0)
    )
    assert rmse(y, moe.predict(x)) < rmse(y, bpnn.predict(x))


_ADAM_BAD = [dict(patience=0), dict(max_iterations=-1), dict(learning_rate=float("nan")),
             dict(tol=-1e-9), dict(seed=-1)]


@pytest.mark.parametrize(
    "config,bad",
    [(BpnnConfig, bad) for bad in [dict(hidden=0), *_ADAM_BAD]]
    + [(MoeConfig, bad) for bad in [dict(expert_hidden=0), dict(experts=1), *_ADAM_BAD]],
)
def test_baseline_config_validation(config, bad):
    with pytest.raises(ValueError):
        config(**bad)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("inf"), 1e-160])
def test_grnn_config_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError):
        GrnnConfig(sigma=sigma)


def test_moe_requires_two_experts():
    rng = np.random.default_rng(13)
    with pytest.raises(ValueError):
        train_moe(
            rng.normal(size=(10, 2)), rng.normal(size=10),
            MoeConfig(experts=1, max_iterations=1),
        )


def test_default_group_slices():
    # flat input: every expert sees everything
    assert default_group_slices(12, 3, n_locations=1) == ((0, 12), (0, 12), (0, 12))
    # location-major input split into contiguous location groups
    assert default_group_slices(12, 2, n_locations=4) == ((0, 6), (6, 12))
    # more experts than locations: fall back to full views
    assert default_group_slices(12, 6, n_locations=4) == tuple((0, 12) for _ in range(6))


def test_moe_zero_iterations_trace():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    model, trace = train_moe(x, y, MoeConfig(experts=2, max_iterations=0, seed=5))
    assert len(trace.losses) == 1
    assert isinstance(model, MoeModel)


@pytest.mark.parametrize("slices", [((0, 5), (5, 12)), ((-1, 4), (0, 10)), ((0, 10), (4, 4))])
def test_moe_rejects_slices_outside_the_inputs_before_training(slices):
    rng = np.random.default_rng(17)
    with pytest.raises(ValueError, match="does not fit"):
        train_moe(rng.normal(size=(12, 10)), rng.normal(size=12),
                  MoeConfig(experts=2, max_iterations=1), group_slices=slices)


# -- the tanh-mixture trainer's objective and gradients -----------------------


def mixture_mse(params, slices, z, ys):
    """Mean squared error of the tanh mixture, row by row; a softmax gate
    follows the experts' parameters when there are two or more."""
    total = 0.0
    for t in range(z.shape[0]):
        outs = np.array([
            np.tanh(w1 @ z[t, lo:hi] + b1) @ w2 + b2[0]
            for (w1, b1, w2, b2), (lo, hi) in zip(
                (params[4 * k: 4 * k + 4] for k in range(len(slices))), slices)
        ])
        if len(slices) == 1:
            pred = outs[0]
        else:
            logits = params[-2] @ z[t] + params[-1]
            g = np.exp(logits - logits.max())
            pred = (g / g.sum()) @ outs
        total += (pred - ys[t]) ** 2
    return total / z.shape[0]


def check_mixture_gradients(params, slices, z, ys, eps=1e-6):
    """_loss_and_grads against central differences of the row-by-row loss."""
    loss, grads = _loss_and_grads(params, slices, z, ys)
    assert loss == pytest.approx(mixture_mse(params, slices, z, ys), rel=1e-12)
    assert [g.shape for g in grads] == [p.shape for p in params]
    fd_all: list[float] = []
    an_all: list[float] = []
    for i, arr in enumerate(params):
        for idx in np.ndindex(arr.shape):
            p_hi = [p.copy() for p in params]
            p_lo = [p.copy() for p in params]
            p_hi[i][idx] += eps
            p_lo[i][idx] -= eps
            fd_all.append((mixture_mse(p_hi, slices, z, ys)
                           - mixture_mse(p_lo, slices, z, ys)) / (2.0 * eps))
            an_all.append(float(grads[i][idx]))
    np.testing.assert_allclose(an_all, fd_all, rtol=1e-5, atol=1e-8 * max(1.0, loss))


def test_one_expert_gradients_match_finite_differences():
    """The BPNN case: one expert over every input and no gate."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(7, 4))
        ys = rng.normal(size=7)
        params = [*random_expert(rng, 4, 3)[:3], rng.normal(size=1)]
        check_mixture_gradients(params, ((0, 4),), z, ys)


def test_gated_expert_gradients_match_finite_differences():
    """Three experts on overlapping slices of five inputs, softmax-gated."""
    slices = ((0, 3), (1, 4), (2, 5))
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        z = rng.normal(size=(9, 5))
        ys = rng.normal(size=9)
        params = []
        for lo, hi in slices:
            params += [*random_expert(rng, hi - lo, 2)[:3], rng.normal(size=1)]
        params += [rng.normal(size=(3, 5)), rng.normal(size=3)]
        check_mixture_gradients(params, slices, z, ys)


# -- shared contract ----------------------------------------------------------


def test_all_baselines_return_model_and_trace():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(30, 2)) * [5.0, 2.0]
    y = rng.normal(size=30) * 10.0 + 100.0
    bp, t1 = train_bpnn(x, y, BpnnConfig(max_iterations=10, seed=0))
    gr, t2 = train_grnn(x, y)
    mo, t3 = train_moe(x, y, MoeConfig(max_iterations=10, seed=0))
    for model, trace in ((bp, t1), (gr, t2), (mo, t3)):
        # unlabelled: pipeline.train_model sets the labels (test_pipeline)
        assert (model.factors, model.location_mode, model.meta) == ((), "receiver_only", {})
        assert len(trace.losses) >= 1
        batch = model.predict(x)
        assert batch.shape == (30,)
        one_row = model.predict(x[3:4])
        assert one_row.shape == (1,)
        assert one_row[0] == pytest.approx(batch[3], rel=1e-12)
        for bad in (x[0], x[:, :1], np.hstack((x, x))):
            with pytest.raises(DataError, match=f"input shape {re.escape(str(bad.shape))} "
                                                "does not match 2 columns"):
                model.predict(bad)


def test_baseline_models_are_deterministic():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    a, _ = train_bpnn(x, y, BpnnConfig(max_iterations=30, seed=11))
    b, _ = train_bpnn(x, y, BpnnConfig(max_iterations=30, seed=11))
    np.testing.assert_array_equal(a.w1, b.w1)
    np.testing.assert_array_equal(a.w2, b.w2)
    m1, _ = train_moe(x, y, MoeConfig(max_iterations=30, seed=11))
    m2, _ = train_moe(x, y, MoeConfig(max_iterations=30, seed=11))
    np.testing.assert_array_equal(m1.gate_w, m2.gate_w)
    for e1, e2 in zip(m1.experts, m2.experts):
        np.testing.assert_array_equal(e1[0], e2[0])


# -- the cell bound -------------------------------------------------------------
# Each guard refuses before its first large allocation, so the steps after it
# are replaced by failures: a missing guard fails the test, not the machine.


def test_grnn_over_the_cell_bound_is_refused_before_standardizing(monkeypatch):
    """Two 12000 x 12000 matrices and the 12000 x 1 bank exceed the bound."""
    monkeypatch.setattr(baselines.Standardizer, "fit", fail("standardizing"))
    monkeypatch.setattr(baselines, "pairwise_sq_dists", fail("the distance matrix"))
    refused_with_small_peak(
        lambda: train_grnn(np.zeros((12000, 1)), np.zeros(12000)),
        rf"^kernels and bank of 2 x 12000 x 12001 cells would exceed {MAX_ARRAY_CELLS} cells; "
        "grnn trains on 12000 epochs: use a shorter train range$")


def test_grnn_peak_is_within_its_declared_cells():
    """The declared 2 T (T + n) cells cover the measured heap peak."""
    rng = np.random.default_rng(40)
    t_count, n = 700, 40
    x, y = rng.normal(size=(t_count, n)), rng.normal(size=t_count)
    tracemalloc.start()
    try:
        train_grnn(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * t_count * t_count * 8 < peak < 2 * t_count * (t_count + n) * 8


@pytest.mark.parametrize("shape,train,cfg,match", [
    ((20, 3), train_bpnn, BpnnConfig(hidden=10 ** 11),
     r"^activations and gate of 5 x 20 x 1e\+11 cells would exceed .*; lower the bpnn hidden "
     "width or shorten the train range$"),
    ((20, 3), train_moe, MoeConfig(expert_hidden=10 ** 11),
     r"^activations and gate of 8 x 20 x 1e\+11 cells would exceed .*; lower the moe "
     "expert_hidden width or experts, or shorten the train range$"),
    ((20, 3), train_moe, MoeConfig(experts=10 ** 12),
     r"^weights and Adam state of 7 x 1e\+12 x 9 x 5 cells would exceed "),
    ((4, 100), train_bpnn, BpnnConfig(hidden=10 ** 6),  # 4 epochs, but 10**6 x 100 weights
     r"^weights and Adam state of 7 x 1 x 1000001 x 102 cells would exceed "),
])
def test_mixture_widths_over_the_cell_bound_are_refused_before_any_weight(monkeypatch, shape,
                                                                          train, cfg, match):
    monkeypatch.setattr(baselines, "default_group_slices", fail("default_group_slices"))
    monkeypatch.setattr(baselines, "_fit_tanh_mixture", fail("the fit"))
    refused_with_small_peak(lambda: train(np.zeros(shape), np.zeros(shape[0]), cfg), match)


@pytest.mark.parametrize("experts,t_count,n,hidden", [(1, 300, 3, 500), (4, 50, 40, 500)])
def test_mixture_peak_is_within_its_declared_cells(experts, t_count, n, hidden):
    """The two declared sets together cover the measured heap peak of a fit."""
    rng = np.random.default_rng(41)
    x, y = rng.normal(size=(t_count, n)), rng.normal(size=t_count)
    tracemalloc.start()
    try:
        if experts == 1:
            train_bpnn(x, y, BpnnConfig(hidden=hidden, max_iterations=3))
        else:
            train_moe(x, y, MoeConfig(experts=experts, expert_hidden=hidden, max_iterations=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    declared = ((experts + 4) * t_count * (hidden + 4)
                + 7 * experts * (hidden + 1) * (n + 2))
    assert experts * t_count * hidden * 8 < peak < declared * 8
