"""The shared Adam fit and its stop rule, against a plain-loop reference."""
import math
import re

import numpy as np
import pytest

from elorantd.errors import ConfigError, NonFiniteLossError
from elorantd.optim import MAX_ARRAY_CELLS, AdamConfig, fit_adam, loss_converged, require_cells
from tests.oracles import adam_oracle


def least_squares(rng):
    """A 3-weight, 1-intercept linear fit of 8 noisy targets."""
    a = rng.normal(size=(8, 3))
    b = a @ np.array([1.5, -2.0, 0.5]) + 3.0 + 0.1 * rng.normal(size=8)
    return a, b


def test_fit_adam_matches_the_algorithm_1_reference():
    rng = np.random.default_rng(3)
    a, b = least_squares(rng)
    w, c = rng.normal(size=3), np.zeros(1)
    start = [*w, *c]

    def step(it):
        r = a @ w + c[0] - b
        return float(r @ r), [2.0 * a.T @ r, np.array([2.0 * r.sum()])]

    def scalar_loss_and_grad(theta):
        r = [sum(a[t, k] * theta[k] for k in range(3)) + theta[3] - b[t] for t in range(8)]
        grad = [2.0 * sum(a[t, k] * r[t] for t in range(8)) for k in range(3)]
        return sum(x * x for x in r), grad + [2.0 * sum(r)]

    cfg = AdamConfig(learning_rate=0.05, max_iterations=40, tol=0.0)
    trace = fit_adam([w, c], step, cfg, "toy")
    theta, losses = adam_oracle(start, scalar_loss_and_grad, 0.05, 40)
    assert trace.iterations == 40 and not trace.converged
    np.testing.assert_allclose([*w, *c], theta, rtol=1e-12)
    np.testing.assert_allclose(trace.losses, losses, rtol=1e-12)
    assert trace.losses[-1] < 0.5 * trace.losses[0]


def test_fit_adam_with_zero_iterations_records_the_initial_loss_and_updates_nothing():
    p = np.array([1.0, -2.0])
    calls = []

    def step(it):
        calls.append(it)
        return float(p @ p), [2.0 * p]

    trace = fit_adam([p], step, AdamConfig(max_iterations=0), "toy")
    assert calls == [0]
    assert trace.losses == (5.0,) and not trace.converged
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_fit_adam_reports_a_non_finite_loss_or_weight():
    p = np.array([1.0])
    with pytest.raises(NonFiniteLossError, match="^toy loss became non-finite at iteration 2$"):
        fit_adam([p], lambda it: (math.inf if it == 2 else 1.0, [np.ones(1)]),
                 AdamConfig(tol=0.0), "toy")
    # a weight that overflows while the loss stays finite (a saturated tanh)
    q = np.array([1e308])
    with pytest.raises(NonFiniteLossError, match="^toy loss became non-finite at iteration 1$"):
        fit_adam([q], lambda it: (1.0, [-np.ones(1)]),
                 AdamConfig(learning_rate=1e308, max_iterations=1), "toy")


def test_loss_converged_needs_patience_changes_each_below_tol_relative_to_the_window_start():
    # the last two changes are 1 each, relative to the window's first loss, 128
    losses = [1000.0, 128.0, 129.0, 130.0]
    assert loss_converged(losses, tol=1.01 / 128, patience=2)
    assert not loss_converged(losses, tol=1.0 / 128, patience=2)  # strictly below tol
    assert not loss_converged(losses, tol=1.01 / 128, patience=3)  # 1000 -> 128 in the window
    assert not loss_converged(losses[1:], tol=1.0, patience=3)  # too few losses
    # below 1 the changes are absolute: 5e-4 is 5e-4 of max(1, 1e-3)
    assert loss_converged([1e-3, 1.5e-3, 2e-3], tol=1e-3, patience=2)
    assert not loss_converged([1e-3, 1.5e-3, 2e-3], tol=4e-4, patience=2)


# -- the cell bound -------------------------------------------------------------


def test_require_cells_names_the_largest_entry_over_the_bound():
    with pytest.raises(ConfigError, match=r"^Gram matrix of 20000 x 20000 cells would exceed "
                                          rf"{MAX_ARRAY_CELLS} cells; lower the degree$"):
        require_cells(ConfigError, "lower the degree", design=(300, 20000),
                      Gram_matrix=(20000, 20000), residual_block=(30000, 4))


def test_require_cells_passes_entries_at_the_bound():
    require_cells(ValueError, "unused", grid=(2 ** 14, 2 ** 14), kernels=(4, 2 ** 13, 2 ** 13),
                  empty=(0, 10 ** 400))


@pytest.mark.parametrize("dims,shown", [
    ((3.5, 9000, 9000), "3.5 x 9000 x 9000"),
    ((1e300, 1e300), "1e+300 x 1e+300"),  # the product overflows to inf
    ((math.inf, 1.0), "1.071508607e+301 x 1"),  # counted as 2**1000
    ((10 ** 400, 1), "1.071508607e+301 x 1"),  # an int too large for a float
    ((np.int64(2 ** 20), 2 ** 9), "1048576 x 512"),
])
def test_require_cells_multiplies_as_floats(dims, shown):
    with pytest.raises(ValueError, match=f"^stage of {re.escape(shown)} cells would exceed"):
        require_cells(ValueError, "remedy", stage=dims)
