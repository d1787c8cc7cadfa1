"""LASSO-regularized multivariate polynomial regression.

Training minimizes the raw sum of squared errors plus alpha times the L1
norm of the polynomial coefficients (column 0, the intercept, is
unpenalized) by cyclic coordinate descent with exact soft-threshold
updates.  Because the loss uses the raw sum rather than the mean, alpha
values are tied to the training-set size.

train(x, y, cfg) takes its settings as one LassoConfig; sweep() scores a
grid of values of one of its fields on a validation set.  The model's
factors, location mode and meta are left at their defaults: the caller
that knows them (pipeline.train_model) sets them.

The descent runs in covariance form (Friedman, Hastie & Tibshirani 2010,
"Regularization Paths for Generalized Linear Models via Coordinate
Descent", JSS 33): the Gram matrix X^T X and X^T y are computed once, so
updating coordinate p costs one product over the p columns instead of
two passes over the T training rows.  descend() runs K alphas at once as
the K columns ("lanes") of one coefficient block: the lanes share every
update but the soft threshold, and each stops on its own rule and leaves
the block.  An alpha sweep is one descent with one lane per alpha, over
one design; a single fit is one lane.  The residual is formed only at
sweep boundaries, for the recorded objective.
"""
from __future__ import annotations

import typing
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError
from .features import PolyTermIndex, Standardizer, poly_expand, term_count
from .optim import TrainingTrace, require_at_least, require_cells
from .stats import rmse
from .types import FactorSet

DEGREE_GRID = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class LassoConfig:
    """Options of train(); seed is only recorded, the fit is deterministic."""

    degree: int = 3
    alpha: float = 0.5
    tol: float = 1e-8
    max_sweeps: int = 10000
    seed: int = 0

    def __post_init__(self):
        require_at_least(self, 0, "alpha", "tol", "seed")
        require_at_least(self, 1, "degree", "max_sweeps")


def default_alpha_grid() -> tuple[float, ...]:
    """Log-spaced 1e-3..1e2 with 0.5 spliced in."""
    grid = set(np.logspace(-3.0, 2.0, 26).tolist())
    grid.add(0.5)
    return tuple(sorted(grid))


def descend(
    design: np.ndarray,
    y: np.ndarray,
    alphas,
    tol: float = LassoConfig.tol,
    max_sweeps: int = LassoConfig.max_sweeps,
) -> tuple[np.ndarray, tuple[TrainingTrace, ...]]:
    """Cyclic coordinate descent on ||y - Xb||^2 + alpha * sum_{p >= 1} |b_p|,
    one lane per alpha.

    Column 0 (the intercept) is unpenalized.  The lanes share every
    coordinate update but the soft threshold, and each stops on its own:
    when no coefficient moved by tol or more over a sweep, or after
    max_sweeps.  Returns the (K, P) coefficients, one row per alpha, and
    each lane's per-sweep objective trace.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise DataError(f"design {x.shape} vs target {y.shape}")
    if alphas.ndim != 1 or not np.all(alphas >= 0):
        raise ValueError("alphas must be a 1-d array of non-negative values")
    n_cols = x.shape[1]
    col_sq = np.einsum("tp,tp->p", x, x)
    if np.any(col_sq == 0.0):
        raise DataError(
            f"all-zero design column at index {int(np.flatnonzero(col_sq == 0.0)[0])}"
        )
    # row p times [B; 1] is coordinate p's unpenalized update in every lane:
    # (x_p.y - sum_{q != p} x_p.x_q b_q) / |x_p|^2
    update = np.empty((n_cols, n_cols + 1))
    np.negative(x.T @ x, out=update[:, :n_cols])
    np.fill_diagonal(update[:, :n_cols], 0.0)
    update[:, n_cols] = x.T @ y
    update /= col_sq[:, None]
    rows = list(update)
    # coordinate p's soft threshold in lane k: alpha_k / (2 |x_p|^2); row 0, the
    # intercept's, is never read
    bound = alphas / (2.0 * col_sq[:, None])
    betas = np.zeros((alphas.size, n_cols))
    losses: list[list[float]] = [[] for _ in alphas]
    converged = np.zeros(alphas.size, dtype=bool)
    lanes = np.arange(alphas.size)  # the live lanes, in block column order
    block = np.zeros((n_cols + 1, alphas.size))  # [B; 1], one column per live lane
    block[n_cols] = 1.0
    residual = np.empty((alphas.size, y.size))  # one row per live lane
    low, high, out = list(-bound), list(bound), list(block)
    # bound once: the inner loop is numpy call overhead on one row at a time
    dot, maximum, minimum, subtract = np.dot, np.maximum, np.minimum, np.subtract
    for _ in range(max_sweeps):
        if not lanes.size:
            break
        start = block[:n_cols].copy()
        block[0] = dot(rows[0], block)
        for p in range(1, n_cols):
            c = dot(rows[p], block)
            subtract(c, minimum(maximum(c, low[p]), high[p]), out=out[p])
        coef = block[:n_cols]
        max_delta = np.max(np.abs(coef - start), axis=0)
        res = residual[:lanes.size]
        dot(coef.T, x.T, out=res)
        subtract(y, res, out=res)
        live = alphas[lanes]
        objective = np.einsum("kt,kt->k", res, res) + live * np.sum(np.abs(coef[1:]), axis=0)
        for lane, value in zip(lanes.tolist(), objective.tolist()):
            losses[lane].append(value)
        stop = max_delta < tol
        if stop.any():
            betas[lanes[stop]] = coef[:, stop].T
            converged[lanes[stop]] = True
            lanes, block, bound = lanes[~stop], block[:, ~stop], bound[:, ~stop]
            low, high, out = list(-bound), list(bound), list(block)
    betas[lanes] = block[:n_cols].T
    return betas, tuple(TrainingTrace(tuple(lane), bool(done))
                        for lane, done in zip(losses, converged))


@dataclass(frozen=True)
class LassoMprModel:
    """Trained polynomial regressor over standardized raw inputs."""

    n_inputs: int
    degree: int
    alpha: float
    standardizer: Standardizer
    beta: np.ndarray
    index: PolyTermIndex | None = None  # None: built from n_inputs and degree
    factors: FactorSet = ()
    location_mode: str = "receiver_only"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        columns = term_count(self.n_inputs, self.degree) + 1
        if self.beta.shape != (columns,) or self.standardizer.mean.shape != (self.n_inputs,):
            raise ValueError(f"beta {self.beta.shape} or standardizer does not fit "
                             f"{self.n_inputs} inputs at degree {self.degree}")
        if self.index is None:
            object.__setattr__(self, "index", PolyTermIndex.build(self.n_inputs, self.degree))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """(M, n_inputs) raw inputs -> (M,) predictions."""
        return poly_expand(self.standardizer.transform(x), self.index) @ self.beta


def _train_lanes(
    x: np.ndarray, y: np.ndarray, cfg: LassoConfig, alphas: list[float]
) -> list[tuple[LassoMprModel, TrainingTrace]]:
    """One model and trace per alpha, from one design and one descent."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DataError(f"features {x.shape} vs target {y.shape}")
    (epochs, n_inputs), degree = x.shape, cfg.degree
    cols = term_count(n_inputs, degree) + 1
    # refuse before building the design; the residual block holds one row per alpha
    require_cells(ConfigError, "lower the lasso_mpr degree, use fewer inputs (e.g. location_mode"
                  " = receiver_only) or fewer alphas", design=(epochs, cols),
                  Gram_matrix=(cols, cols), residual_block=(epochs, len(alphas)))
    if epochs < cols:
        warnings.warn(
            f"only {epochs} training epochs for {cols} coefficients; "
            "expect heavy shrinkage or underdetermined fits",
            stacklevel=3,
        )
    standardizer = Standardizer.fit(x)
    index = PolyTermIndex.build(n_inputs, degree)
    design = poly_expand(standardizer.transform(x), index)
    betas, traces = descend(design, y, alphas, tol=cfg.tol, max_sweeps=cfg.max_sweeps)
    return [(LassoMprModel(n_inputs=n_inputs, degree=degree, alpha=alpha,
                           standardizer=standardizer, index=index, beta=beta), trace)
            for alpha, beta, trace in zip(alphas, betas, traces)]


def train(
    x: np.ndarray, y: np.ndarray, cfg: LassoConfig = LassoConfig()
) -> tuple[LassoMprModel, TrainingTrace]:
    return _train_lanes(x, y, cfg, [cfg.alpha])[0]


def sweep(
    x_fit: np.ndarray,
    y_fit: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    cfg: LassoConfig,
    key: str,
    values,
) -> list[tuple]:
    """(value, validation RMSE) per grid value of the LassoConfig field key,
    grid order kept: each row is the fit of replace(cfg, key=value) on the
    fit set.  An alpha grid is one descent with one lane per alpha; a
    degree grid trains once per degree.  Values are cast to the field's
    type; an alpha grid must be positive and sorted."""
    cast = typing.get_type_hints(LassoConfig)[key]
    values = [cast(v) for v in values]
    if key == "alpha":
        if any(a <= 0 for a in values) or sorted(values) != values:
            raise ValueError("alpha grid must be positive and sorted")
        fits = _train_lanes(x_fit, y_fit, cfg, values)
    else:
        fits = [train(x_fit, y_fit, replace(cfg, **{key: v})) for v in values]
    return [(v, rmse(y_val, model.predict(x_val))) for v, (model, _) in zip(values, fits)]


def argmin_table(table) -> tuple:
    """Row with the smallest metric; first wins ties."""
    best = min(range(len(table)), key=lambda i: table[i][1])
    return table[best]
