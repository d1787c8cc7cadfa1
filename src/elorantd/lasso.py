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
Descent", JSS 33): the Gram matrix X^T X and X^T y are computed once per
fit, so updating coordinate p costs one dot product over the p columns
instead of two passes over the T training rows.  The residual is formed
only at sweep boundaries, for the recorded objective.
"""
from __future__ import annotations

import typing
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DegenerateDesignError, DimensionMismatchError
from .features import PolyTermIndex, Standardizer, poly_expand, term_count
from .optim import MAX_ARRAY_CELLS, TrainingTrace, require_at_least
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


def soft_threshold(z: float, gamma: float) -> float:
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def coordinate_descent(
    design: np.ndarray,
    y: np.ndarray,
    alpha: float,
    tol: float = LassoConfig.tol,
    max_sweeps: int = LassoConfig.max_sweeps,
) -> tuple[np.ndarray, TrainingTrace]:
    """Cyclic coordinate descent on ||y - Xb||^2 + alpha * sum_{p >= 1} |b_p|.

    Column 0 (the intercept) is unpenalized.  Returns the coefficient
    vector and the per-sweep objective trace.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise DimensionMismatchError(f"design {x.shape} vs target {y.shape}")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    n_cols = x.shape[1]
    col_sq = np.einsum("tp,tp->p", x, x)
    if np.any(col_sq == 0.0):
        raise DegenerateDesignError(
            f"all-zero design column at index {int(np.flatnonzero(col_sq == 0.0)[0])}"
        )
    gram_rows = list(x.T @ x)
    xty = (x.T @ y).tolist()
    sq = col_sq.tolist()
    gamma = alpha / 2.0
    beta = np.zeros(n_cols)
    losses: list[float] = []
    converged = False
    for _ in range(max_sweeps):
        max_delta = 0.0
        for p in range(n_cols):
            old = float(beta[p])
            # x_p . (y - X beta) + |x_p|^2 beta_p, the partial-residual correlation
            c_p = xty[p] - float(np.dot(gram_rows[p], beta)) + sq[p] * old
            new = (soft_threshold(c_p, gamma) if p else c_p) / sq[p]
            if new != old:
                beta[p] = new
                max_delta = max(max_delta, abs(new - old))
        residual = y - x @ beta
        sse = float(np.dot(residual, residual))
        losses.append(sse + alpha * float(np.sum(np.abs(beta[1:]))))
        if max_delta < tol:
            converged = True
            break
    return beta, TrainingTrace(tuple(losses), converged)


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


def train(
    x: np.ndarray, y: np.ndarray, cfg: LassoConfig = LassoConfig()
) -> tuple[LassoMprModel, TrainingTrace]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DimensionMismatchError(f"features {x.shape} vs target {y.shape}")
    n_inputs, degree = x.shape[1], cfg.degree
    p_terms = term_count(n_inputs, degree)
    # refuse before allocating the T x (p+1) design or its (p+1) x (p+1) Gram matrix
    if max(x.shape[0], p_terms + 1) * (p_terms + 1) > MAX_ARRAY_CELLS:
        raise ConfigError(
            f"lasso_mpr on {n_inputs} inputs at degree {degree} needs {p_terms + 1} design "
            f"columns x {x.shape[0]} epochs and a {p_terms + 1} x {p_terms + 1} Gram matrix, "
            f"over {MAX_ARRAY_CELLS} cells in one of them; lower the degree or use fewer "
            "inputs (e.g. location_mode = receiver_only)"
        )
    if x.shape[0] < p_terms + 1:
        warnings.warn(
            f"only {x.shape[0]} training epochs for {p_terms + 1} coefficients; "
            "expect heavy shrinkage or underdetermined fits",
            stacklevel=2,
        )
    standardizer = Standardizer.fit(x)
    index = PolyTermIndex.build(n_inputs, degree)
    design = poly_expand(standardizer.transform(x), index)
    beta, trace = coordinate_descent(design, y, cfg.alpha, tol=cfg.tol,
                                     max_sweeps=cfg.max_sweeps)
    model = LassoMprModel(n_inputs=n_inputs, degree=degree, alpha=cfg.alpha,
                          standardizer=standardizer, index=index, beta=beta)
    return model, trace


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
    grid order kept: each row trains replace(cfg, key=value) on the fit set.
    Values are cast to the field's type; an alpha grid must be positive
    and sorted."""
    cast = typing.get_type_hints(LassoConfig)[key]
    values = [cast(v) for v in values]
    if key == "alpha" and (any(a <= 0 for a in values) or sorted(values) != values):
        raise ValueError("alpha grid must be positive and sorted")
    table: list[tuple] = []
    for v in values:
        model, _ = train(x_fit, y_fit, replace(cfg, **{key: v}))
        table.append((v, rmse(y_val, model.predict(x_val))))
    return table


def argmin_table(table) -> tuple:
    """Row with the smallest metric; first wins ties."""
    best = min(range(len(table)), key=lambda i: table[i][1])
    return table[best]
