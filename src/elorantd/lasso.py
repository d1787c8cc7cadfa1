"""LASSO-regularized multivariate polynomial regression.

Training minimizes the raw sum of squared errors plus alpha times the L1
norm of the polynomial coefficients (the intercept is unpenalized) by
cyclic coordinate descent with exact soft-threshold updates.  Because the
loss uses the raw sum rather than the mean, alpha values are tied to the
training-set size.

The descent runs in covariance form (Friedman, Hastie & Tibshirani 2010,
"Regularization Paths for Generalized Linear Models via Coordinate
Descent", JSS 33): the Gram matrix X^T X and X^T y are computed once per
fit, so updating coordinate p costs one dot product over the p columns
instead of two passes over the T training rows.  The residual is formed
only at sweep boundaries, for the recorded objective.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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
    penalize: np.ndarray | None = None,
    tol: float = LassoConfig.tol,
    max_sweeps: int = LassoConfig.max_sweeps,
) -> tuple[np.ndarray, TrainingTrace]:
    """Cyclic coordinate descent on ||y - Xb||^2 + alpha * sum |b_penalized|.

    penalize defaults to every column except the first (the intercept).
    Returns the coefficient vector and the per-sweep objective trace.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise DimensionMismatchError(f"design {x.shape} vs target {y.shape}")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    n_cols = x.shape[1]
    if penalize is None:
        penalize = np.ones(n_cols, dtype=bool)
        penalize[0] = False
    col_sq = np.einsum("tp,tp->p", x, x)
    if np.any(col_sq == 0.0):
        raise DegenerateDesignError(
            f"all-zero design column at index {int(np.flatnonzero(col_sq == 0.0)[0])}"
        )
    gram_rows = list(x.T @ x)
    xty = (x.T @ y).tolist()
    sq = col_sq.tolist()
    pen = penalize.tolist()
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
            if pen[p]:
                new = soft_threshold(c_p, gamma) / sq[p]
            else:
                new = c_p / sq[p]
            if new != old:
                beta[p] = new
                max_delta = max(max_delta, abs(new - old))
        residual = y - x @ beta
        sse = float(np.dot(residual, residual))
        losses.append(sse + alpha * float(np.sum(np.abs(beta[penalize]))))
        if max_delta < tol:
            converged = True
            break
    return beta, TrainingTrace(tuple(losses), converged)


@dataclass(frozen=True)
class LassoMprModel:
    """Trained polynomial regressor over standardized raw inputs."""

    factors: FactorSet
    location_mode: str
    n_inputs: int
    degree: int
    alpha: float
    standardizer: Standardizer
    beta: np.ndarray
    index: PolyTermIndex | None = None  # None: built from n_inputs and degree
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
    x: np.ndarray,
    y: np.ndarray,
    factors: FactorSet,
    degree: int = LassoConfig.degree,
    alpha: float = LassoConfig.alpha,
    tol: float = LassoConfig.tol,
    max_sweeps: int = LassoConfig.max_sweeps,
    location_mode: str = "receiver_only",
    meta: dict | None = None,
) -> tuple[LassoMprModel, TrainingTrace]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DimensionMismatchError(f"features {x.shape} vs target {y.shape}")
    n_inputs = x.shape[1]
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
    beta, trace = coordinate_descent(design, y, alpha, tol=tol, max_sweeps=max_sweeps)
    model = LassoMprModel(
        factors=factors,
        location_mode=location_mode,
        n_inputs=n_inputs,
        degree=degree,
        alpha=alpha,
        standardizer=standardizer,
        index=index,
        beta=beta,
        meta=dict(meta or {}),
    )
    return model, trace


def sweep_alpha(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    factors: FactorSet,
    degree: int = LassoConfig.degree,
    alphas=None,
    location_mode: str = "receiver_only",
    tol: float = LassoConfig.tol,
    max_sweeps: int = LassoConfig.max_sweeps,
) -> list[tuple[float, float]]:
    """(alpha, validation RMSE) per grid point, grid order preserved."""
    if alphas is None:
        alphas = default_alpha_grid()
    alphas = [float(a) for a in alphas]
    if any(a <= 0 for a in alphas) or sorted(alphas) != alphas:
        raise ValueError("alpha grid must be positive and sorted")
    table: list[tuple[float, float]] = []
    for a in alphas:
        model, _ = train(
            x_train, y_train, factors, degree=degree, alpha=a, tol=tol,
            max_sweeps=max_sweeps, location_mode=location_mode,
        )
        table.append((a, rmse(y_val, model.predict(x_val))))
    return table


def sweep_degree(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    factors: FactorSet,
    alpha: float = LassoConfig.alpha,
    degrees=DEGREE_GRID,
    location_mode: str = "receiver_only",
    tol: float = LassoConfig.tol,
    max_sweeps: int = LassoConfig.max_sweeps,
) -> list[tuple[int, float]]:
    """(degree, validation RMSE) per degree."""
    table: list[tuple[int, float]] = []
    for m in degrees:
        model, _ = train(
            x_train, y_train, factors, degree=int(m), alpha=alpha, tol=tol,
            max_sweeps=max_sweeps, location_mode=location_mode,
        )
        table.append((int(m), rmse(y_val, model.predict(x_val))))
    return table


def argmin_table(table) -> tuple:
    """Row with the smallest metric; first wins ties."""
    best = min(range(len(table)), key=lambda i: table[i][1])
    return table[best]
