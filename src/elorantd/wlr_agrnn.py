"""Shared linear expert per path location, terrain-elevation weighting of
the expert outputs, and anisotropic Gaussian-kernel aggregation.

Training alternates: forward all expert outputs, weight them by
transformed elevation, rebuild the bank, reselect per-row smoothing
factors (stop-gradient), predict every training epoch by leave-one-out
kernel regression, and take one Adam step on the weighted residual sum
of squares.  Gradients w.r.t. the bank reduce to two (l x T)(T x T)
matrix products, so no T x T x l intermediate is ever built.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateBankError,
    DimensionMismatchError,
    EmptyBankError,
    LengthMismatchError,
    NonFiniteLossError,
)
from .features import Standardizer
from .optim import LIBRARY_ONLY, Adam, TrainingTrace, loss_converged, require_at_least
from .types import FactorSet, GeoPoint

SIGMA_BOUNDS = (0.1, 3.0)
ELEVATION_FLOOR_M = 1.0

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class WlrParams:
    """Affine two-layer map shared across locations; no activation."""

    w1: np.ndarray  # (hidden, n)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float

    @classmethod
    def init(cls, n_factors: int, hidden: int, rng: np.random.Generator) -> "WlrParams":
        lim1 = 1.0 / math.sqrt(n_factors)
        lim2 = 1.0 / math.sqrt(hidden)
        return cls(
            w1=rng.uniform(-lim1, lim1, size=(hidden, n_factors)),
            b1=np.zeros(hidden),
            w2=rng.uniform(-lim2, lim2, size=hidden),
            b2=0.0,
        )

    def copy(self) -> "WlrParams":
        return WlrParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), float(self.b2))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    max_iterations: int = 200
    tol: float = 1e-6
    patience: int = 5
    hidden: int = 8
    elevation_mode: str = "floored_normalized"  # or "raw"
    weight_scheme: str = "uniform"  # or "inverse_residual"
    weight_eps: float = field(default=1.0, metadata=LIBRARY_ONLY)
    weight_every: int = field(default=50, metadata=LIBRARY_ONLY)
    sigma_tol: float = 0.02
    seed: int = 0

    def __post_init__(self):
        require_at_least(self, 0, "learning_rate", "max_iterations", "tol", "seed")
        require_at_least(self, 1, "patience", "hidden", "weight_every")
        require_at_least(self, 0, "weight_eps", "sigma_tol", strict=True)
        if self.elevation_mode not in ("floored_normalized", "raw"):
            raise ValueError(f"unknown elevation mode {self.elevation_mode!r}")
        if self.weight_scheme not in ("uniform", "inverse_residual"):
            raise ValueError(f"unknown weight scheme {self.weight_scheme!r}")


def wlr_forward(params: WlrParams, x: np.ndarray) -> float:
    """Scalar expert output for one location's factor vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.w1.shape[1],):
        raise DimensionMismatchError(f"expected {params.w1.shape[1]} factors, got {x.shape}")
    return float(params.w2 @ (params.w1 @ x + params.b1) + params.b2)


def _forward_all(params: WlrParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x (T, l, n) -> hidden activations (T, l, hidden) and outputs (T, l)."""
    hidden = x @ params.w1.T + params.b1
    return hidden, hidden @ params.w2 + params.b2


def transform_elevation(
    elevations: np.ndarray, mode: str = "floored_normalized", floor: float = ELEVATION_FLOOR_M
) -> np.ndarray:
    """Strictly positive location weights from raw elevations in meters.

    floored_normalized: max(h, floor) / mean(h), so flat terrain becomes
    all-ones and sea-level points are not annihilated.  raw passes h
    through untouched (zeros and all).
    """
    h = np.asarray(elevations, dtype=float)
    if mode == "raw":
        return h.copy()
    if mode != "floored_normalized":
        raise ValueError(f"unknown elevation mode {mode!r}")
    scale = max(float(h.mean()), floor)
    return np.maximum(h, floor) / scale


def elevation_weight(xhat: np.ndarray, h_tilde: np.ndarray) -> np.ndarray:
    """Elementwise product of expert outputs and transformed elevations."""
    xhat = np.asarray(xhat, dtype=float)
    h_tilde = np.asarray(h_tilde, dtype=float)
    if xhat.shape[-1] != h_tilde.size:
        raise LengthMismatchError(f"{xhat.shape[-1]} outputs vs {h_tilde.size} elevations")
    return xhat * h_tilde


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Row-scaled coordinates a (l, M) and b (l, T) -> (M, T) squared distances.

    b None measures a against itself through the symmetric a.T @ a.
    """
    if b is None:
        gram = a.T @ a
        norms_a = norms_b = np.einsum("jt,jt->t", a, a)
    else:
        gram = a.T @ b
        norms_a = np.einsum("jm,jm->m", a, a)
        norms_b = np.einsum("jt,jt->t", b, b)
    d2 = norms_a[:, None] + norms_b[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    return d2


def loo_weights(d2: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out kernel weights a (T,T) on scaled squared distances
    d2 (kernel exp(-d2/2)), rows normalized, and the predictions a @ y."""
    e = -0.5 * d2
    np.fill_diagonal(e, -np.inf)
    m = e.max(axis=1)
    if not np.all(np.isfinite(m)):
        # every other column is infinitely far; fall back to uniform over
        # the rest so the prediction stays defined
        m = np.where(np.isfinite(m), m, 0.0)
        e = np.where(np.isfinite(e), e, 0.0)
        np.fill_diagonal(e, -np.inf)
    # one T x T buffer: shift, exponentiate and normalize in place
    e -= m[:, None]
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e, e @ y


def select_sigmas(
    bank: np.ndarray,
    y: np.ndarray,
    w: np.ndarray | None = None,
    bounds: tuple[float, float] = SIGMA_BOUNDS,
    tol: float = TrainConfig.sigma_tol,
) -> np.ndarray:
    """Per-row smoothing: sigma_j = c * sd_j, c by golden-section search.

    The search minimizes the leave-one-out weighted residual sum of
    squares on the bank itself.  Zero-variance rows get a tiny fixed
    sigma instead of participating in the scale search.
    """
    u = np.asarray(bank, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.ndim != 2 or u.shape[1] != y.size:
        raise DimensionMismatchError(f"bank {u.shape} vs targets {y.shape}")
    t_count = u.shape[1]
    if t_count < 2:
        raise DegenerateBankError("need at least 2 bank columns to select sigmas")
    if not tol > 0:
        raise ValueError(f"sigma search tolerance must be > 0, got {tol!r}")
    if w is None:
        w = np.ones(t_count)
    sd = u.std(axis=1, ddof=1)
    live = sd > 0.0
    if not live.any():
        raise DegenerateBankError("every bank row is constant")
    floor_sigma = 1e-6 * np.abs(u.mean(axis=1)) + 1e-12
    # distance contributions split so the live part rescales as 1/c^2
    d2_live = pairwise_sq_dists(u[live] / sd[live, None])
    d2_dead = None
    if (~live).any():
        d2_dead = pairwise_sq_dists(u[~live] / floor_sigma[~live, None])

    def objective(c: float) -> float:
        d2 = d2_live / (c * c)
        if d2_dead is not None:
            d2 = d2 + d2_dead
        _, yhat = loo_weights(d2, y)
        r = y - yhat
        return float(np.dot(w * r, r))

    c_best = _golden_section(objective, bounds[0], bounds[1], tol)
    sigmas = np.where(live, c_best * sd, floor_sigma)
    return sigmas


def _golden_section(fn, lo: float, hi: float, tol: float) -> float:
    """Deterministic golden-section minimizer; returns the interval center."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def agrnn_predict(query: np.ndarray, bank: np.ndarray, y: np.ndarray, sigmas: np.ndarray) -> float:
    """Kernel-weighted mean of bank targets under per-row bandwidths."""
    out = agrnn_predict_batch(np.asarray(query, dtype=float)[:, None], bank, y, sigmas)
    return float(out[0])


def agrnn_predict_batch(
    queries: np.ndarray, bank: np.ndarray, y: np.ndarray, sigmas: np.ndarray
) -> np.ndarray:
    """queries (l, M) against bank (l, T); returns (M,) predictions."""
    u = np.asarray(bank, dtype=float)
    q = np.asarray(queries, dtype=float)
    y = np.asarray(y, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if u.ndim != 2 or u.shape[1] == 0:
        raise EmptyBankError("bank has no columns")
    if q.ndim != 2 or q.shape[0] != u.shape[0] or sigmas.shape != (u.shape[0],):
        raise DimensionMismatchError(
            f"queries {q.shape} vs bank {u.shape} vs sigmas {sigmas.shape}"
        )
    if np.any(sigmas <= 0):
        raise ValueError("sigmas must be strictly positive")
    # distances that overflow leave no finite kernel weight; those queries
    # take the fallback below, so the overflow itself is not reported
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = pairwise_sq_dists(q / sigmas[:, None], u / sigmas[:, None])
        e = -0.5 * d2
        k = np.exp(e - e.max(axis=1)[:, None])
        denom = k.sum(axis=1)
    out = np.empty(q.shape[1])
    bad = ~np.isfinite(denom) | (denom == 0.0)
    if bad.any():
        warnings.warn(
            "kernel weights underflowed for some queries; "
            "falling back to the nearest bank column",
            stacklevel=2,
        )
        nearest = np.argmin(d2, axis=1)
        out[bad] = y[nearest[bad]]
    good = ~bad
    out[good] = (k[good] @ y) / denom[good]
    return out


def wrss_loss(
    params: WlrParams,
    x: np.ndarray,
    y: np.ndarray,
    h_tilde: np.ndarray,
    sigmas: np.ndarray,
    w: np.ndarray,
) -> float:
    """Leave-one-out WRSS at fixed sigmas (the training objective)."""
    _, xhat = _forward_all(params, x)
    bank = elevation_weight(xhat, h_tilde).T
    d2 = pairwise_sq_dists(bank / sigmas[:, None])
    _, yhat = loo_weights(d2, y)
    r = y - yhat
    return float(np.dot(w * r, r))


def wrss_and_grads(
    params: WlrParams,
    x: np.ndarray,
    y: np.ndarray,
    h_tilde: np.ndarray,
    sigmas: np.ndarray,
    w: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus analytic gradients w.r.t. every WLR parameter.

    Sigmas are treated as constants: the bandwidth reselection is not
    differentiated through.
    """
    hidden, xhat = _forward_all(params, x)
    bank = elevation_weight(xhat, h_tilde).T  # (l, T)
    d2 = pairwise_sq_dists(bank / sigmas[:, None])
    a, yhat = loo_weights(d2, y)
    r = y - yhat
    loss = float(np.dot(w * r, r))
    # dWRSS/dD2[t,s] for s != t
    q = (w * r)[:, None] * a * (y[None, :] - yhat[:, None])
    row = q.sum(axis=1)
    col = q.sum(axis=0)
    g_bank = (
        2.0
        / (sigmas * sigmas)[:, None]
        * (bank * (row + col)[None, :] - bank @ q.T - bank @ q)
    )
    g_xhat = (g_bank * h_tilde[:, None]).T  # (T, l)
    g_w2 = np.einsum("tj,tjh->h", g_xhat, hidden)
    g_b2 = float(g_xhat.sum())
    g_w1 = np.outer(params.w2, np.einsum("tj,tjn->n", g_xhat, x))
    g_b1 = params.w2 * g_xhat.sum()
    return loss, {"w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": np.array(g_b2)}


@dataclass(frozen=True)
class WlrAgrnnModel:
    """Trained model; a lazy learner, so the artifact embeds the bank."""

    params: WlrParams
    h_tilde: np.ndarray
    elevation_mode: str
    sigmas: np.ndarray
    bank: np.ndarray  # (l, T)
    y: np.ndarray
    w: np.ndarray
    standardizer: Standardizer
    factors: FactorSet
    location_mode: str
    points: tuple[GeoPoint, ...] | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_locations(self) -> int:
        return self.bank.shape[0]

    def predict(self, x_row: np.ndarray) -> float:
        """x_row is (l, n) raw factor values for one epoch."""
        return float(self.predict_batch(np.asarray(x_row, dtype=float)[None])[0])

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """x is the raw (M, l, n) tensor; returns (M,) predictions."""
        x = np.asarray(x, dtype=float)
        n = self.params.w1.shape[1]
        if x.ndim != 3 or x.shape[1:] != (self.n_locations, n):
            raise DimensionMismatchError(
                f"expected (M, {self.n_locations}, {n}) features, got {x.shape}"
            )
        z = self.standardizer.transform(x.reshape(-1, n)).reshape(x.shape)
        _, xhat = _forward_all(self.params, z)
        queries = elevation_weight(xhat, self.h_tilde).T
        return agrnn_predict_batch(queries, self.bank, self.y, self.sigmas)


def train(
    x: np.ndarray,
    y: np.ndarray,
    elevations: np.ndarray,
    cfg: TrainConfig = TrainConfig(),
    factors: FactorSet = (),
    location_mode: str = "path",
    points: tuple[GeoPoint, ...] | None = None,
    meta: dict | None = None,
) -> tuple[WlrAgrnnModel, TrainingTrace]:
    """x is the raw (T, l, n) tensor; y the hourly TD; elevations h_j in m.

    Features are standardized per factor, pooled over epochs and
    locations, so one expert parameter set serves every location.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 3 or x.shape[0] != y.size:
        raise DimensionMismatchError(f"tensor {x.shape} vs target {y.shape}")
    t_count, l_count, n_factors = x.shape
    if t_count < 2:
        raise DegenerateBankError("need at least 2 training epochs")
    if np.asarray(elevations).shape != (l_count,):
        raise LengthMismatchError(
            f"{np.asarray(elevations).size} elevations for {l_count} locations"
        )
    h_tilde = transform_elevation(elevations, cfg.elevation_mode)
    standardizer = Standardizer.fit(x.reshape(t_count * l_count, n_factors))
    z = standardizer.transform(x.reshape(-1, n_factors)).reshape(x.shape)
    rng = np.random.default_rng(cfg.seed)
    params = WlrParams.init(n_factors, cfg.hidden, rng)
    adam = Adam(lr=cfg.learning_rate)
    w = np.ones(t_count)
    losses: list[float] = []
    for it in range(cfg.max_iterations):
        _, xhat = _forward_all(params, z)
        bank = elevation_weight(xhat, h_tilde).T
        sigmas = select_sigmas(bank, y, w, tol=cfg.sigma_tol)
        if cfg.weight_scheme == "inverse_residual" and it > 0 and it % cfg.weight_every == 0:
            d2 = pairwise_sq_dists(bank / sigmas[:, None])
            _, yhat = loo_weights(d2, y)
            w = 1.0 / (cfg.weight_eps + np.abs(y - yhat))
        loss, grads = wrss_and_grads(params, z, y, h_tilde, sigmas, w)
        if not math.isfinite(loss):
            raise NonFiniteLossError(f"WRSS became non-finite at iteration {it}")
        losses.append(loss)
        plist = [params.w1, params.b1, params.w2]
        glist = [grads["w1"], grads["b1"], grads["w2"]]
        b2 = np.array([params.b2])
        plist.append(b2)
        glist.append(grads["b2"].reshape(1))
        adam.step(plist, glist)
        params.b2 = float(b2[0])
        if loss_converged(losses, cfg.tol, cfg.patience):
            break
    # final bank/sigmas consistent with the final parameters
    _, xhat = _forward_all(params, z)
    bank = elevation_weight(xhat, h_tilde).T
    sigmas = select_sigmas(bank, y, w, tol=cfg.sigma_tol)
    if not losses:
        losses.append(wrss_loss(params, z, y, h_tilde, sigmas, w))
    model = WlrAgrnnModel(
        params=params.copy(),
        h_tilde=h_tilde,
        elevation_mode=cfg.elevation_mode,
        sigmas=sigmas,
        # C-contiguous, as a reloaded artifact holds it, so BLAS sums the
        # in-memory and the reloaded model's predictions in the same order
        bank=np.ascontiguousarray(bank),
        y=y.copy(),
        w=w.copy(),
        standardizer=standardizer,
        factors=factors,
        location_mode=location_mode,
        points=points,
        meta=dict(meta or {}),
    )
    return model, TrainingTrace(tuple(losses), loss_converged(losses, cfg.tol, cfg.patience))
