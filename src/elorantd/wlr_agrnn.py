"""Shared linear expert per path location, terrain-elevation weighting of
the expert outputs, and anisotropic Gaussian-kernel aggregation.

Training alternates: forward all expert outputs, weight them by
transformed elevation, rebuild the bank, reselect per-row smoothing
factors (stop-gradient), predict every training epoch by leave-one-out
kernel regression, and take one Adam step on the weighted residual sum
of squares.  The bandwidths only scale a fixed distance matrix, so each
iteration builds and shifts one T x T matrix: the sigma search costs one
exp and one (T x T)(T x 2) product per evaluation on it, and the loss,
the gradient and any reweighting read one more kernel at the selected
scale.  Gradients w.r.t. the bank reduce to one (l+1 x T)(T x T) matrix
product, so no T x T x l intermediate is ever built.

Each bandwidth is sigma_j = c * sd_j, sd_j the standard deviation of bank
row j, so a positive factor or a constant shift of any row cancels from
every distance.  The model therefore learns only c and the direction of
v = w1.T w2: the elevation weights, the scale of v and the biases b1, b2
have no effect on the loss.  Adam steps w1 and w2 only; b1 and b2 stay at
their initial zeros, and the forward still adds them so that artifacts
saved with nonzero biases predict as they were trained.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, NonFiniteLossError
from .features import Standardizer
from .optim import (
    AdamConfig,
    TrainingTrace,
    finite_kernel_scale,
    fit_adam,
    require_at_least,
    require_cells,
)
from .types import FactorSet, GeoPoint

SIGMA_BOUNDS = (0.1, 3.0)
ELEVATION_FLOOR_M = 1.0
ELEVATION_MODES = ("floored_normalized", "raw")  # see transform_elevation
# inverse_residual reweighting: w_t = 1 / (WEIGHT_EPS + |r_t|), redone
# every WEIGHT_EVERY iterations
WEIGHT_EPS = 1.0
WEIGHT_EVERY = 50
# a bank row's sd squares its entries, so larger outputs overflow the search
BANK_LIMIT = 1e150

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class WlrParams:
    """Affine two-layer map shared across locations; no activation.

    Training leaves b1 and b2 at zero (their gradients vanish); they are
    kept so that artifacts holding nonzero biases still load and predict.
    """

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
class TrainConfig(AdamConfig):
    max_iterations: int = 200
    tol: float = 1e-6
    hidden: int = 8
    elevation_mode: str = "floored_normalized"  # or "raw"
    weight_scheme: str = "uniform"  # or "inverse_residual"
    sigma_tol: float = 0.02

    def __post_init__(self):
        super().__post_init__()
        require_at_least(self, 1, "hidden")
        require_at_least(self, 0, "sigma_tol", strict=True)
        if self.elevation_mode not in ELEVATION_MODES:
            raise ValueError(f"unknown elevation mode {self.elevation_mode!r}")
        if self.weight_scheme not in ("uniform", "inverse_residual"):
            raise ValueError(f"unknown weight scheme {self.weight_scheme!r}")


def _forward_all(params: WlrParams, x: np.ndarray) -> np.ndarray:
    """x (T, l, n) -> outputs (T, l).  With no activation the two layers
    are one affine map: xhat = x . (w1.T w2) + (w2 . b1 + b2).  The bias
    term is zero for a model trained here; an artifact with nonzero biases
    stored its bank with them, so its queries must carry them too."""
    return x @ (params.w1.T @ params.w2) + (float(params.w2 @ params.b1) + params.b2)


def transform_elevation(elevations: np.ndarray, mode: str = "floored_normalized") -> np.ndarray:
    """Strictly positive location weights from raw elevations in meters.

    floored_normalized: max(h, ELEVATION_FLOOR_M) / mean(h), so flat terrain becomes
    all-ones and sea-level points are not annihilated.  raw passes h
    through untouched (zeros and all).
    """
    h = np.asarray(elevations, dtype=float)
    if mode not in ELEVATION_MODES:
        raise ValueError(f"unknown elevation mode {mode!r}")
    if mode == "raw":
        return h.copy()
    scale = max(float(h.mean()), ELEVATION_FLOOR_M)
    return np.maximum(h, ELEVATION_FLOOR_M) / scale


def elevation_weight(xhat: np.ndarray, h_tilde: np.ndarray) -> np.ndarray:
    """Elementwise product of expert outputs and transformed elevations."""
    xhat = np.asarray(xhat, dtype=float)
    h_tilde = np.asarray(h_tilde, dtype=float)
    if xhat.shape[-1] != h_tilde.size:
        raise DataError(f"{xhat.shape[-1]} outputs vs {h_tilde.size} elevations")
    return xhat * h_tilde


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Row-scaled coordinates a (l, M) and b (l, T) -> (M, T) squared distances.

    b None measures a against itself through the symmetric a.T @ a.  The
    result is built inside the Gram buffer, with no other (M, T) array.
    """
    if b is None:
        d2 = a.T @ a
        norms_a = norms_b = np.einsum("jt,jt->t", a, a)
    else:
        d2 = a.T @ b
        norms_a = np.einsum("jm,jm->m", a, a)
        norms_b = np.einsum("jt,jt->t", b, b)
    d2 *= -2.0
    d2 += norms_a[:, None]
    d2 += norms_b[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _shift_rows(d2: np.ndarray) -> np.ndarray:
    """In place: each row of squared distances d2 minus its smallest entry,
    so each row of exp(-s * d2) peaks at exactly 1; a row with no finite
    entry becomes all 0.  Returns the mask of those rows."""
    m = d2.min(axis=1)
    far = ~np.isfinite(m)
    d2[far] = 0.0
    m[far] = 0.0
    d2 -= m[:, None]
    return far


def loo_shift(d2: np.ndarray) -> np.ndarray:
    """In place: +inf on the diagonal of squared distances d2 (T, T), then
    each row minus its smallest off-diagonal entry.

    A bandwidth only scales the distances, so this one matrix serves every
    bandwidth.  A row with no finite off-diagonal distance becomes 0 off
    the diagonal, so that row alone falls back to uniform weights.
    """
    np.fill_diagonal(d2, np.inf)
    rows = np.flatnonzero(_shift_rows(d2))
    d2[rows, rows] = np.inf
    return d2


def kernel_regression(
    shifted: np.ndarray, y: np.ndarray, scale: float = 0.5, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian kernel k = exp(-scale * shifted) on row-shifted squared
    distances, unnormalised and written to out, with the predictions
    (k @ y) / rowsum and the row sums.  Each row of shifted holds a 0, so
    each row sum is >= 1; on a loo_shift matrix this is leave-one-out."""
    k = np.multiply(shifted, -scale, out=out)
    np.exp(k, out=k)
    num, den = (k @ np.column_stack((y, np.ones_like(y)))).T
    return k, num / den, den


def loo_rss(shifted: np.ndarray, y: np.ndarray, c: float, w=None, out=None) -> float:
    """Residual sum of squares (weighted by w if given) of the leave-one-out
    fit at bandwidth scale c on a loo_shift matrix, its kernel written to out."""
    _, yhat, _ = kernel_regression(shifted, y, 0.5 / (c * c), out=out)
    r = y - yhat
    return float(np.dot(r, r) if w is None else np.dot(w * r, r))


class SigmaSearch(NamedTuple):
    """What select_sigmas found.  shifted is the loo_shift matrix of the
    live (non-constant) bank rows divided by their sd, so the kernel at
    sigmas = c * sd is exp(-0.5 / c^2 * shifted); constant rows hold one
    value in every column and appear in no distance."""

    c: float
    sigmas: np.ndarray  # c * sd on live rows, a tiny floor on constant rows
    live: np.ndarray  # (l,) bool
    shifted: np.ndarray  # (T, T)


def select_sigmas(
    bank: np.ndarray,
    y: np.ndarray,
    w: np.ndarray | None = None,
    tol: float = TrainConfig.sigma_tol,
) -> SigmaSearch:
    """Per-row smoothing: sigma_j = c * sd_j, c by golden-section search.

    The search minimizes the leave-one-out weighted residual sum of
    squares on the bank itself.  Zero-variance rows get a tiny fixed
    sigma instead of participating in the scale search: such a row holds
    one value in every column, so it adds nothing to any distance.
    """
    u = np.asarray(bank, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.ndim != 2 or u.shape[1] != y.size:
        raise DataError(f"bank {u.shape} vs targets {y.shape}")
    t_count = u.shape[1]
    if t_count < 2:
        raise DataError("need at least 2 bank columns to select sigmas")
    if not tol > 0:
        raise ValueError(f"sigma search tolerance must be > 0, got {tol!r}")
    require_cells(ConfigError, f"wlr_agrnn trains on {t_count} epochs: use a shorter train range",
                  shifted_distances_and_kernel=(2, t_count, t_count))
    if w is None:
        w = np.ones(t_count)
    sd = u.std(axis=1, ddof=1)
    live = sd > 0.0
    if not live.any():
        raise DataError("every bank row is constant")
    floor_sigma = 1e-6 * np.abs(u.mean(axis=1)) + 1e-12
    # sigma_j = c * sd_j scales every distance by 1/c^2: one shifted matrix
    # serves the whole search, and each evaluation is one exp and one product
    shifted = loo_shift(pairwise_sq_dists(u[live] / sd[live, None]))
    kernel = np.empty_like(shifted)
    c_best = golden_section(lambda c: loo_rss(shifted, y, c, w, kernel), *SIGMA_BOUNDS, tol)
    return SigmaSearch(c_best, np.where(live, c_best * sd, floor_sigma), live, shifted)


def golden_section(fn, lo: float, hi: float, tol: float) -> float:
    """Deterministic golden-section minimizer; returns the interval center."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    # an interval a few ulps wide stops shrinking, so no tol below that is reached
    tol = max(tol, 16 * math.ulp(max(abs(a), abs(b))))
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


def agrnn_predict_batch(
    queries: np.ndarray, bank: np.ndarray, y: np.ndarray, sigmas: np.ndarray,
    kind: str = "wlr_agrnn",
) -> np.ndarray:
    """queries (l, M) against bank (l, T); returns (M,) predictions.

    A query whose kernel weights all underflow takes its nearest bank
    column's target, with a warning.  If every query of a non-empty batch
    would, the model cannot be applied to these inputs: a DataError
    naming its kind."""
    u = np.asarray(bank, dtype=float)
    q = np.asarray(queries, dtype=float)
    y = np.asarray(y, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if u.ndim != 2 or u.shape[1] == 0:
        raise DataError("bank has no columns")
    if q.ndim != 2 or q.shape[0] != u.shape[0] or sigmas.shape != (u.shape[0],):
        raise DataError(
            f"queries {q.shape} vs bank {u.shape} vs sigmas {sigmas.shape}"
        )
    if np.any(sigmas <= 0):
        raise ValueError("sigmas must be strictly positive")
    require_cells(ConfigError, f"predict {kind} on a shorter range than {q.shape[1]} epochs",
                  distance_matrix=(q.shape[1], u.shape[1]))
    # distances that overflow leave no finite kernel weight; those queries
    # take the fallback below, so the overflow itself is not reported
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = pairwise_sq_dists(q / sigmas[:, None], u / sigmas[:, None])
    bad = _shift_rows(d2)
    if bad.size and bad.all():
        raise DataError(f"{kind} kernel weights underflowed for all {bad.size} queries: "
                        "its bandwidth or standardizer scale is too small for these inputs")
    _, out, _ = kernel_regression(d2, y, out=d2)
    if bad.any():
        warnings.warn(
            "kernel weights underflowed for some queries; "
            "falling back to the nearest bank column",
            stacklevel=2,
        )
        out[bad] = y[_nearest_columns(q[:, bad], u, sigmas)]
    return out


def _nearest_columns(q: np.ndarray, u: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Nearest bank column of each query, on coordinates divided by their
    largest magnitude so the squared distances stay finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(float(np.abs(q).max()), float(np.abs(u).max()))
        d2 = pairwise_sq_dists(q / scale / sigmas[:, None], u / scale / sigmas[:, None])
    return np.argmin(d2, axis=1)


def wrss_and_grads(
    params: WlrParams,
    x: np.ndarray,
    y: np.ndarray,
    h_tilde: np.ndarray,
    bank: np.ndarray,
    search: SigmaSearch,
    w: np.ndarray,
    reweight: bool = False,
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Leave-one-out WRSS of bank (l, T) at the searched sigmas, analytic
    gradients [w1, w2], and the weights the loss used.

    One kernel at the searched scale serves all three; reweight first
    replaces w by the inverse_residual weights of its predictions.  The
    search's matrix is overwritten.  Sigmas are treated as constants: the
    bandwidth reselection is not differentiated through.  The biases get
    no gradient: they shift every expert output, so each bank row, by one
    constant, which no distance sees.
    """
    c, sigmas, live, shifted = search
    k, yhat, den = kernel_regression(shifted, y, 0.5 / (c * c))
    r = y - yhat
    if reweight:
        w = 1.0 / (WEIGHT_EPS + np.abs(r))
    loss = float(np.dot(w * r, r))
    # dWRSS/dD2[t,s] = w_t r_t a_ts (y_s - yhat_t) for s != t, built in the
    # kernel's buffer (a = k / rowsum); only q + q.T, written over the
    # spent search matrix, enters the gradient
    q = k
    q *= (w * r / den)[:, None]
    both = np.subtract(y[None, :], yhat[:, None], out=shifted)
    q *= both
    np.add(q, q.T, out=both)
    # one product gives u @ (q + q.T) and, in its last row, the column sums
    # of q + q.T (row plus column sums of q); constant rows have no gradient
    u = bank[live]
    prod = np.vstack((u, np.ones(y.size))) @ both
    g_bank = np.zeros(bank.shape)
    g_bank[live] = 2.0 / (sigmas[live] ** 2)[:, None] * (u * prod[-1] - prod[:-1])
    g_xhat = (g_bank * h_tilde[:, None]).T  # (T, l)
    # the expert is affine, xhat = z . (w1.T w2) + const, so both gradients
    # follow from P = sum g_xhat z (sum g_xhat, the bias gradient, is zero)
    n = x.shape[-1]
    p = g_xhat.reshape(-1) @ x.reshape(-1, n)
    return loss, [np.outer(params.w2, p), params.w1 @ p], w


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
    points: tuple[GeoPoint, ...] | None = None
    factors: FactorSet = ()
    location_mode: str = "path"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not finite_kernel_scale(self.sigmas):
            raise ValueError("every sigma must have a finite, positive kernel scale 0.5 / sigma^2")

    @property
    def n_locations(self) -> int:
        return self.bank.shape[0]

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """x is the raw (M, l, n) tensor; returns (M,) predictions."""
        x = np.asarray(x, dtype=float)
        n = self.params.w1.shape[1]
        if x.ndim != 3 or x.shape[1:] != (self.n_locations, n):
            raise DataError(
                f"expected (M, {self.n_locations}, {n}) features, got {x.shape}"
            )
        z = self.standardizer.transform(x.reshape(-1, n)).reshape(x.shape)
        queries = elevation_weight(_forward_all(self.params, z), self.h_tilde).T
        return agrnn_predict_batch(queries, self.bank, self.y, self.sigmas)


def _bank(params: WlrParams, z: np.ndarray, h_tilde: np.ndarray) -> np.ndarray:
    """The (l, T) bank of standardized inputs z.  The loss ignores the scale of v,
    so a diverging Adam inflates it: outputs past BANK_LIMIT are reported."""
    with np.errstate(over="ignore", invalid="ignore"):
        bank = elevation_weight(_forward_all(params, z), h_tilde).T
        if not np.abs(bank).max() < BANK_LIMIT:
            raise NonFiniteLossError("expert outputs diverged past the bank limit")
    return bank


def train(
    x: np.ndarray,
    y: np.ndarray,
    elevations: np.ndarray,
    cfg: TrainConfig = TrainConfig(),
    points: tuple[GeoPoint, ...] | None = None,
) -> tuple[WlrAgrnnModel, TrainingTrace]:
    """x is the raw (T, l, n) tensor; y the hourly TD; elevations h_j in m;
    points, if given, the l locations, recorded in the model.

    Features are standardized per factor, pooled over epochs and
    locations, so one expert parameter set serves every location.  The
    model's factors, location mode and meta keep their defaults here;
    pipeline.train_model sets them.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 3 or x.shape[0] != y.size:
        raise DataError(f"tensor {x.shape} vs target {y.shape}")
    t_count, l_count, n_factors = x.shape
    if t_count < 2:
        raise DataError("need at least 2 training epochs")
    if np.asarray(elevations).shape != (l_count,):
        raise DataError(
            f"{np.asarray(elevations).size} elevations for {l_count} locations"
        )
    # as measured: the leave-one-out stage peaks at about 3.5 T x T matrices
    # (86.1 MB at T = 1752 in path mode; two are the shifted distances and a
    # kernel); the expert, its gradient, its two Adam moments and the
    # update's temporaries are seven hidden x (n + 1) arrays
    require_cells(ConfigError, f"wlr_agrnn trains on {t_count} epochs: use a shorter train range",
                  leave_one_out_stage=(3.5, t_count, t_count))
    require_cells(ConfigError, "lower the wlr_agrnn hidden width",
                  expert_and_Adam_state=(7, cfg.hidden, n_factors + 1))
    h_tilde = transform_elevation(elevations, cfg.elevation_mode)
    standardizer = Standardizer.fit(x.reshape(t_count * l_count, n_factors))
    z = standardizer.transform(x.reshape(-1, n_factors)).reshape(x.shape)
    rng = np.random.default_rng(cfg.seed)
    params = WlrParams.init(n_factors, cfg.hidden, rng)
    w = np.ones(t_count)
    scales: list[float] = []

    def step(it: int):
        nonlocal w
        bank = _bank(params, z, h_tilde)
        # the search's T x T matrix is freed on return, before the next is built
        search = select_sigmas(bank, y, w, tol=cfg.sigma_tol)
        reweight = cfg.weight_scheme == "inverse_residual" and it > 0 and it % WEIGHT_EVERY == 0
        loss, grads, w = wrss_and_grads(params, z, y, h_tilde, bank, search, w, reweight)
        scales.append(search.c)
        return loss, grads

    trace = fit_adam([params.w1, params.w2], step, cfg, "WLR-AGRNN")
    # final bank/sigmas consistent with the final parameters
    bank = _bank(params, z, h_tilde)
    search = select_sigmas(bank, y, w, tol=cfg.sigma_tol)
    model = WlrAgrnnModel(
        params=params.copy(),
        h_tilde=h_tilde,
        elevation_mode=cfg.elevation_mode,
        sigmas=search.sigmas,
        # C-contiguous, as a reloaded artifact holds it, so BLAS sums the
        # in-memory and the reloaded model's predictions in the same order
        bank=np.ascontiguousarray(bank),
        y=y.copy(),
        w=w.copy(),
        standardizer=standardizer,
        points=points,
    )
    return model, replace(trace, sigma_scales=tuple(scales))
