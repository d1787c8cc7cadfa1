"""Comparison models sharing the train/predict/serialize contract.

BPNN: one tanh hidden layer, linear output, full-batch Adam on MSE.
GRNN: the AGRNN Gaussian kernel of wlr_agrnn with one bandwidth tied
across every input (Specht 1991), bandwidth by leave-one-out grid
search; no iterative training, so its trace has exactly one entry.
MoE: feedforward experts combined through a softmax gate over a linear
map of the full input, trained jointly.

BPNN and MoE fit in standardized-target space for optimizer
conditioning; predictions are mapped back and the scaling is recorded
in the artifact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyBankError,
    NonFiniteLossError,
)
from .features import ScalarStandardizer, Standardizer
from .optim import Adam, TrainingTrace, loss_converged, require_at_least
from .types import FactorSet
from .wlr_agrnn import agrnn_predict_batch, kernel_regression, loo_shift, pairwise_sq_dists

GRNN_SIGMA_GRID_RANGE = (0.05, 5.0)
GRNN_SIGMA_GRID_POINTS = 30


@dataclass(frozen=True)
class BaselineConfig:
    hidden: int = 16
    experts: int = 4
    expert_hidden: int = 8
    learning_rate: float = 0.001
    max_iterations: int = 2000
    tol: float = 1e-8
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        require_at_least(self, 0, "learning_rate", "max_iterations", "tol", "seed")
        require_at_least(self, 1, "hidden", "expert_hidden", "patience")
        require_at_least(self, 2, "experts")


@dataclass(frozen=True)
class GrnnConfig:
    """sigma None: chosen by leave-one-out; seed is only recorded."""

    sigma: float | None = None
    seed: int = 0

    def __post_init__(self):
        require_at_least(self, 0, "seed")
        if self.sigma is not None:
            require_at_least(self, 0, "sigma", strict=True)


def _check_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise DimensionMismatchError(f"features {x.shape} vs target {y.shape}")
    return x, y


# -- BPNN ---------------------------------------------------------------------

@dataclass(frozen=True)
class BpnnModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    standardizer: Standardizer
    target_scale: ScalarStandardizer
    factors: FactorSet
    location_mode: str
    meta: dict = field(default_factory=dict)

    def predict(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        z = self.standardizer.transform(x)
        out = np.tanh(z @ self.w1.T + self.b1) @ self.w2 + self.b2
        out = self.target_scale.inverse(out)
        return float(out[0]) if single else out


def train_bpnn(
    x: np.ndarray,
    y: np.ndarray,
    cfg: BaselineConfig = BaselineConfig(),
    factors: FactorSet = (),
    location_mode: str = "receiver_only",
    meta: dict | None = None,
) -> tuple[BpnnModel, TrainingTrace]:
    x, y = _check_xy(x, y)
    standardizer = Standardizer.fit(x)
    target_scale = ScalarStandardizer.fit(y)
    z = standardizer.transform(x)
    ys = target_scale.transform(y)
    rng = np.random.default_rng(cfg.seed)
    n_in = z.shape[1]
    lim1 = 1.0 / math.sqrt(n_in)
    lim2 = 1.0 / math.sqrt(cfg.hidden)
    w1 = rng.uniform(-lim1, lim1, size=(cfg.hidden, n_in))
    b1 = rng.uniform(-lim1, lim1, size=cfg.hidden)
    w2 = rng.uniform(-lim2, lim2, size=cfg.hidden)
    b2 = np.zeros(1)
    adam = Adam(lr=cfg.learning_rate)
    t_count = z.shape[0]
    losses: list[float] = []
    for _ in range(cfg.max_iterations):
        hidden = np.tanh(z @ w1.T + b1)
        pred = hidden @ w2 + b2[0]
        err = pred - ys
        loss = float(np.dot(err, err) / t_count)
        if not math.isfinite(loss):
            raise NonFiniteLossError("BPNN loss became non-finite")
        losses.append(loss)
        delta = 2.0 * err / t_count
        g_w2 = hidden.T @ delta
        g_b2 = np.array([delta.sum()])
        back = np.outer(delta, w2) * (1.0 - hidden * hidden)
        g_w1 = back.T @ z
        g_b1 = back.sum(axis=0)
        adam.step([w1, b1, w2, b2], [g_w1, g_b1, g_w2, g_b2])
        if loss_converged(losses, cfg.tol, cfg.patience):
            break
    if not losses:
        hidden = np.tanh(z @ w1.T + b1)
        err = hidden @ w2 + b2[0] - ys
        losses.append(float(np.dot(err, err) / t_count))
    model = BpnnModel(
        w1=w1, b1=b1, w2=w2, b2=float(b2[0]),
        standardizer=standardizer, target_scale=target_scale,
        factors=factors, location_mode=location_mode, meta=dict(meta or {}),
    )
    return model, TrainingTrace(tuple(losses), loss_converged(losses, cfg.tol, cfg.patience))


# -- GRNN ---------------------------------------------------------------------

@dataclass(frozen=True)
class GrnnModel:
    bank: np.ndarray  # (T, n) standardized inputs
    y: np.ndarray
    sigma: float
    standardizer: Standardizer
    factors: FactorSet
    location_mode: str
    meta: dict = field(default_factory=dict)

    def predict(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        out = grnn_predict_batch(self.standardizer.transform(x), self.bank, self.y, self.sigma)
        return float(out[0]) if single else out


def grnn_predict_batch(
    queries: np.ndarray, bank: np.ndarray, y: np.ndarray, sigma: float
) -> np.ndarray:
    """Gaussian-kernel regression with one shared bandwidth."""
    q = np.asarray(queries, dtype=float)
    b = np.asarray(bank, dtype=float)
    y = np.asarray(y, dtype=float)
    if b.ndim != 2 or b.shape[0] == 0:
        raise EmptyBankError("bank has no rows")
    if q.ndim != 2 or q.shape[1] != b.shape[1]:
        raise DimensionMismatchError(f"queries {q.shape} vs bank {b.shape}")
    if sigma <= 0:
        raise ValueError("sigma must be strictly positive")
    return agrnn_predict_batch(q.T, b.T, y, np.full(b.shape[1], float(sigma)))


def _loo_rss(shifted: np.ndarray, y: np.ndarray, sigma: float, out=None) -> float:
    _, yhat, _ = kernel_regression(shifted, y, 0.5 / (sigma * sigma), out=out)
    r = y - yhat
    return float(np.dot(r, r))


def grnn_sigma_grid(n_dims: int) -> tuple[float, ...]:
    lo, hi = GRNN_SIGMA_GRID_RANGE
    scale = math.sqrt(n_dims)
    return tuple(
        float(s) * scale
        for s in np.logspace(math.log10(lo), math.log10(hi), GRNN_SIGMA_GRID_POINTS)
    )


def train_grnn(
    x: np.ndarray,
    y: np.ndarray,
    sigma: float | None = None,
    factors: FactorSet = (),
    location_mode: str = "receiver_only",
    meta: dict | None = None,
) -> tuple[GrnnModel, TrainingTrace]:
    """Store the bank; pick sigma by leave-one-out RSS unless given."""
    x, y = _check_xy(x, y)
    standardizer = Standardizer.fit(x)
    bank = standardizer.transform(x)
    if sigma is None:
        if bank.shape[0] < 2:
            raise EmptyBankError("need at least 2 rows to select sigma")
        # one shifted distance matrix and one kernel buffer for the whole grid
        shifted = loo_shift(pairwise_sq_dists(bank.T))
        kernel = np.empty_like(shifted)
        # the first grid point with the least leave-one-out RSS
        sigma, final_rss = min(
            ((cand, _loo_rss(shifted, y, cand, kernel)) for cand in grnn_sigma_grid(bank.shape[1])),
            key=lambda pair: pair[1],
        )
    else:
        if sigma <= 0:
            raise ValueError("sigma must be strictly positive")
        final_rss = (
            _loo_rss(loo_shift(pairwise_sq_dists(bank.T)), y, sigma) if bank.shape[0] >= 2 else 0.0
        )
    model = GrnnModel(
        bank=bank, y=y.copy(), sigma=float(sigma),
        standardizer=standardizer, factors=factors,
        location_mode=location_mode, meta=dict(meta or {}),
    )
    return model, TrainingTrace((final_rss,), True)


# -- Mixture of experts -------------------------------------------------------

@dataclass(frozen=True)
class MoeModel:
    # per-expert parameter tuples (w1, b1, w2, b2)
    experts: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, float], ...]
    gate_w: np.ndarray  # (K, n_in)
    gate_b: np.ndarray  # (K,)
    group_slices: tuple[tuple[int, int], ...]
    standardizer: Standardizer
    target_scale: ScalarStandardizer
    factors: FactorSet
    location_mode: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.standardizer.mean.size
        for (w1, *_), (lo, hi) in zip(self.experts, self.group_slices):
            if not 0 <= lo < hi <= n or w1.shape[1] != hi - lo:
                raise ValueError(f"slice ({lo}, {hi}) of {n} inputs does not fit w1 {w1.shape}")

    def predict(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        z = self.standardizer.transform(x)
        outputs = _expert_outputs(self.experts, self.group_slices, z)
        p = _softmax(z @ self.gate_w.T + self.gate_b)
        out = self.target_scale.inverse(np.einsum("tk,tk->t", p, outputs))
        return float(out[0]) if single else out


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _expert_outputs(experts, group_slices, z: np.ndarray) -> np.ndarray:
    outputs = np.empty((z.shape[0], len(experts)))
    for k, ((w1, b1, w2, b2), (lo, hi)) in enumerate(zip(experts, group_slices)):
        outputs[:, k] = np.tanh(z[:, lo:hi] @ w1.T + b1) @ w2 + b2
    return outputs


def default_group_slices(n_inputs: int, n_experts: int, n_locations: int = 1):
    """Contiguous location groups; flat inputs give every expert the
    whole vector."""
    if n_locations <= 1 or n_locations < n_experts:
        return tuple((0, n_inputs) for _ in range(n_experts))
    per_loc = n_inputs // n_locations
    bounds = np.linspace(0, n_locations, n_experts + 1).round().astype(int)
    return tuple(
        (int(bounds[k]) * per_loc, int(bounds[k + 1]) * per_loc) for k in range(n_experts)
    )


def train_moe(
    x: np.ndarray,
    y: np.ndarray,
    cfg: BaselineConfig = BaselineConfig(),
    group_slices=None,
    factors: FactorSet = (),
    location_mode: str = "receiver_only",
    meta: dict | None = None,
) -> tuple[MoeModel, TrainingTrace]:
    x, y = _check_xy(x, y)
    standardizer = Standardizer.fit(x)
    target_scale = ScalarStandardizer.fit(y)
    z = standardizer.transform(x)
    ys = target_scale.transform(y)
    n_in = z.shape[1]
    if group_slices is None:
        group_slices = default_group_slices(n_in, cfg.experts)
    group_slices = tuple((int(lo), int(hi)) for lo, hi in group_slices)
    if len(group_slices) != cfg.experts or any(hi <= lo for lo, hi in group_slices):
        raise ValueError(f"bad group slices {group_slices}")
    rng = np.random.default_rng(cfg.seed)
    params: list[np.ndarray] = []
    layout: list[tuple[int, int]] = []  # (lo, hi) per expert, for rebuild
    for lo, hi in group_slices:
        width = hi - lo
        lim1 = 1.0 / math.sqrt(width)
        lim2 = 1.0 / math.sqrt(cfg.expert_hidden)
        params.append(rng.uniform(-lim1, lim1, size=(cfg.expert_hidden, width)))
        params.append(rng.uniform(-lim1, lim1, size=cfg.expert_hidden))
        params.append(rng.uniform(-lim2, lim2, size=cfg.expert_hidden))
        params.append(np.zeros(1))
        layout.append((lo, hi))
    lim_g = 1.0 / math.sqrt(n_in)
    gate_w = rng.uniform(-lim_g, lim_g, size=(cfg.experts, n_in))
    gate_b = np.zeros(cfg.experts)
    params += [gate_w, gate_b]
    adam = Adam(lr=cfg.learning_rate)
    t_count = z.shape[0]
    losses: list[float] = []
    for _ in range(cfg.max_iterations):
        hiddens = []
        outputs = np.empty((t_count, cfg.experts))
        for k, (lo, hi) in enumerate(layout):
            w1, b1, w2, b2 = params[4 * k: 4 * k + 4]
            h = np.tanh(z[:, lo:hi] @ w1.T + b1)
            hiddens.append(h)
            outputs[:, k] = h @ w2 + b2[0]
        logits = z @ gate_w.T + gate_b
        p = _softmax(logits)
        pred = np.einsum("tk,tk->t", p, outputs)
        err = pred - ys
        loss = float(np.dot(err, err) / t_count)
        if not math.isfinite(loss):
            raise NonFiniteLossError("MoE loss became non-finite")
        losses.append(loss)
        delta = 2.0 * err / t_count
        grads: list[np.ndarray] = []
        for k, (lo, hi) in enumerate(layout):
            w1, b1, w2, b2 = params[4 * k: 4 * k + 4]
            h = hiddens[k]
            d_out = delta * p[:, k]
            g_w2 = h.T @ d_out
            g_b2 = np.array([d_out.sum()])
            back = np.outer(d_out, w2) * (1.0 - h * h)
            grads += [back.T @ z[:, lo:hi], back.sum(axis=0), g_w2, g_b2]
        d_logits = p * (delta[:, None] * (outputs - pred[:, None]))
        grads += [d_logits.T @ z, d_logits.sum(axis=0)]
        adam.step(params, grads)
        if loss_converged(losses, cfg.tol, cfg.patience):
            break
    if not losses:
        outputs = _expert_outputs(
            [tuple(params[4 * k: 4 * k + 3]) + (float(params[4 * k + 3][0]),)
             for k in range(cfg.experts)],
            layout, z,
        )
        p = _softmax(z @ gate_w.T + gate_b)
        err = np.einsum("tk,tk->t", p, outputs) - ys
        losses.append(float(np.dot(err, err) / t_count))
    experts = tuple(
        (params[4 * k].copy(), params[4 * k + 1].copy(), params[4 * k + 2].copy(),
         float(params[4 * k + 3][0]))
        for k in range(cfg.experts)
    )
    model = MoeModel(
        experts=experts, gate_w=gate_w.copy(), gate_b=gate_b.copy(),
        group_slices=tuple(layout), standardizer=standardizer,
        target_scale=target_scale, factors=factors,
        location_mode=location_mode, meta=dict(meta or {}),
    )
    return model, TrainingTrace(tuple(losses), loss_converged(losses, cfg.tol, cfg.patience))
