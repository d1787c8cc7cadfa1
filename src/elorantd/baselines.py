"""Comparison models sharing the train/predict/serialize contract.

BPNN: one tanh hidden layer, linear output, full-batch Adam on MSE.
GRNN: the AGRNN Gaussian kernel of wlr_agrnn with one bandwidth tied
across every input (Specht 1991), its bandwidth by the WLR-AGRNN's
golden-section search on the same leave-one-out objective; no iterative
training, so its trace has exactly one entry.
MoE: tanh experts, each over a slice of the input, combined through a
softmax gate over a linear map of the full input, trained jointly.

The BPNN is the one-expert MoE with no gate (a softmax over one logit
is exactly 1; Jacobs et al. 1991), so one trainer and one forward pass
serve both.  They fit in standardized-target space for optimizer
conditioning; predictions are mapped back and the scaling is recorded
in the artifact.

Each trainer takes (x, y, cfg), its settings as one config dataclass
(MoE also takes its group slices).  The models' factors, location mode
and meta keep their defaults here; pipeline.train_model sets them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .features import ScalarStandardizer, Standardizer
from .optim import (
    AdamConfig,
    TrainingTrace,
    finite_kernel_scale,
    fit_adam,
    require_at_least,
    require_cells,
)
from .types import FactorSet
from .wlr_agrnn import agrnn_predict_batch, golden_section, loo_rss, loo_shift, pairwise_sq_dists

# sigma is searched in log sigma over this range times sqrt(n inputs)
GRNN_SIGMA_RANGE = (0.05, 5.0)
GRNN_LOG_SIGMA_TOL = 0.02


@dataclass(frozen=True)
class BpnnConfig(AdamConfig):
    hidden: int = 16

    def __post_init__(self):
        super().__post_init__()
        require_at_least(self, 1, "hidden")


@dataclass(frozen=True)
class MoeConfig(AdamConfig):
    experts: int = 4
    expert_hidden: int = 8

    def __post_init__(self):
        super().__post_init__()
        require_at_least(self, 1, "expert_hidden")
        require_at_least(self, 2, "experts")


@dataclass(frozen=True)
class GrnnConfig:
    """sigma None: chosen by leave-one-out; seed is only recorded."""

    sigma: float | None = None
    seed: int = 0

    def __post_init__(self):
        require_at_least(self, 0, "seed")
        if self.sigma is not None and not finite_kernel_scale(self.sigma):
            raise ValueError(f"sigma must be positive with a finite, positive kernel scale "
                             f"0.5 / sigma^2, got {self.sigma!r}")


def _check_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise DataError(f"features {x.shape} vs target {y.shape}")
    return x, y


# -- tanh mixture: the one trainer and forward of BPNN and MoE ----------------

def _check_slices(group_slices, n_inputs: int, widths) -> None:
    """Each expert reads a non-empty slice lo:hi of the inputs, as wide as its w1."""
    for (lo, hi), width in zip(group_slices, widths):
        if not 0 <= lo < hi <= n_inputs or width != hi - lo:
            raise ValueError(
                f"slice ({lo}, {hi}) of {n_inputs} inputs does not fit w1 width {width}")


def _require_mixture_cells(x: np.ndarray, experts: int, hidden: int, remedy: str) -> None:
    """Refuse, before any weight is drawn, a mixture over the cell bound.  As
    measured, a fit holds every expert's T x hidden tanh activations, about
    four more such arrays and the T x experts gate with its gradient, and
    about seven copies (weight, gradient, two Adam moments, temporaries) of
    each expert's and the gate's weights."""
    t_count, n_inputs = x.shape
    require_cells(ConfigError, remedy, activations_and_gate=(experts + 4, t_count, hidden + 4),
                  weights_and_Adam_state=(7, experts, hidden + 1, n_inputs + 2))


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _forward(experts, group_slices, gate, z: np.ndarray):
    """Prediction, expert outputs, tanh activations and gate weights (None
    for an empty gate) of the mixture on standardized inputs z."""
    outputs = np.empty((z.shape[0], len(experts)))
    hiddens = []
    for k, ((w1, b1, w2, b2), (lo, hi)) in enumerate(zip(experts, group_slices)):
        hiddens.append(np.tanh(z[:, lo:hi] @ w1.T + b1))
        outputs[:, k] = hiddens[k] @ w2 + b2
    if not gate:
        return outputs[:, 0], outputs, hiddens, None
    p = _softmax(z @ gate[0].T + gate[1])
    return np.einsum("tk,tk->t", p, outputs), outputs, hiddens, p


def _loss_and_grads(params: list[np.ndarray], group_slices, z: np.ndarray, ys: np.ndarray):
    """MSE and its gradient; params are (w1, b1, w2, b2) per expert, b2 of
    shape (1,), then the gate's (w, b) if two or more.  A diverging run
    overflows here; fit_adam reports it, so numpy does not."""
    with np.errstate(over="ignore", invalid="ignore"):
        k_count = len(group_slices)
        experts = [params[4 * k: 4 * k + 4] for k in range(k_count)]
        pred, outputs, hiddens, p = _forward(experts, group_slices, params[4 * k_count:], z)
        t_count = z.shape[0]
        err = pred - ys
        loss = float(np.dot(err, err) / t_count)
        delta = 2.0 * err / t_count
        grads: list[np.ndarray] = []
        for k, ((_, _, w2, _), (lo, hi), h) in enumerate(zip(experts, group_slices, hiddens)):
            d_out = delta if p is None else delta * p[:, k]
            back = np.outer(d_out, w2) * (1.0 - h * h)
            grads += [back.T @ z[:, lo:hi], back.sum(axis=0), h.T @ d_out,
                      np.array([d_out.sum()])]
        if p is not None:
            d_logits = p * (delta[:, None] * (outputs - pred[:, None]))
            grads += [d_logits.T @ z, d_logits.sum(axis=0)]
        return loss, grads


def _fit_tanh_mixture(x, y, group_slices, hidden: int, cfg: AdamConfig, name: str):
    """Adam on the MSE of one tanh expert per input slice, softmax-gated
    when two or more; returns experts, gate, both scalings and the trace."""
    _check_slices(group_slices, x.shape[1], [hi - lo for lo, hi in group_slices])
    standardizer = Standardizer.fit(x)
    target_scale = ScalarStandardizer.fit(y)
    z = standardizer.transform(x)
    ys = target_scale.transform(y)
    rng = np.random.default_rng(cfg.seed)
    params: list[np.ndarray] = []
    for lo, hi in group_slices:
        lim1 = 1.0 / math.sqrt(hi - lo)
        lim2 = 1.0 / math.sqrt(hidden)
        params += [
            rng.uniform(-lim1, lim1, size=(hidden, hi - lo)),
            rng.uniform(-lim1, lim1, size=hidden),
            rng.uniform(-lim2, lim2, size=hidden),
            np.zeros(1),
        ]
    k_count = len(group_slices)
    if k_count > 1:
        lim_g = 1.0 / math.sqrt(z.shape[1])
        params += [rng.uniform(-lim_g, lim_g, size=(k_count, z.shape[1])), np.zeros(k_count)]
    trace = fit_adam(params, lambda it: _loss_and_grads(params, group_slices, z, ys), cfg, name)
    experts = tuple((*params[4 * k: 4 * k + 3], float(params[4 * k + 3][0]))
                    for k in range(k_count))
    return experts, tuple(params[4 * k_count:]), standardizer, target_scale, trace


def _predict_mixture(model, x, experts, group_slices, gate) -> np.ndarray:
    z = model.standardizer.transform(x)
    return model.target_scale.inverse(_forward(experts, group_slices, gate, z)[0])


# -- BPNN ---------------------------------------------------------------------

@dataclass(frozen=True)
class BpnnModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    standardizer: Standardizer
    target_scale: ScalarStandardizer
    factors: FactorSet = ()
    location_mode: str = "receiver_only"
    meta: dict = field(default_factory=dict)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """(M, n) raw inputs -> (M,) predictions."""
        experts = ((self.w1, self.b1, self.w2, self.b2),)
        return _predict_mixture(self, x, experts, ((0, self.w1.shape[1]),), ())


def train_bpnn(
    x: np.ndarray, y: np.ndarray, cfg: BpnnConfig = BpnnConfig()
) -> tuple[BpnnModel, TrainingTrace]:
    """The one-expert mixture over all inputs."""
    x, y = _check_xy(x, y)
    _require_mixture_cells(x, 1, cfg.hidden, "lower the bpnn hidden width or shorten the "
                           "train range")
    ((w1, b1, w2, b2),), _, standardizer, target_scale, trace = _fit_tanh_mixture(
        x, y, ((0, x.shape[1]),), cfg.hidden, cfg, "BPNN"
    )
    model = BpnnModel(w1=w1, b1=b1, w2=w2, b2=b2,
                      standardizer=standardizer, target_scale=target_scale)
    return model, trace


# -- GRNN ---------------------------------------------------------------------

@dataclass(frozen=True)
class GrnnModel:
    bank: np.ndarray  # (T, n) standardized inputs
    y: np.ndarray
    sigma: float
    standardizer: Standardizer
    factors: FactorSet = ()
    location_mode: str = "receiver_only"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not finite_kernel_scale(self.sigma):
            raise ValueError(f"sigma {self.sigma!r} has no finite kernel scale 0.5 / sigma^2")

    def predict(self, x: np.ndarray) -> np.ndarray:
        """(M, n) raw inputs -> (M,) predictions."""
        return grnn_predict_batch(self.standardizer.transform(x), self.bank, self.y, self.sigma)


def grnn_predict_batch(
    queries: np.ndarray, bank: np.ndarray, y: np.ndarray, sigma: float
) -> np.ndarray:
    """Gaussian-kernel regression with one shared bandwidth."""
    q = np.asarray(queries, dtype=float)
    b = np.asarray(bank, dtype=float)
    y = np.asarray(y, dtype=float)
    if b.ndim != 2 or b.shape[0] == 0:
        raise DataError("bank has no rows")
    if q.ndim != 2 or q.shape[1] != b.shape[1]:
        raise DataError(f"queries {q.shape} vs bank {b.shape}")
    return agrnn_predict_batch(q.T, b.T, y, np.full(b.shape[1], float(sigma)), "grnn")


def train_grnn(
    x: np.ndarray, y: np.ndarray, cfg: GrnnConfig = GrnnConfig()
) -> tuple[GrnnModel, TrainingTrace]:
    """Store the bank; pick sigma by leave-one-out RSS unless cfg gives it."""
    x, y = _check_xy(x, y)
    # as measured: the shifted distances and the kernel buffer, two T x T
    # matrices, with the standardized bank and a temporary, two T x n
    require_cells(ConfigError, f"grnn trains on {x.shape[0]} epochs: use a shorter train range",
                  kernels_and_bank=(2, x.shape[0], x.shape[0] + x.shape[1]))
    standardizer = Standardizer.fit(x)
    bank = standardizer.transform(x)
    # one shifted distance matrix and one kernel buffer for every evaluation
    shifted = loo_shift(pairwise_sq_dists(bank.T))
    kernel = np.empty_like(shifted)
    sigma = cfg.sigma
    if sigma is None:
        lo, hi = (math.log(s * math.sqrt(bank.shape[1])) for s in GRNN_SIGMA_RANGE)
        sigma = math.exp(golden_section(
            lambda u: loo_rss(shifted, y, math.exp(u), out=kernel), lo, hi, GRNN_LOG_SIGMA_TOL))
    model = GrnnModel(bank=bank, y=y.copy(), sigma=float(sigma), standardizer=standardizer)
    return model, TrainingTrace((loo_rss(shifted, y, sigma, out=kernel),), True)


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
    factors: FactorSet = ()
    location_mode: str = "receiver_only"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_slices(self.group_slices, self.standardizer.mean.size,
                      [w1.shape[1] for w1, *_ in self.experts])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """(M, n) raw inputs -> (M,) predictions."""
        return _predict_mixture(self, x, self.experts, self.group_slices,
                                (self.gate_w, self.gate_b))


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
    x: np.ndarray, y: np.ndarray, cfg: MoeConfig = MoeConfig(), group_slices=None
) -> tuple[MoeModel, TrainingTrace]:
    x, y = _check_xy(x, y)
    _require_mixture_cells(x, cfg.experts, cfg.expert_hidden, "lower the moe expert_hidden "
                           "width or experts, or shorten the train range")
    if group_slices is None:
        group_slices = default_group_slices(x.shape[1], cfg.experts)
    group_slices = tuple((int(lo), int(hi)) for lo, hi in group_slices)
    if len(group_slices) != cfg.experts:
        raise ValueError(f"bad group slices {group_slices}")
    experts, (gate_w, gate_b), standardizer, target_scale, trace = _fit_tanh_mixture(
        x, y, group_slices, cfg.expert_hidden, cfg, "MoE"
    )
    model = MoeModel(
        experts=experts, gate_w=gate_w, gate_b=gate_b, group_slices=group_slices,
        standardizer=standardizer, target_scale=target_scale,
    )
    return model, trace
