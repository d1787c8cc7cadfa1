"""The Adam fit and its options, the training trace, the stop rule, config
range checks and the one cell bound on allocations."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteLossError

# float64 cells (2 GiB) in any one array, or set of arrays alive at once, whose
# size the settings or the data decide; require_cells holds every such bound
MAX_ARRAY_CELLS = 2 ** 28


def require_cells(error: type[Exception], remedy: str, **arrays) -> None:
    """Raise error for the largest keyword entry over MAX_ARRAY_CELLS: an array, or
    arrays alive at once (_ reads as a space), its dimensions multiplied as floats
    (each capped at 2**1000) so that no huge ratio is rounded to an int first."""
    shapes = {name: [float(min(d, 2.0 ** 1000)) for d in dims] for name, dims in arrays.items()}
    name = max(shapes, key=lambda key: math.prod(shapes[key]))
    if math.prod(shapes[name]) > MAX_ARRAY_CELLS:
        raise error(f"{name.replace('_', ' ')} of {' x '.join(f'{d:.10g}' for d in shapes[name])} "
                    f"cells would exceed {MAX_ARRAY_CELLS} cells; {remedy}")


def require_at_least(cfg, low: float, *names: str, strict: bool = False) -> None:
    """Raise ValueError unless each named field is finite and >= low (> when strict)."""
    for name in names:
        value = getattr(cfg, name)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise ValueError(f"{name} must be {'>' if strict else '>='} {low}, got {value!r}")


def finite_kernel_scale(sigmas) -> bool:
    """Each sigma is positive, with a finite, positive kernel scale 0.5 / sigma^2."""
    s = np.asarray(sigmas, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        scale = 0.5 / (s * s)
    return bool(np.all((s > 0) & (scale > 0) & (scale < np.inf)))


def loss_converged(losses: list[float], tol: float, patience: int) -> bool:
    """The last patience loss changes are each below tol, relative to max(1, |loss|)."""
    if len(losses) <= patience:
        return False
    recent = losses[-(patience + 1):]
    scale = max(1.0, abs(recent[0]))
    return all(abs(recent[i + 1] - recent[i]) / scale < tol for i in range(patience))


@dataclass(frozen=True)
class TrainingTrace:
    """Loss per iteration (or per sweep) plus the stop reason.

    sigma_scales holds the WLR-AGRNN bandwidth scale c of each iteration
    and is empty for the other kinds; it is not written to the trace CSV
    or the artifact.
    """

    losses: tuple[float, ...]
    converged: bool
    sigma_scales: tuple[float, ...] = ()

    @property
    def iterations(self) -> int:
        return len(self.losses)


@dataclass(frozen=True)
class AdamConfig:
    """The options of a full-batch Adam fit (fit_adam); a trainer's config
    subclasses it, redeclaring the defaults that differ."""

    learning_rate: float = 0.001
    max_iterations: int = 2000
    tol: float = 1e-8
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        require_at_least(self, 0, "learning_rate", "max_iterations", "tol", "seed")
        require_at_least(self, 1, "patience")


def fit_adam(params: list[np.ndarray], step, cfg: AdamConfig, name: str) -> TrainingTrace:
    """Full-batch Adam with bias correction (Kingma & Ba 2015), params updated in place.

    step(it) returns the loss at the current params and one gradient per param.
    Each iteration steps, records the loss, updates, and stops once
    loss_converged holds; max_iterations 0 records the initial loss alone.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    losses: list[float] = []
    converged = False
    for it in range(max(cfg.max_iterations, 1)):
        loss, grads = step(it)
        if not math.isfinite(loss):
            raise NonFiniteLossError(f"{name} loss became non-finite at iteration {it}")
        losses.append(loss)
        if it == cfg.max_iterations:
            break
        b1t = 1.0 - beta1 ** (it + 1)
        b2t = 1.0 - beta2 ** (it + 1)
        # an overflow leaves inf or nan, which the next loss or the end reports
        with np.errstate(over="ignore", invalid="ignore"):
            for p, g, m_p, v_p in zip(params, grads, m, v):
                m_p *= beta1
                m_p += (1.0 - beta1) * g
                v_p *= beta2
                v_p += (1.0 - beta2) * g * g
                p -= cfg.learning_rate * (m_p / b1t) / (np.sqrt(v_p / b2t) + eps)
        converged = loss_converged(losses, cfg.tol, cfg.patience)
        if converged:
            break
    if not all(np.isfinite(p).all() for p in params):  # a saturated tanh keeps its loss finite
        raise NonFiniteLossError(f"{name} loss became non-finite at iteration {len(losses)}")
    return TrainingTrace(tuple(losses), converged)
