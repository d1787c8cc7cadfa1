"""Adam, the training trace, the early-stopping rule and config range checks."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# float64 cells (2 GiB) in any one array built from settings: a design or Gram
# matrix, a generated scenario array, a grid raster, its IDW weights, a path tensor
MAX_ARRAY_CELLS = 2 ** 28


def require_at_least(cfg, low: float, *names: str, strict: bool = False) -> None:
    """Raise ValueError unless each named field is finite and >= low (> when strict)."""
    for name in names:
        value = getattr(cfg, name)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise ValueError(f"{name} must be {'>' if strict else '>='} {low}, got {value!r}")


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


class Adam:
    """Standard Adam with bias correction; state per parameter array."""

    def __init__(self, lr: float = 0.001, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Update params in place; an overflow leaves inf or nan for the trainer to report."""
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        if len(params) != len(self._m) or len(params) != len(grads):
            raise ValueError("parameter/gradient structure changed between steps")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        with np.errstate(over="ignore", invalid="ignore"):
            for p, g, m, v in zip(params, grads, self._m, self._v):
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
                p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
