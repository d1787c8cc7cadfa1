"""Correlation-based factor selection, one-way ANOVA, and error metrics.

The t and F tail probabilities both reduce to the regularized incomplete
beta function, evaluated here with the modified Lentz continued fraction
so the package stays numpy-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .types import FactorSet, MetFactor, factor_set

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 500
_LENTZ_TINY = 1e-300


def _lentz_step(aa: float, c: float, d: float) -> tuple[float, float]:
    """c and d after one modified-Lentz step with partial numerator aa."""
    d = 1.0 + aa * d
    if abs(d) < _LENTZ_TINY:
        d = _LENTZ_TINY
    c = 1.0 + aa / c
    if abs(c) < _LENTZ_TINY:
        c = _LENTZ_TINY
    return c, 1.0 / d


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _LENTZ_TINY:
        d = _LENTZ_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        c, d = _lentz_step(m * (b - m) * x / ((qam + m2) * (a + m2)), c, d)
        h *= d * c
        c, d = _lentz_step(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise RuntimeError(f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf_two_sided(t: float, df: float) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    t = abs(float(t))
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def f_sf(f: float, df1: float, df2: float) -> float:
    """Survival function P(F >= f) for the F distribution."""
    if df1 <= 0 or df2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 1.0
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


@dataclass(frozen=True)
class CorrelationResult:
    factor: MetFactor | None
    r: float
    p: float
    n_samples: int


@dataclass(frozen=True)
class AnovaResult:
    f_statistic: float
    p: float
    df_between: int
    df_within: int


def pearson(x, y, factor: MetFactor | None = None) -> CorrelationResult:
    """Pearson correlation with a two-sided t-test p-value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"series shapes {x.shape} vs {y.shape}")
    n = x.size
    if n < 3:
        raise DataError(f"need at least 3 samples, got {n}")
    xd = x - x.mean()
    yd = y - y.mean()
    sx = float(np.sqrt(np.dot(xd, xd)))
    sy = float(np.sqrt(np.dot(yd, yd)))
    if sx == 0.0 or sy == 0.0:
        raise DataError("pearson undefined for a constant series")
    r = float(np.dot(xd, yd) / (sx * sy))
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = student_t_sf_two_sided(t, n - 2)
    return CorrelationResult(factor=factor, r=r, p=p, n_samples=n)


def select_factors(
    correlations: list[CorrelationResult],
    r_min: float = 0.5,
    p_max: float = 0.05,
) -> FactorSet:
    """Keep factors with p <= p_max and |r| >= r_min, in canonical order."""
    kept = [c.factor for c in correlations if c.p <= p_max and abs(c.r) >= r_min]
    if any(f is None for f in kept):
        raise ValueError("correlation results must carry their factor")
    return factor_set(kept)


def _check_pair(actual, predicted):
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape or a.ndim != 1:
        raise DataError(f"series shapes {a.shape} vs {p.shape}")
    if a.size == 0:
        raise DataError("empty series")
    return a, p


def rmse(actual, predicted) -> float:
    a, p = _check_pair(actual, predicted)
    return float(np.sqrt(np.mean((a - p) ** 2)))


def mae(actual, predicted) -> float:
    a, p = _check_pair(actual, predicted)
    return float(np.mean(np.abs(a - p)))


def anova_oneway(groups) -> AnovaResult:
    """One-way ANOVA over >= 2 groups of >= 2 samples each."""
    arrays = [np.asarray(g, dtype=float) for g in groups]
    if len(arrays) < 2 or any(a.size < 2 for a in arrays):
        raise DataError("need >= 2 groups with >= 2 samples each")
    k = len(arrays)
    n_total = sum(a.size for a in arrays)
    grand = sum(float(a.sum()) for a in arrays) / n_total
    ss_between = sum(a.size * (float(a.mean()) - grand) ** 2 for a in arrays)
    ss_within = sum(float(((a - a.mean()) ** 2).sum()) for a in arrays)
    df_between = k - 1
    df_within = n_total - k
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    if ms_within == 0.0:
        # identical values within every group: F is 0/0 when means also tie,
        # infinite otherwise
        f_stat = 0.0 if ms_between == 0.0 else math.inf
        p = 1.0 if ms_between == 0.0 else 0.0
        return AnovaResult(f_stat, p, df_between, df_within)
    f_stat = ms_between / ms_within
    return AnovaResult(f_stat, f_sf(f_stat, df_between, df_within), df_between, df_within)
