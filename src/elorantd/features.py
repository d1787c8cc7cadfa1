"""Polynomial feature expansion and column standardization.

The expansion emits a leading constant column followed by every monomial
of total degree 1..m over n inputs, ordered by degree and then
lexicographically by index tuple.  The monomial count (excluding the
constant) is sum_{k=1..m} C(n+k-1, k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import DataError


def term_count(n_features: int, degree: int) -> int:
    """Number of monomials of total degree 1..degree over n_features inputs."""
    if n_features < 1 or degree < 1:
        raise ValueError("n_features and degree must be >= 1")
    # closed form of the module docstring's sum, so any degree is cheap
    return math.comb(n_features + degree, degree) - 1


def monomial_terms(n_features: int, degree: int) -> list[tuple[int, ...]]:
    """Index tuples for every monomial, graded then lexicographic."""
    if n_features < 1 or degree < 1:
        raise ValueError("n_features and degree must be >= 1")
    terms: list[tuple[int, ...]] = []
    for k in range(1, degree + 1):
        terms.extend(combinations_with_replacement(range(n_features), k))
    return terms


@dataclass(frozen=True)
class PolyTermIndex:
    """Frozen monomial layout for one (n_features, degree) pair.

    Column 0 of the expanded design is the constant; terms[j] describes
    column j + 1.
    """

    n_features: int
    degree: int
    terms: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, n_features: int, degree: int) -> "PolyTermIndex":
        return cls(n_features, degree, tuple(monomial_terms(n_features, degree)))

    @property
    def n_columns(self) -> int:
        return len(self.terms) + 1


def poly_expand(x: np.ndarray, index: PolyTermIndex) -> np.ndarray:
    """Expand (n_samples, n_features) into [1 | monomial columns]."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != index.n_features:
        raise DataError(
            f"input shape {x.shape} does not match {index.n_features} features"
        )
    out = np.empty((x.shape[0], index.n_columns), dtype=float)
    out[:, 0] = 1.0
    for j, term in enumerate(index.terms):
        col = x[:, term[0]].copy()
        for i in term[1:]:
            col *= x[:, i]
        out[:, j + 1] = col
    return out


@dataclass(frozen=True)
class Standardizer:
    """Per-column mean/sd transform fitted on training data.

    Sample (n-1) standard deviation.  Fitting rejects constant columns,
    named by index, instead of silently dividing by zero.
    """

    mean: np.ndarray
    sd: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] < 2:
            raise DataError(f"need a 2-d matrix with >= 2 rows, got {x.shape}")
        mean = x.mean(axis=0)
        sd = x.std(axis=0, ddof=1)
        bad = np.flatnonzero(sd == 0.0)
        if bad.size:
            raise DataError(f"column {int(bad[0])} is constant; cannot standardize")
        return cls(mean=mean, sd=sd)

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.mean.size:
            raise DataError(
                f"input shape {x.shape} does not match {self.mean.size} columns"
            )
        return (x - self.mean) / self.sd


@dataclass(frozen=True)
class ScalarStandardizer:
    """Mean/sd transform for a 1-d target series (sample sd)."""

    mean: float
    sd: float

    @classmethod
    def fit(cls, y: np.ndarray) -> "ScalarStandardizer":
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or y.size < 2:
            raise DataError(f"need a 1-d series with >= 2 values, got {y.shape}")
        sd = float(y.std(ddof=1))
        if sd == 0.0:
            raise DataError("column target is constant; cannot standardize")
        return cls(mean=float(y.mean()), sd=sd)

    def transform(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.mean) / self.sd

    def inverse(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) * self.sd + self.mean
