"""Empirical distributions, quantile inverses and sample ingestion.

The quantile convention is the right-continuous generalized inverse

    q(u) = inf{v : F(v) > u},  0 <= u < 1,

which on a sorted sample of size n is sorted_values[floor(u * n)] with the
index clamped to n - 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmpiricalDistribution",
    "QuantileFunction",
    "SampleCsvError",
    "as_sample",
    "empirical_from_sample",
    "kolmogorov_distance",
    "load_sample_csv",
    "psi_moment",
]


class SampleCsvError(ValueError):
    """Malformed sample file (non-numeric row, or no data at all)."""


def as_sample(values) -> np.ndarray:
    """Validate and return a finite, nonempty 1-D float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    if arr.size == 0:
        raise ValueError("sample must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Uniform probability on the (sorted, multiplicity-preserving) values."""

    values: np.ndarray

    def __post_init__(self):
        vals = as_sample(self.values)
        if np.any(np.diff(vals) < 0.0):
            raise ValueError("values must be sorted nondecreasing")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_sample(cls, xi) -> "EmpiricalDistribution":
        return cls(np.sort(as_sample(xi)))

    @property
    def n(self) -> int:
        return int(self.values.size)

    def cdf(self, x):
        """F(x) = fraction of values <= x (right-continuous)."""
        out = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right") / self.n
        return float(out) if np.ndim(x) == 0 else out

    def quantile(self, u):
        """inf{v : F(v) > u} for 0 <= u < 1 (vectorized)."""
        uu = np.asarray(u, dtype=float)
        if np.any(uu < 0.0) or np.any(uu >= 1.0):
            raise ValueError("quantile level must satisfy 0 <= u < 1")
        idx = np.minimum((uu * self.n).astype(np.int64), self.n - 1)
        out = self.values[idx]
        return float(out) if np.ndim(u) == 0 else out

    def psi_moment(self, yf, k: float) -> float:
        """Mean of Psi(k * value) under this distribution."""
        if not k > 0.0:
            raise ValueError("scale k must be positive")
        return float(np.mean(yf.value(k * self.values)))


def empirical_from_sample(xi) -> EmpiricalDistribution:
    return EmpiricalDistribution.from_sample(xi)


def psi_moment(dist: EmpiricalDistribution, yf, k: float) -> float:
    return dist.psi_moment(yf, k)


def kolmogorov_distance(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """sup_x |F_a(x) - F_b(x)|, exact over the merged jump set."""
    jumps = np.unique(np.concatenate((a.values, b.values)))
    return float(np.max(np.abs(a.cdf(jumps) - b.cdf(jumps))))


class QuantileFunction:
    """Nondecreasing map on [0, 1).

    Wraps either an empirical step function (downstream integration is an
    exact finite sum) or a vectorized callable for parametric laws. The
    optional ``tail_fn`` evaluates q(1 - t) from t directly, which keeps full
    precision close to u = 1; ``breakpoints`` lists interior kinks in u.
    """

    def __init__(self, fn, *, empirical=None, tail_fn=None, breakpoints=()):
        self.fn = fn
        self.empirical = empirical
        self.tail_fn = tail_fn
        self.breakpoints = tuple(float(b) for b in breakpoints)

    @classmethod
    def from_empirical(cls, dist: EmpiricalDistribution) -> "QuantileFunction":
        return cls(dist.quantile, empirical=dist)

    @classmethod
    def from_callable(cls, fn, *, tail_fn=None, breakpoints=()) -> "QuantileFunction":
        return cls(fn, tail_fn=tail_fn, breakpoints=breakpoints)

    def __call__(self, u):
        return self.fn(u)

    def tail(self, t):
        """q(1 - t) for small positive t."""
        if self.tail_fn is not None:
            return self.tail_fn(t)
        return self.fn(1.0 - np.asarray(t, dtype=float))


def load_sample_csv(path) -> np.ndarray:
    """Read a single-column CSV of sample values, one number per line.

    A non-numeric first line is treated as a header. Blank lines are skipped.
    Any other non-numeric row raises ``SampleCsvError`` with its line number.
    """
    values: list[float] = []
    saw_header = False
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if lineno == 1 and not saw_header:
                    saw_header = True
                    continue
                raise SampleCsvError(
                    f"non-numeric value at line {lineno}: {text!r}"
                ) from None
    if not values:
        raise SampleCsvError(f"no numeric rows in {path}")
    return as_sample(values)
