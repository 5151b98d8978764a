"""Sample ingestion, empirical laws and the quantile-callable adapter.

The empirical law of a sample is a ``laws.DiscreteUniform`` on the sorted
draws. Its quantile is the right-continuous generalized inverse

    q(u) = inf{v : F(v) > u},  0 <= u < 1,

which on a sorted sample of size n is sorted_values[floor(u * n)] with the
index clamped to n - 1. Quadrature reads any law through the protocol
``quantile(u)``, ``tail_quantile(t)`` and ``quantile_breakpoints()``;
``QuantileFunction`` gives a bare callable that protocol.
"""
from __future__ import annotations

import math

import numpy as np

from .laws import DiscreteUniform

__all__ = [
    "QuantileFunction",
    "SampleCsvError",
    "as_sample",
    "empirical_from_sample",
    "load_sample_csv",
]


class SampleCsvError(ValueError):
    """Malformed sample file (non-numeric or non-finite row, or no data at all)."""


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


def empirical_from_sample(xi) -> DiscreteUniform:
    """The sample measure: uniform probability on the sorted draws."""
    return DiscreteUniform(as_sample(xi))


class QuantileFunction:
    """Law protocol for a bare vectorized quantile callable on [0, 1).

    The optional ``tail_fn`` evaluates q(1 - t) from t directly, which keeps
    full precision close to u = 1; ``breakpoints`` lists interior kinks in u.
    """

    def __init__(self, fn, *, tail_fn=None, breakpoints=()):
        self.quantile = fn
        self._tail_fn = tail_fn
        self._breakpoints = tuple(float(b) for b in breakpoints)

    @classmethod
    def from_empirical(cls, dist: DiscreteUniform) -> DiscreteUniform:
        """Atoms already carry the protocol; they are returned as they are,
        so quadrature takes the exact finite sum."""
        return dist

    def tail_quantile(self, t):
        """q(1 - t) for small positive t."""
        if self._tail_fn is not None:
            return self._tail_fn(t)
        return self.quantile(1.0 - np.asarray(t, dtype=float))

    def quantile_breakpoints(self) -> tuple:
        return self._breakpoints


def load_sample_csv(path) -> np.ndarray:
    """Read a single-column CSV of sample values, one number per line.

    A non-numeric first line is treated as a header. Blank lines are skipped.
    Any other non-numeric row, and any row that parses to nan or +-inf
    (including overflowing literals such as ``1e999``), raises
    ``SampleCsvError`` with its line number.
    """
    values: list[float] = []
    saw_header = False
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                if lineno == 1 and not saw_header:
                    saw_header = True
                    continue
                raise SampleCsvError(
                    f"non-numeric value at line {lineno}: {text!r}"
                ) from None
            if not math.isfinite(value):
                raise SampleCsvError(f"non-finite value at line {lineno}: {text!r}")
            values.append(value)
    if not values:
        raise SampleCsvError(f"no numeric rows in {path}")
    return as_sample(values)
