"""Young functions: evaluation, conjugation, doubling-growth classification.

A Young function Phi is an even convex function with Phi(0) = 0, described by
its derivative phi on [0, inf): phi(0) = 0, phi nondecreasing, phi(x) > 0 for
x > 0, phi(x) -> inf. The conjugate Psi integrates the right-continuous
inverse psi(y) = inf{u : phi(u) > y}, so Young's inequality

    x * y <= Phi(x) + Psi(y)

holds for x, y >= 0, with equality at y = phi(x) (at continuity points).

Families:

* ``PowerYoung(p)``    Phi(x) = |x|**p / p, p >= 1. Conjugate is the dual
  exponent q = p/(p-1) for p > 1; p = 1 is the linear convention Phi(x) = |x|
  (admitted for moment checks, not conjugable within this class).
* ``ExpMinusYoung``    Phi(x) = exp(|x|) - |x| - 1.
* ``LogPlusYoung``     Phi(x) = (1+|x|)*log(1+|x|) - |x|, the conjugate of
  ``ExpMinusYoung``.
* ``TabulatedYoung``   derivative samples on a positive increasing grid,
  linearly interpolated from (0, 0) and linearly extrapolated beyond the grid
  with the final slope. Integration of the piecewise-linear derivative is
  exact (trapezoids).

``young_from_dict`` reads their JSON spec, whose form ``_spec`` declares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._spec import ArraySpec, Spec, _shaped, from_spec

__all__ = [
    "YoungFunction",
    "PowerYoung",
    "ExpMinusYoung",
    "LogPlusYoung",
    "TabulatedYoung",
    "Delta2Report",
    "EvaluationRangeError",
    "check_delta2",
    "young_from_dict",
]

_EXP_ARG_MAX = 709.0  # np.exp overflows float64 just above this


class EvaluationRangeError(ValueError):
    """Evaluation would overflow float64; raised instead of returning inf."""


def _as_finite_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("arguments must be finite")
    return arr


def _checked(out: np.ndarray, label: str) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise EvaluationRangeError(f"{label} overflows float64 on this argument")
    return out


class YoungFunction(Spec, kind="young function"):
    """Interface shared by the Young-function families."""

    def phi(self, x):
        """Derivative at |x| (vectorized)."""
        raise NotImplementedError

    def value(self, x):
        """Phi(x) = integral of phi over [0, |x|] (vectorized)."""
        raise NotImplementedError

    def conjugate(self) -> "YoungFunction":
        """The conjugate Young function Psi."""
        raise NotImplementedError

    def __call__(self, x):
        return self.value(x)


@dataclass(frozen=True)
class PowerYoung(YoungFunction):
    p: float

    family = "power"

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValueError(f"power exponent must be finite and >= 1, got {self.p}")

    def phi(self, x):
        ax = np.abs(_as_finite_array(x))
        if self.p == 1.0:
            out = np.where(ax > 0.0, 1.0, 0.0)
        else:
            with np.errstate(over="ignore"):
                out = ax ** (self.p - 1.0)
            _checked(out, "phi")
        return _shaped(out, x)

    def value(self, x):
        ax = np.abs(_as_finite_array(x))
        with np.errstate(over="ignore"):
            out = ax**self.p / self.p
        return _shaped(_checked(out, "Phi"), x)

    def conjugate(self) -> YoungFunction:
        if self.p == 1.0:
            raise ValueError(
                "the linear case p = 1 has no conjugate within this class "
                "(its partner vanishes on [0, 1] and is infinite beyond)"
            )
        return PowerYoung(self.p / (self.p - 1.0))


@dataclass(frozen=True)
class ExpMinusYoung(YoungFunction):
    family = "exp_minus"

    def phi(self, x):
        ax = np.abs(_as_finite_array(x))
        if np.any(ax > _EXP_ARG_MAX):
            raise EvaluationRangeError(
                f"phi overflows float64 beyond |x| = {_EXP_ARG_MAX}"
            )
        return _shaped(np.expm1(ax), x)

    def value(self, x):
        ax = np.abs(_as_finite_array(x))
        if np.any(ax > _EXP_ARG_MAX):
            raise EvaluationRangeError(
                f"Phi overflows float64 beyond |x| = {_EXP_ARG_MAX}"
            )
        return _shaped(np.expm1(ax) - ax, x)

    def conjugate(self) -> YoungFunction:
        return LogPlusYoung()


@dataclass(frozen=True)
class LogPlusYoung(YoungFunction):
    family = "log_plus"

    def phi(self, x):
        ax = np.abs(_as_finite_array(x))
        return _shaped(np.log1p(ax), x)

    def value(self, x):
        ax = np.abs(_as_finite_array(x))
        with np.errstate(over="ignore"):
            out = (1.0 + ax) * np.log1p(ax) - ax
        return _shaped(_checked(out, "Phi"), x)

    def conjugate(self) -> YoungFunction:
        return ExpMinusYoung()


class TabulatedYoung(ArraySpec, YoungFunction):
    """Young function from derivative samples ``phi_values`` on ``grid``.

    The derivative is piecewise linear through (0, 0) and the sample knots,
    and extends beyond the grid with the slope of the last segment. That
    slope must be positive so the derivative stays unbounded on the
    representable range. Interior flat segments are allowed; the conjugate
    inverts them in the right-continuous sense (the inverse jumps to the
    right endpoint of the flat).
    """

    family = "tabulated"
    _arrays = (("grid", "grid"), ("phi", "phi_values"))

    def __init__(self, grid, phi_values):
        grid = np.asarray(grid, dtype=float)
        phi_values = np.asarray(phi_values, dtype=float)
        if grid.ndim != 1 or phi_values.ndim != 1 or grid.size != phi_values.size:
            raise ValueError("grid and phi_values must be 1-D arrays of equal length")
        if grid.size < 2:
            raise ValueError("tabulated derivative needs at least two samples")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(phi_values))):
            raise ValueError("grid and phi_values must be finite")
        if grid[0] <= 0.0 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be positive and strictly increasing")
        if phi_values[0] <= 0.0:
            raise ValueError("first derivative sample must be positive")
        if np.any(np.diff(phi_values) < 0.0):
            raise ValueError("derivative samples must be nondecreasing")
        if phi_values[-1] <= phi_values[-2]:
            raise ValueError(
                "derivative must still increase on the last segment "
                "(unbounded on the representable range)"
            )
        xs = np.concatenate(([0.0], grid))
        ys = np.concatenate(([0.0], phi_values))
        self._xs = xs
        self._ys = ys
        # slope of each segment starting at a knot; the last one extends
        # the final segment beyond the grid
        slopes = np.diff(ys) / np.diff(xs)
        self._slopes = np.append(slopes, slopes[-1])
        self._cum = np.concatenate(
            ([0.0], np.cumsum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0))
        )
        for arr in (self._xs, self._ys, self._slopes, self._cum):
            arr.setflags(write=False)

    @property
    def grid(self) -> np.ndarray:
        return self._xs[1:]

    @property
    def phi_values(self) -> np.ndarray:
        return self._ys[1:]

    def _segment(self, ax):
        """Knot index at or below each |x|, offset from it, and phi there."""
        idx = np.searchsorted(self._xs, ax, side="right") - 1
        dx = ax - self._xs[idx]
        return idx, dx, self._ys[idx] + self._slopes[idx] * dx

    def phi(self, x):
        ax = np.abs(_as_finite_array(x))
        _, _, out = self._segment(ax)
        return _shaped(_checked(out, "phi"), x)

    def value(self, x):
        ax = np.abs(_as_finite_array(x))
        idx, dx, phi_ax = self._segment(ax)
        out = self._cum[idx] + dx * (self._ys[idx] + phi_ax) / 2.0
        return _shaped(_checked(out, "Phi"), x)

    def conjugate(self) -> YoungFunction:
        # Invert the knot sequence; a flat segment of phi collapses to a
        # single knot at its right endpoint (inf of the strict superlevel set).
        ys_k = [0.0]
        xs_k = [0.0]
        for x_i, y_i in zip(self._xs[1:], self._ys[1:]):
            if y_i == ys_k[-1]:
                xs_k[-1] = x_i
            else:
                ys_k.append(float(y_i))
                xs_k.append(float(x_i))
        return TabulatedYoung(ys_k[1:], xs_k[1:])


@dataclass(frozen=True, eq=False)
class Delta2Report:
    """Outcome of the doubling check Phi(2x) <= C * Phi(x) for x >= x0.

    When satisfied, ``C`` is the largest sampled ratio (the smallest constant
    dominating the grid) and ``x0`` is 0. When refused, ``C`` is inf and
    ``x0`` is the first abscissa whose ratio escaped.
    """

    satisfied: bool
    x0: float
    C: float
    witness_ratios: np.ndarray
    grid: np.ndarray


def check_delta2(
    yf: YoungFunction, grid, escape_threshold: float = 1e6
) -> Delta2Report:
    """Sampled doubling-condition check on a positive abscissa grid.

    An overflow of Phi(2x) counts as an escaped ratio. The report keeps the
    sampled ratios so callers can tighten the grid.
    """
    g = _as_finite_array(grid)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a nonempty 1-D array")
    if g[0] <= 0.0 or np.any(np.diff(g) <= 0.0):
        raise ValueError("grid must be positive and strictly increasing")
    if not (escape_threshold > 1.0):
        raise ValueError("escape_threshold must exceed 1")
    ratios = np.empty(g.size)
    for i, x in enumerate(g):
        base = float(yf.value(x))
        try:
            doubled = float(yf.value(2.0 * x))
        except EvaluationRangeError:
            doubled = math.inf
        ratios[i] = doubled / base
    ratios.setflags(write=False)
    if np.all(ratios <= escape_threshold):
        return Delta2Report(True, 0.0, float(np.max(ratios)), ratios, g)
    first = int(np.argmax(ratios > escape_threshold))
    return Delta2Report(False, float(g[first]), math.inf, ratios, g)


def young_from_dict(d: dict) -> YoungFunction:
    """Build a Young function from its JSON form; unknown keys are rejected."""
    return from_spec(d, "young function")
