"""Distortion (Choquet) risk measures on finite samples.

A distortion function f is convex on [0, 1] with f(0) = 0 and f(1) = 1.
The induced risk measure of a random variable with quantile function q is

    rho = integral over (0, 1) of q(u) * f'(u) du,

which on a sample of n equally weighted atoms collapses to the exact
L-statistic

    rho_hat = sum_k sorted_xi[k] * w_k,   w_k = f(k/n) - f((k-1)/n),

with the final weight computed from f(1) = 1 literally so the weights
telescope to one. The dual description is the scenario set

    S = {h >= 0 : mean h = 1, mean(h * 1_A) >= f(P[A]) for all events A},

whose extreme points are the rearrangements of f' (finite Ryff picture).
``core_membership`` and the default ``convex_dominance`` test its order,
Hardy-Littlewood-Polya majorization, by one kernel for any n; only
``bruteforce_choquet`` (n! permutations) and exhaustive ``ryff_scenarios``
enumerate, and they are capped at n <= 8. Both index one numpy array of the
n! permutations in lexicographic order; the Ryff set keeps each distinct row's
first copy, keyed by folding the rank codes of its entries into one integer.

``distortion_from_dict`` reads a distortion's JSON spec (form in ``_spec``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._spec import ArraySpec, Spec, _is_count, _shaped, from_spec, spec_label
from .laws import DiscreteUniform
from .quadrature import _split_breakpoints, dyadic_unit_integral
from .quantiles import as_sample

__all__ = [
    "DistortionFunction",
    "ExpectedShortfall",
    "PowerDistortion",
    "PiecewiseLinearDistortion",
    "ScenarioSet",
    "bruteforce_choquet",
    "choquet_empirical",
    "choquet_quadrature",
    "convex_dominance",
    "core_membership",
    "distortion_from_dict",
    "rho_finite_scenario",
    "ryff_scenarios",
]


@functools.cache
def _permutation_index(n: int) -> np.ndarray:
    """The n! x n permutations of range(n) in lexicographic order, read-only, built once
    per n <= 8 (2.9 MB in all). Level m's rows that start with ``first`` hold level m - 1
    with entries >= ``first`` raised by one."""
    idx = np.zeros((1, 0), dtype=np.intp)
    for m in range(1, n + 1):
        prev, rows = idx, idx.shape[0]
        idx = np.empty((m * rows, m), dtype=np.intp)
        for first in range(m):
            block = idx[first * rows : (first + 1) * rows]
            block[:, 0] = first
            np.add(prev, prev >= first, out=block[:, 1:])
    idx.setflags(write=False)
    return idx


class DistortionFunction(Spec, kind="distortion"):
    """Convex distortion of the unit interval with f(0) = 0, f(1) = 1."""

    def value(self, t):
        raise NotImplementedError

    def right_derivative(self, t):
        raise NotImplementedError

    def breakpoints(self) -> tuple:
        """Interior kinks of f' in u coordinates."""
        return ()

    def tail_breakpoints(self) -> tuple:
        """Kinks of t -> f'(1 - t), expressed in t coordinates."""
        return tuple(1.0 - b for b in self.breakpoints() if b > 0.5)

    def tail_right_derivative(self, t):
        """f'(1 - t), overridable for an exact threshold in t."""
        return self.right_derivative(1.0 - np.asarray(t, dtype=float))

    def increments(self, n: int) -> np.ndarray:
        """Weights w_k = f(k/n) - f((k-1)/n), k = 1..n; the top weight uses
        f(1) = 1 literally so the weights sum to one."""
        if not _is_count(n):
            raise ValueError(f"n must be a positive integer, got {n!r}")
        levels = np.arange(n + 1) / n
        fvals = np.asarray(self.value(levels), dtype=float)
        fvals[-1] = 1.0
        return np.diff(fvals)

    def label(self) -> str:
        return spec_label(self)

    def __call__(self, t):
        return self.value(t)


@dataclass(frozen=True)
class ExpectedShortfall(DistortionFunction):
    """f(t) = max(0, (t - (1 - alpha)) / alpha): mean of the top alpha tail."""

    alpha: float

    family = "es"
    _name = "expected shortfall"

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")

    def value(self, t):
        tt = np.asarray(t, dtype=float)
        out = np.clip((tt - (1.0 - self.alpha)) / self.alpha, 0.0, 1.0)
        return _shaped(out, t)

    def right_derivative(self, t):
        tt = np.asarray(t, dtype=float)
        out = np.where(tt >= 1.0 - self.alpha, 1.0 / self.alpha, 0.0)
        return _shaped(out, t)

    def tail_right_derivative(self, t):
        tt = np.asarray(t, dtype=float)
        out = np.where(tt <= self.alpha, 1.0 / self.alpha, 0.0)
        return _shaped(out, t)

    def breakpoints(self) -> tuple:
        return (1.0 - self.alpha,) if self.alpha < 1.0 else ()

    def tail_breakpoints(self) -> tuple:
        return (self.alpha,) if self.alpha < 1.0 else ()


@dataclass(frozen=True)
class PowerDistortion(DistortionFunction):
    """f(t) = t**gamma with gamma >= 1."""

    gamma: float

    family = "power"

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ValueError(f"gamma must be finite and >= 1, got {self.gamma}")

    def value(self, t):
        out = np.asarray(t, dtype=float) ** self.gamma
        return _shaped(out, t)

    def right_derivative(self, t):
        out = self.gamma * np.asarray(t, dtype=float) ** (self.gamma - 1.0)
        return _shaped(out, t)


class PiecewiseLinearDistortion(ArraySpec, DistortionFunction):
    """Convex piecewise-linear distortion through explicit knots.

    ``knots`` is a sequence of (t, f(t)) pairs starting at (0, 0), ending at
    (1, 1), with strictly increasing t, values inside [0, 1] and nondecreasing
    segment slopes (convexity).
    """

    family = "piecewise"
    _arrays = (("knots", "knots"),)

    def __init__(self, knots):
        pts = np.asarray(knots, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("knots must be a sequence of at least two (t, value) pairs")
        if not np.all(np.isfinite(pts)):
            raise ValueError("knots must be finite")
        ts, vs = pts[:, 0], pts[:, 1]
        if ts[0] != 0.0 or ts[-1] != 1.0 or vs[0] != 0.0 or vs[-1] != 1.0:
            raise ValueError("knots must run from (0, 0) to (1, 1)")
        if np.any(np.diff(ts) <= 0.0):
            raise ValueError("knot abscissas must be strictly increasing")
        if np.any(vs < 0.0) or np.any(vs > 1.0):
            raise ValueError("knot values must lie in [0, 1]")
        slopes = np.diff(vs) / np.diff(ts)
        if np.any(np.diff(slopes) < 0.0):
            raise ValueError("slopes must be nondecreasing (convexity)")
        self._ts = ts
        self._vs = vs
        self._slopes = slopes
        for arr in (self._ts, self._vs, self._slopes):
            arr.setflags(write=False)

    @property
    def knots(self) -> np.ndarray:
        return np.column_stack((self._ts, self._vs))

    def value(self, t):
        out = np.interp(np.asarray(t, dtype=float), self._ts, self._vs)
        return _shaped(out, t)

    def right_derivative(self, t):
        tt = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._ts, tt, side="right") - 1
        idx = np.clip(idx, 0, self._slopes.size - 1)
        out = self._slopes[idx]
        return _shaped(out, t)

    def breakpoints(self) -> tuple:
        return tuple(float(t) for t in self._ts[1:-1])

    def label(self) -> str:
        pairs = ",".join(f"({t:g},{v:g})" for t, v in zip(self._ts, self._vs))
        return f"piecewise[{pairs}]"


def choquet_empirical(xi, f: DistortionFunction) -> float:
    """L-statistic estimate: sorted sample against the distortion increments."""
    x = np.sort(as_sample(xi))
    return float(np.dot(x, f.increments(x.size)))


def choquet_quadrature(
    law,
    f: DistortionFunction,
    *,
    rel_tol: float = 1e-8,
    max_level: int = 200,
) -> float:
    """Choquet integral of q(u) f'(u) du over (0, 1).

    ``law`` is read through the law protocol (``quantile``, ``tail_quantile``,
    ``quantile_breakpoints``). A ``DiscreteUniform`` integrates exactly (the
    same finite sum as ``choquet_empirical``); any other law goes through
    dyadic endpoint refinement, raising ``QuadratureDivergenceError`` when the
    tail fails to stabilize.
    """
    if isinstance(law, DiscreteUniform):
        return choquet_empirical(law.values, f)
    law_left, law_tail = _split_breakpoints(law.quantile_breakpoints())
    left_breaks = [b for b in f.breakpoints() if b <= 0.5] + law_left
    tail_breaks = list(f.tail_breakpoints()) + law_tail

    def left(u):
        return np.asarray(law.quantile(u), dtype=float) * np.asarray(
            f.right_derivative(u), dtype=float
        )

    def tail(t):
        return np.asarray(law.tail_quantile(t), dtype=float) * np.asarray(
            f.tail_right_derivative(t), dtype=float
        )

    return dyadic_unit_integral(
        left,
        tail,
        rel_tol=rel_tol,
        left_breakpoints=left_breaks,
        tail_breakpoints=tail_breaks,
        max_level=max_level,
    )


def _densities(densities, mean_tol: float) -> np.ndarray:
    """``densities`` as float rows, each checked nonnegative with mean 1 within ``mean_tol``."""
    dens = np.atleast_2d(np.asarray(densities, dtype=float))
    if dens.ndim != 2 or dens.size == 0:
        raise ValueError("densities must form a nonempty 2-D array")
    if not np.all(np.isfinite(dens)):
        raise ValueError("densities must be finite")
    if np.any(dens < 0.0):
        raise ValueError("densities must be nonnegative")
    if np.any(np.abs(dens.mean(axis=1) - 1.0) > mean_tol):
        raise ValueError(f"every density must have mean 1 within {mean_tol:g}")
    return dens


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Finite family of scenario densities, one per row."""

    densities: np.ndarray

    def __post_init__(self):
        dens = _densities(self.densities, 1e-9)
        dens.setflags(write=False)
        object.__setattr__(self, "densities", dens)

    @property
    def n_atoms(self) -> int:
        return int(self.densities.shape[1])


def ryff_scenarios(f: DistortionFunction, n: int, selection="exhaustive", seed: int = 0) -> ScenarioSet:
    """Rearrangements of the discrete density n * increments(f, n).

    ``selection`` is ``"exhaustive"`` (all distinct rearrangements in
    lexicographic order, n <= 8) or a positive integer count of seeded random
    permutations.
    """
    base = n * f.increments(n)  # which refuses an n that is not a positive integer
    if not _is_count(seed, least=0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if selection == "exhaustive":
        if n > 8:
            raise ValueError("exhaustive enumeration is limited to n <= 8")
        idx = _permutation_index(int(n))
        # equal values share a rank code, so equal rows share a key below n**n
        rank = np.unique(base, return_inverse=True)[1]
        key = np.zeros(idx.shape[0], dtype=np.int64)
        for col in idx.T:
            key = key * n + rank[col]
        keep = np.unique(key, return_index=True)[1]  # each distinct row's first copy
        rows = base[idx if np.array_equal(keep, np.arange(idx.shape[0])) else idx[keep]]
    else:
        if not _is_count(selection):
            raise ValueError(f"selection must be 'exhaustive' or a count >= 1, got {selection!r}")
        rng = np.random.Generator(np.random.Philox(key=int(seed)))
        seen = {tuple(rng.permutation(base).tolist()) for _ in range(int(selection))}
        rows = sorted(seen)
    return ScenarioSet(np.asarray(rows, dtype=float))


def rho_finite_scenario(xi, scenarios: ScenarioSet) -> float:
    """sup over the scenario set of mean(xi * h)."""
    x = as_sample(xi)
    if x.size != scenarios.n_atoms:
        raise ValueError("xi and the scenario densities must share the atom count")
    return float(np.max(scenarios.densities @ x) / x.size)


def _prefix_and_levels(hv: np.ndarray, f: DistortionFunction) -> tuple[np.ndarray, np.ndarray]:
    """cumsum(sort(h))[k-1] / n, the mean mass of the k smallest atoms, and f(k/n) with f(1) = 1."""
    n = hv.size
    levels = np.asarray(f.value(np.arange(1, n + 1) / n), dtype=float)
    levels[-1] = 1.0
    return np.cumsum(np.sort(hv)) / n, levels


def core_membership(h, f: DistortionFunction, tol: float = 1e-12) -> bool:
    """Check that h lies in the scenario set of f.

    Among events with |A| = k the binding one holds the k smallest atoms, so
    the 2^n subset constraints reduce to Hardy-Littlewood-Polya majorization:
    True iff mean(h) = 1 within ``tol`` and cumsum(sort(h))[k-1] / n >=
    f(k/n) - tol for k = 1..n, with f(1) = 1 literally.
    """
    hv = as_sample(h)
    if abs(float(np.mean(hv)) - 1.0) > tol:
        return False
    prefix, levels = _prefix_and_levels(hv, f)
    return bool(np.all(prefix >= levels - tol))


def convex_dominance(h, f: DistortionFunction, betas=None, tol: float = 1e-12) -> bool:
    """Check mean beta(h) <= mean beta(n * increments) for convex test maps.

    The default family is the stop-loss maps x -> max(0, x - t), all t, which
    for equal means characterizes the convex order. They hold within ``tol``
    iff each top-k sum of h over n is at most 1 - f((n-k)/n) + tol, that is,
    with e = mean(h) - 1: e <= tol and cumsum(sort(h))[k-1] / n - f(k/n) >=
    e - tol for all k, ``core_membership``'s majorization shifted by e.
    """
    hv = as_sample(h)
    if np.any(hv < 0.0):
        raise ValueError("h must be nonnegative")
    if abs(float(np.mean(hv)) - 1.0) > 1e-9:
        raise ValueError("h must have mean 1 within 1e-9")
    if betas is None:
        prefix, levels = _prefix_and_levels(hv, f)
        excess = prefix[-1] - 1.0
        return bool(excess <= tol and np.all(prefix - levels >= excess - tol))
    ref = hv.size * f.increments(hv.size)
    for beta in betas:
        if float(np.mean(beta(hv))) > float(np.mean(beta(ref))) + tol:
            return False
    return True


def bruteforce_choquet(xi, f: DistortionFunction) -> float:
    """max over all permutations sigma of sum_k xi[sigma(k)] * w_k (n <= 8)."""
    x = as_sample(xi)
    n = x.size
    if n > 8:
        raise ValueError("brute force enumeration is limited to n <= 8")
    return float(np.max(x[_permutation_index(n)] @ f.increments(n)))


def distortion_from_dict(d: dict) -> DistortionFunction:
    """Build a distortion from its JSON form; unknown keys are rejected."""
    return from_spec(d, "distortion")
