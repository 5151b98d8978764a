"""Luxemburg norms on finite sample spaces, duality pairing, Ando profiles.

A length-n sample vector is read as a random variable on n equally weighted
atoms. The Luxemburg norm for a Young function Phi is

    ||xi||_Phi = inf{alpha > 0 : mean Phi(xi / alpha) <= 1}

(Rao & Ren, *Theory of Orlicz Spaces*, 1991, ch. 3). For the power family
Phi(x) = |x|**p / p the infimum has the closed form (mean |xi|**p / p)**(1/p),
evaluated relative to the largest atom so that it cannot overflow. Every other
family is bracketed at no cost by Jensen's inequality: with c = Phi^-1(1),
alpha = max |xi| / c is feasible and every alpha below mean |xi| / c is not.
Newton's method then runs from the feasible end on t = log alpha -> log mean
Phi(|xi| e**-t), a map linear for power functions, with slope
-mean(u phi(u)) / mean Phi(u) at u = |xi| / alpha. Each point costs one pass
of the family's fused kernel, which writes phi(u) and Phi(u) into buffers made
once per call. A Newton step that would leave the bracket is replaced by
bisection, and once the steps fall below a quarter of the tolerance the next
point is placed just past the root, which closes the bracket.

Either way the returned alpha is one at which mean Phi(xi / alpha) <= 1 holds
as ``YoungFunction.value`` computes it, and (1 - tol) alpha is infeasible. The
answer sits on the feasible side of the infimum, so Hoelder-type bounds built
from it stay mathematically valid.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distortion import _densities
from .quantiles import as_sample
from .young import EvaluationRangeError, YoungFunction

__all__ = ["AndoProfile", "ando_profile", "luxemburg_norm", "pairing"]


def luxemburg_norm(xi, yf: YoungFunction, tol: float = 1e-10) -> float:
    """Luxemburg norm of a sample vector, to relative tolerance ``tol``."""
    x = as_sample(xi)
    if not (0.0 < tol < 0.1):
        raise ValueError("tol must lie in (0, 0.1)")
    ax = np.abs(x)
    peak = float(np.max(ax))
    if peak == 0.0:
        return 0.0
    u = np.empty_like(ax)

    def mean_phi(alpha: float, fused: bool = True) -> float:
        np.divide(ax, alpha, out=u)
        try:
            if not fused:
                return float(np.mean(yf.value(u)))
            yf._value_and_phi_into(u, phi_u, value_u, peak / alpha)  # peak / alpha == max(u)
        except EvaluationRangeError:
            return math.inf
        return float(np.mean(value_u))

    alpha = yf._norm_closed_form(ax, peak)
    if 0.0 < alpha < math.inf:
        for k in range(4):  # a check, then up to three nudges of a few ulps
            if mean_phi(alpha, fused=False) <= 1.0:
                return alpha
            alpha += (4 << k) * math.ulp(alpha)

    phi_u, value_u = np.empty_like(ax), np.empty_like(ax)  # phi(u), Phi(u) at the last point
    # Jensen: Phi(mean u) <= mean Phi(u) <= Phi(max u), with c = Phi^-1(1). So hi = peak / c,
    # kept within the positive floats and nudged up while rounding leaves mean Phi above 1, is
    # feasible (inf where the norm overflows), and lo = mean|x| / c is not; the factor 1 - tol
    # keeps lo infeasible where all atoms are equal and Jensen is an equality.
    c = yf.unit_level
    hi, k = min(max(peak / c, 5e-324), sys.float_info.max), 0
    while (f := mean_phi(hi)) > 1.0:
        hi += (4 << k) * math.ulp(hi)
        k += 1
    lo = hi * float(np.mean(u)) / c * (1.0 - tol)  # nan at hi = inf: no iteration
    alpha = hi
    while hi - lo > tol * hi:
        # Newton step in log alpha from the last point evaluated; nan bisects
        step = math.nan
        if 0.0 < f < math.inf:
            with np.errstate(over="ignore"):  # u phi(u) past the float range: bisect
                slope = float(np.mean(np.multiply(u, phi_u, out=value_u)))
            if 0.0 < slope < math.inf:
                step = f * math.log(f) / slope
        if abs(step) < 0.25 * tol:
            # the root is within a quarter tolerance: step past it, away
            # from the current end, so the next point closes the bracket
            step += 0.25 * tol if f > 1.0 else -0.25 * tol
        nxt = alpha * math.exp(step)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break  # subnormal scale: the interval is one ulp wide already
        alpha, f = nxt, mean_phi(nxt)
        if f <= 1.0:
            hi = alpha
        else:
            lo = alpha
    return hi


def pairing(xi, eta, yf: YoungFunction, tol: float = 1e-10) -> tuple[float, float]:
    """Duality pairing mean(xi * eta) and its bound 2 ||xi||_Phi ||eta||_Psi."""
    x = as_sample(xi)
    y = as_sample(eta)
    if x.size != y.size:
        raise ValueError("xi and eta must have the same number of atoms")
    inner = float(np.mean(x * y))
    bound = 2.0 * luxemburg_norm(x, yf, tol) * luxemburg_norm(y, yf.conjugate(), tol)
    return inner, bound


@dataclass(frozen=True, eq=False)
class AndoProfile:
    """Values of lambda -> sup_h lambda * mean Phi(h / lambda) on a schedule."""

    lambdas: np.ndarray
    values: np.ndarray
    tol: float

    @property
    def converged(self) -> bool:
        return bool(self.values[-1] < self.tol)


def ando_profile(
    densities,
    yf: YoungFunction,
    lambdas=(1.0, 10.0, 100.0, 1000.0, 10000.0),
    *,
    tol: float = 1e-6,
    mean_tol: float = 1e-9,
) -> AndoProfile:
    """Compactness profile of a finite density family.

    Each row of ``densities`` must be a nonnegative vector with mean one
    (within ``mean_tol``). The profile vanishing as lambda grows is the
    uniform-integrability criterion for relative weak compactness of the
    family in the Orlicz space of Phi. A row enters only through its sorted
    content: rows are sorted once and one equal to the row before it is
    evaluated once, so a Ryff set costs one row per lambda.
    """
    dens = _densities(densities, mean_tol)
    lams = np.asarray(lambdas, dtype=float)
    ok = lams.ndim == 1 and lams.size > 0 and np.all(np.isfinite(lams)) and lams[0] > 0.0
    if not (ok and np.all(np.diff(lams) > 0.0)):
        raise ValueError(f"lambdas must be finite, positive and strictly increasing, got {lambdas!r}")
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    rows = np.sort(dens, axis=1)
    rows = rows[np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1)))]
    values = np.empty(lams.size)
    for j, lam in enumerate(lams):
        try:
            values[j] = lam * float(np.max(np.mean(yf.value(rows / lam), axis=1)))
        except EvaluationRangeError:
            values[j] = math.inf
    values.setflags(write=False)
    lams.setflags(write=False)
    return AndoProfile(lams, values, float(tol))
