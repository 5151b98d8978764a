"""Deterministic quadrature on the open unit interval.

The integrand is supplied in two coordinate systems: ``left_fn(u)`` for
u in (0, 1/2] and ``tail_fn(t)`` for the substitution u = 1 - t with
t in (0, 1/2]. Working in t near the right endpoint avoids the double
precision pinch at u = 1 (quantiles of heavy tails need ~exact 1 - u).

Panels are dyadic: level j covers [2^-(j+1), 2^-j] on each side, refined
until fresh contributions stabilize relative to the accumulated integral.
Each panel is integrated with fixed-order Gauss-Legendre nodes after
splitting at the supplied interior breakpoints (kinks of the integrand),
so every node sees a smooth piece.

Integrands whose dyadic contributions keep growing, or fail to reach the
stabilization threshold within ``max_level`` levels, raise
``QuadratureDivergenceError``; extremely slow (but finite) power tails with
decay exponent below ~1e-1 per level are flagged the same way rather than
returning an unconverged number.
"""
from __future__ import annotations

import numpy as np

__all__ = ["QuadratureDivergenceError", "dyadic_unit_integral"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


class QuadratureDivergenceError(ArithmeticError):
    """Endpoint refinement failed to stabilize; integral treated as divergent."""


def _split_breakpoints(breaks) -> tuple[list, list]:
    """Interior levels u in (0, 1) as (left list in u, tail list in t = 1 - u)."""
    return [b for b in breaks if 0.0 < b <= 0.5], [1.0 - b for b in breaks if 0.5 < b < 1.0]


def _panel(fn, a: float, b: float, breaks) -> float:
    edges = [a] + sorted(t for t in breaks if a < t < b) + [b]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * float(np.dot(_WEIGHTS, np.asarray(fn(mid + half * _NODES), dtype=float)))
    return total


def dyadic_unit_integral(
    left_fn,
    tail_fn,
    *,
    rel_tol: float = 1e-8,
    left_breakpoints=(),
    tail_breakpoints=(),
    max_level: int = 200,
    min_level: int = 10,
) -> float:
    """Integral over (0, 1) of the map represented by (left_fn, tail_fn)."""
    if not (0.0 < rel_tol < 1.0):
        raise ValueError("rel_tol must lie in (0, 1)")
    total = 0.0
    mass = 0.0
    small_streak = 0
    grow_streak = 0
    prev_tail = None
    for level in range(1, max_level + 1):
        a = 2.0 ** -(level + 1)
        b = 2.0**-level
        c_left = _panel(left_fn, a, b, left_breakpoints)
        c_tail = _panel(tail_fn, a, b, tail_breakpoints)
        total += c_left + c_tail
        mass += abs(c_left) + abs(c_tail)
        if level >= min_level:
            scale = max(abs(total), mass)
            if max(abs(c_left), abs(c_tail)) <= 0.125 * rel_tol * scale:
                small_streak += 1
                if small_streak >= 2:
                    return total
            else:
                small_streak = 0
            if prev_tail is not None and abs(c_tail) > abs(prev_tail) > 0.0 and level > 16:
                grow_streak += 1
                if grow_streak >= 8:
                    raise QuadratureDivergenceError(
                        "tail contributions keep growing under refinement"
                    )
            else:
                grow_streak = 0
        prev_tail = c_tail
    raise QuadratureDivergenceError(
        f"endpoint refinement did not stabilize within {max_level} dyadic levels"
    )
