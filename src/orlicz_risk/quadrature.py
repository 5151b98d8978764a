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

Integrand contract: both functions are vectorized over 1-D float arrays of
any length and return an array of the same length. Levels are evaluated in
blocks of ``_BLOCK``, one call per side per block, and the stopping rules
then run level by level over the block's contributions. So an integrand may
be evaluated up to one block past the level where refinement stops; those
values are discarded. A block whose evaluation raises, or meets a
floating-point overflow, division by zero or invalid operation, is evaluated
again one level at a time, so levels past the stop never change the outcome:
the value, the exception or the warning is that of the level-by-level run.

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
_BLOCK = 32  # dyadic levels per integrand call


class QuadratureDivergenceError(ArithmeticError):
    """Endpoint refinement failed to stabilize; integral treated as divergent."""


def _split_breakpoints(breaks) -> tuple[list, list]:
    """Interior levels u in (0, 1) as (left list in u, tail list in t = 1 - u)."""
    return [b for b in breaks if 0.0 < b <= 0.5], [1.0 - b for b in breaks if 0.5 < b < 1.0]


def _level_sums(fn, first: int, last: int, breaks) -> list[float]:
    """Contributions of dyadic levels first..last, from one call to fn.

    Each level's panel is split at the breakpoints strictly inside it; the
    Gauss nodes of every piece go to fn as one array, and a level's pieces
    are summed in increasing order.
    """
    dyadic = [2.0**-k for k in range(last + 1, first - 1, -1)]  # increasing edges
    inner = [t for t in breaks if dyadic[0] < t < dyadic[-1] and t not in dyadic]
    edges = np.array(sorted(dyadic + inner))
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    vals = np.asarray(fn((mid[:, None] + half[:, None] * _NODES).ravel()), dtype=float)
    pieces = half * (vals.reshape(-1, _NODES.size) @ _WEIGHTS)
    owner = last - first + 1 - np.searchsorted(dyadic, lo, side="right")
    sums = [0.0] * (last - first + 1)
    for i, piece in zip(owner.tolist(), pieces.tolist()):
        sums[i] += piece
    return sums


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
    for first in range(1, max_level + 1, _BLOCK):
        last = min(first + _BLOCK - 1, max_level)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                block = zip(
                    _level_sums(left_fn, first, last, left_breakpoints),
                    _level_sums(tail_fn, first, last, tail_breakpoints),
                )
        except Exception:
            # a level past the stop may be the one that fails: redo the block
            # lazily, one level at a time, as far as the stopping rules go
            block = (
                (
                    _level_sums(left_fn, level, level, left_breakpoints)[0],
                    _level_sums(tail_fn, level, level, tail_breakpoints)[0],
                )
                for level in range(first, last + 1)
            )
        for level, (c_left, c_tail) in enumerate(block, start=first):
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
