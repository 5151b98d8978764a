import warnings

import numpy as np
import pytest

from orlicz_risk import distortion as distortion_module
from orlicz_risk import harness as harness_module
from orlicz_risk.distortion import ExpectedShortfall, PiecewiseLinearDistortion, PowerDistortion
from orlicz_risk.harness import psi_moment_target, reference_value
from orlicz_risk.laws import Exponential, Lognormal, Pareto, Uniform
from orlicz_risk.quadrature import QuadratureDivergenceError, dyadic_unit_integral
from orlicz_risk.young import (
    EvaluationRangeError,
    ExpMinusYoung,
    LogPlusYoung,
    PowerYoung,
)


def test_constant_integrates_to_one():
    # refinement stops once fresh dyadic mass drops below the 1e-8 contract,
    # so the truncated endpoint neighborhoods cost about 1e-9 relative
    got = dyadic_unit_integral(lambda u: np.ones_like(u), lambda t: np.ones_like(t))
    assert got == pytest.approx(1.0, rel=1e-8)


def test_linear_integrand():
    got = dyadic_unit_integral(lambda u: np.asarray(u), lambda t: 1.0 - np.asarray(t))
    assert got == pytest.approx(0.5, rel=1e-8)


def test_log_singularity_at_the_right_endpoint():
    # integral of -log(1 - u) over (0, 1) equals 1; the tail form sees -log t
    got = dyadic_unit_integral(
        lambda u: -np.log1p(-np.asarray(u)), lambda t: -np.log(np.asarray(t))
    )
    assert got == pytest.approx(1.0, rel=1e-8)


def test_integrable_power_singularity_at_zero():
    got = dyadic_unit_integral(
        lambda u: np.asarray(u) ** -0.5, lambda t: (1.0 - np.asarray(t)) ** -0.5
    )
    assert got == pytest.approx(2.0, rel=1e-6)


def test_interior_step_needs_its_breakpoint():
    def left(u):
        return np.where(np.asarray(u) < 0.3, 1.0, 0.0)

    zero_tail = lambda t: np.zeros_like(np.asarray(t))
    with_break = dyadic_unit_integral(left, zero_tail, left_breakpoints=(0.3,))
    assert with_break == pytest.approx(0.3, rel=1e-8)
    # without the split the Gauss panel straddling the step is badly wrong
    without = dyadic_unit_integral(left, zero_tail)
    assert abs(without - 0.3) > 100.0 * abs(with_break - 0.3)


def test_divergent_tail_is_refused():
    # q(t) ~ t**-1.2 near t = 0 integrates to infinity
    with pytest.raises(QuadratureDivergenceError):
        dyadic_unit_integral(
            lambda u: np.zeros_like(np.asarray(u)), lambda t: np.asarray(t) ** -1.2
        )


def test_level_exhaustion_is_refused():
    # a borderline non-integrable tail 1/t trips the level cap if not the
    # growth detector
    with pytest.raises(QuadratureDivergenceError):
        dyadic_unit_integral(
            lambda u: np.zeros_like(np.asarray(u)),
            lambda t: 1.0 / np.asarray(t),
            max_level=40,
        )


def test_rel_tol_validation():
    with pytest.raises(ValueError):
        dyadic_unit_integral(lambda u: u, lambda t: t, rel_tol=2.0)


# ---------------------------------------------------------------------------
# level-by-level oracle: one integrand call per panel piece, stopping rules
# applied after every level. The library evaluates blocks of levels per call
# and must give the same outcome.

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


def _oracle_panel(fn, a, b, breaks):
    edges = [a] + sorted(t for t in breaks if a < t < b) + [b]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * float(np.dot(_WEIGHTS, np.asarray(fn(mid + half * _NODES), dtype=float)))
    return total


def _oracle_integral(
    left_fn,
    tail_fn,
    *,
    rel_tol=1e-8,
    left_breakpoints=(),
    tail_breakpoints=(),
    max_level=200,
    min_level=10,
):
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
        c_left = _oracle_panel(left_fn, a, b, left_breakpoints)
        c_tail = _oracle_panel(tail_fn, a, b, tail_breakpoints)
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


def _outcome(call):
    """(value or (exception type, message), warnings) of call()."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = call()
        except Exception as exc:
            got = (type(exc), str(exc))
    return got, [(w.category, str(w.message)) for w in caught]


def _assert_same_outcome(got, want):
    (value, warned), (expected, expected_warned) = got, want
    assert warned == expected_warned
    if isinstance(expected, tuple):
        assert value == expected
    else:
        assert isinstance(value, float)
        assert value == pytest.approx(expected, rel=1e-14, abs=0.0)


def _with_oracle(monkeypatch, call):
    """Outcome of call() with the oracle in place of the library integrator."""
    with monkeypatch.context() as m:
        m.setattr(distortion_module, "dyadic_unit_integral", _oracle_integral)
        m.setattr(harness_module, "dyadic_unit_integral", _oracle_integral)
        return _outcome(call)


def _battery_distortions():
    out = [ExpectedShortfall(a) for a in (0.01, 0.05, 0.25, 1.0)]
    out += [PowerDistortion(g) for g in (1.0, 2.0, 4.0)]
    out += [
        PiecewiseLinearDistortion([[0.0, 0.0], [0.25, 0.1], [0.875, 0.5], [1.0, 1.0]]),
        PiecewiseLinearDistortion([[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]]),
    ]
    rng = np.random.default_rng(20211)
    for _ in range(3):
        ts = np.concatenate(([0.0], np.sort(rng.uniform(0.02, 0.98, 3)), [1.0]))
        slopes = np.sort(rng.uniform(0.1, 3.0, 4))
        vs = np.concatenate(([0.0], np.cumsum(slopes * np.diff(ts))))
        out.append(PiecewiseLinearDistortion(np.column_stack((ts, vs / vs[-1]))))
    return out


BATTERY_LAWS = (
    [Uniform(0.0, 1.0), Uniform(-1.0, 2.0), Exponential(1.0), Exponential(3.0)]
    + [Pareto(a) for a in (0.5, 0.9, 1.02, 1.05, 1.1, 1.2, 1.5, 2.0, 3.0, 5.0)]
    + [Lognormal(0.0, s) for s in (0.5, 1.0, 2.0, 3.0, 4.0)]
)
BATTERY_DISTORTIONS = _battery_distortions()
BATTERY_YOUNG = [PowerYoung(p) for p in (1.0, 1.5, 2.0, 3.0)] + [ExpMinusYoung(), LogPlusYoung()]
BATTERY_SCALES = (0.3, 1.0, 2.5)


@pytest.mark.parametrize("law", BATTERY_LAWS, ids=lambda law: law.label())
def test_blocked_quadrature_matches_the_level_by_level_oracle(law, monkeypatch):
    calls = [lambda f=f: reference_value(law, f) for f in BATTERY_DISTORTIONS]
    calls += [
        lambda yf=yf, k=k: psi_moment_target(law, yf, k)
        for yf in BATTERY_YOUNG
        for k in BATTERY_SCALES
    ]
    for call in calls:
        _assert_same_outcome(_outcome(call), _with_oracle(monkeypatch, call))


@pytest.mark.parametrize(
    "yf, expected",
    [
        (PowerYoung(1.0), QuadratureDivergenceError),
        (LogPlusYoung(), QuadratureDivergenceError),
        (PowerYoung(1.5), EvaluationRangeError),
    ],
    ids=["power1", "log_plus", "power1.5"],
)
@pytest.mark.parametrize("k", [0.3, 1.0])
def test_levels_past_the_stop_add_no_warning(yf, expected, k, monkeypatch):
    # Pareto(0.03) quantiles overflow a few levels past where the
    # level-by-level run stops; a block reaching those levels must neither
    # warn nor change the exception
    call = lambda: psi_moment_target(Pareto(0.03), yf, k)
    got = _outcome(call)
    want = _with_oracle(monkeypatch, call)
    assert want[0][0] is expected and want[1] == []
    _assert_same_outcome(got, want)


def _zeros(x):
    return np.zeros_like(np.asarray(x))


def _ones(x):
    return np.ones_like(np.asarray(x))


def _step(at):
    return lambda x: np.where(np.asarray(x) < at, 1.0, 2.0)


def _step_with_pole(at):
    # infinite exactly at the step: a piece of zero width there would be nan
    return lambda x: np.where(np.asarray(x) == at, np.inf, _step(at)(x))


BOUNDARY_INTEGRANDS = {
    "constant": (_ones, _ones, (), ()),
    "sqrt_singular": (_ones, lambda t: np.asarray(t) ** -0.5, (), ()),
    "divergent": (_zeros, lambda t: 1.0 / np.asarray(t), (), ()),
    "growing": (_zeros, lambda t: np.asarray(t) ** -1.2, (), ()),
    "edge_breakpoints": (_step_with_pole(0.25), _step_with_pole(0.125), (0.25, 0.125), (0.125, 0.25)),
    "breakpoints_in_one_panel": (
        lambda u: np.floor(np.asarray(u) * 20.0),
        _step(0.3),
        (0.3, 0.35, 0.35, 0.4, 0.45),
        (0.3, 0.26, 0.49),
    ),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_INTEGRANDS))
@pytest.mark.parametrize(
    "max_level, min_level",
    [(1, 10), (9, 10), (10, 10), (17, 10), (40, 10), (200, 10), (20, 30), (1, 1), (40, 33)],
)
def test_block_boundaries_match_the_oracle(name, max_level, min_level):
    left, tail, left_breaks, tail_breaks = BOUNDARY_INTEGRANDS[name]
    kwargs = dict(
        left_breakpoints=left_breaks,
        tail_breakpoints=tail_breaks,
        max_level=max_level,
        min_level=min_level,
    )
    got = _outcome(lambda: dyadic_unit_integral(left, tail, **kwargs))
    want = _outcome(lambda: _oracle_integral(left, tail, **kwargs))
    _assert_same_outcome(got, want)


def test_failure_past_the_stop_is_not_seen():
    # the constant integrand stops at level 30; its tail form refuses any
    # node below 2^-31, which only a block past the stop reaches
    def tail(t):
        tt = np.asarray(t)
        if np.min(tt) < 2.0**-31:
            raise ValueError("node past the stopping level")
        return np.ones_like(tt)

    assert dyadic_unit_integral(_ones, tail) == _oracle_integral(_ones, tail)


def test_overflow_past_the_stop_is_not_seen():
    # exp(709 * 2^-31 / t) overflows only below t = 2^-31, past the stop
    def tail(t):
        big = np.exp(709.0 * 2.0**-31 / np.asarray(t))
        return big - big + 1.0

    got = _outcome(lambda: dyadic_unit_integral(_ones, tail))
    assert got[1] == []
    _assert_same_outcome(got, _outcome(lambda: _oracle_integral(_ones, tail)))


class _CountingPareto(Pareto):
    tail_calls = 0

    def tail_quantile(self, t):
        type(self).tail_calls += 1
        return super().tail_quantile(t)


def test_slow_tail_reference_needs_few_integrand_calls(monkeypatch):
    # 164 dyadic levels: the level-by-level oracle calls the tail quantile
    # once per level, blocks of levels call it far less often
    law, f = _CountingPareto(1.2), ExpectedShortfall(0.05)
    closed = 0.05 ** (-1.0 / 1.2) * 1.2 / 0.2
    _CountingPareto.tail_calls = 0
    assert reference_value(law, f) == pytest.approx(closed, rel=1e-8)
    assert _CountingPareto.tail_calls <= 24
    _CountingPareto.tail_calls = 0
    _with_oracle(monkeypatch, lambda: reference_value(law, f))
    assert _CountingPareto.tail_calls >= 164
