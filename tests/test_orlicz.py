import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from orlicz_risk import (
    EvaluationRangeError,
    ExpectedShortfall,
    ExpMinusYoung,
    LogPlusYoung,
    PowerDistortion,
    PowerYoung,
    TabulatedYoung,
    ando_profile,
    luxemburg_norm,
    pairing,
    ryff_scenarios,
)

NORM_TOL = 1e-10
# bisection stops at relative width 1e-10, so closed forms match to ~1e-9
ORACLE_REL = 1e-9


def square_table():
    g = np.geomspace(0.001, 1000.0, 64)
    return TabulatedYoung(g, 2.0 * g)


def power_norm_oracle(x, p):
    """Closed form for Phi(x)=|x|**p/p: mean Phi(xi/a)=1 at a=(mean|xi|^p/p)^(1/p)."""
    return (np.mean(np.abs(x) ** p) / p) ** (1.0 / p)


# ---------------------------------------------------------------------------
# luxemburg_norm


def test_constant_one_norm_power2():
    assert luxemburg_norm(np.ones(5), PowerYoung(2.0)) == pytest.approx(
        1.0 / math.sqrt(2.0), rel=ORACLE_REL
    )


def test_half_indicator_norm_square_growth():
    # n atoms, ones on half of them, Phi(x) = x**2: mean Phi(xi/a) = 1/(2a^2)
    xi = np.concatenate((np.ones(4), np.zeros(4)))
    assert luxemburg_norm(xi, square_table()) == pytest.approx(
        math.sqrt(0.5), rel=ORACLE_REL
    )
    # with the normalized quadratic x**2/2 the threshold halves
    assert luxemburg_norm(xi, PowerYoung(2.0)) == pytest.approx(0.5, rel=ORACLE_REL)


def test_zero_vector_norm_is_zero():
    assert luxemburg_norm(np.zeros(7), PowerYoung(2.0)) == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
def test_power_norm_matches_closed_form(p):
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.standard_normal(rng.integers(1, 40))
        assert luxemburg_norm(x, PowerYoung(p)) == pytest.approx(
            power_norm_oracle(x, p), rel=ORACLE_REL
        )


def test_exp_minus_constant_norm_matches_root():
    # constant c: Phi(c/a) = 1 at a = c / x1 with expm1(x1) - x1 = 1
    x1 = brentq(lambda t: math.expm1(t) - t - 1.0, 0.5, 2.0, xtol=1e-14)
    for c in [0.1, 1.0, 17.0]:
        assert luxemburg_norm(np.full(3, c), ExpMinusYoung()) == pytest.approx(
            c / x1, rel=ORACLE_REL
        )


def test_returned_norm_is_feasible():
    """The bisection answer alpha satisfies mean Phi(xi/alpha) <= 1, so any
    bound assembled from returned norms is an overestimate, never an under."""
    rng = np.random.default_rng(23)
    for yf in [PowerYoung(2.0), PowerYoung(3.0), ExpMinusYoung()]:
        for _ in range(20):
            x = rng.standard_normal(13) * rng.uniform(0.01, 100.0)
            a = luxemburg_norm(x, yf)
            assert float(np.mean(yf.value(x / a))) <= 1.0


def test_norm_scale_invariance_across_magnitudes():
    x = np.array([3.0, -1.0, 0.5, 2.0])
    base = luxemburg_norm(x, PowerYoung(3.0))
    for c in [1e-8, 1e-3, 1.0, 1e3, 1e8]:
        assert luxemburg_norm(c * x, PowerYoung(3.0)) == pytest.approx(
            c * base, rel=2 * NORM_TOL + 1e-12
        )


@settings(max_examples=150, deadline=None)
@given(
    x=arrays(np.float64, 6, elements=st.floats(-50.0, 50.0)),
    c=st.floats(min_value=1e-3, max_value=1e3),
)
def test_norm_homogeneity(x, c):
    yf = PowerYoung(2.0)
    lhs = luxemburg_norm(c * x, yf)
    rhs = c * luxemburg_norm(x, yf)
    assert lhs == pytest.approx(rhs, rel=2 * NORM_TOL, abs=1e-300)


@settings(max_examples=150, deadline=None)
@given(
    x=arrays(np.float64, 8, elements=st.floats(-30.0, 30.0)),
    y=arrays(np.float64, 8, elements=st.floats(-30.0, 30.0)),
)
def test_norm_triangle_inequality(x, y):
    yf = PowerYoung(2.5)
    lhs = luxemburg_norm(x + y, yf)
    rhs = luxemburg_norm(x, yf) + luxemburg_norm(y, yf)
    assert lhs <= rhs * (1.0 + 4 * NORM_TOL) + 1e-12


@settings(max_examples=100, deadline=None)
@given(x=arrays(np.float64, 9, elements=st.floats(-20.0, 20.0)))
def test_norm_monotone_in_pointwise_modulus(x):
    yf = ExpMinusYoung()
    shrunk = 0.5 * x
    assert luxemburg_norm(shrunk, yf) <= luxemburg_norm(x, yf) * (1.0 + 4 * NORM_TOL) + 1e-12


def test_norm_input_validation():
    with pytest.raises(ValueError):
        luxemburg_norm(np.array([]), PowerYoung(2.0))
    with pytest.raises(ValueError):
        luxemburg_norm(np.array([1.0, np.inf]), PowerYoung(2.0))
    with pytest.raises(ValueError):
        luxemburg_norm(np.ones((2, 2)), PowerYoung(2.0))
    with pytest.raises(ValueError):
        luxemburg_norm(np.ones(3), PowerYoung(2.0), tol=0.5)


# ---------------------------------------------------------------------------
# luxemburg_norm against a bisection oracle


def mean_phi(x, yf, alpha):
    try:
        return float(np.mean(yf.value(x / alpha)))
    except EvaluationRangeError:
        return math.inf


def bisection_norm(x, yf, tol=NORM_TOL):
    """Reference solver: double or halve alpha from the peak to a bracket,
    then bisect it to relative width tol; return the feasible end."""
    peak = float(np.max(np.abs(x)))
    hi = peak
    while mean_phi(x, yf, hi) > 1.0:
        hi *= 2.0
    lo = hi
    while mean_phi(x, yf, lo) <= 1.0:
        lo /= 2.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mean_phi(x, yf, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


NORM_FAMILIES = {
    "power1": PowerYoung(1.0),
    "power1.5": PowerYoung(1.5),
    "power2": PowerYoung(2.0),
    "power3": PowerYoung(3.0),
    "exp_minus": ExpMinusYoung(),
    "log_plus": LogPlusYoung(),
    "tabulated_square": square_table(),
    "tabulated_flat": TabulatedYoung([0.5, 1.0, 2.0, 4.0], [0.1, 0.1, 1.0, 5.0]),
}


def norm_battery():
    """Seeded heavy-tailed samples at scales 1e-8 ... 1e8, a single atom and
    all-equal atoms."""
    rng = np.random.default_rng(2024)
    cases = []
    for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        for n in (7, 200):
            cases.append(scale * rng.standard_t(1.5, n))
            cases.append(scale * (rng.pareto(1.2, n) + 1.0))
            cases.append(scale * np.exp(2.0 * rng.standard_normal(n)))
        cases.append(np.array([scale]))
        cases.append(np.full(9, -scale))
    return cases


def counted_norm(monkeypatch, x, yf):
    """luxemburg_norm(x, yf) and the number of value plus phi evaluations."""
    cls = type(yf)
    count = [0]
    for name in ("value", "phi"):
        original = getattr(cls, name)

        def counting(self, z, original=original):
            count[0] += 1
            return original(self, z)

        monkeypatch.setattr(cls, name, counting)
    try:
        return luxemburg_norm(x, yf), count[0]
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("yf", NORM_FAMILIES.values(), ids=NORM_FAMILIES.keys())
def test_norm_agrees_with_bisection_and_is_feasible_and_tight(yf):
    for x in norm_battery():
        a = luxemburg_norm(x, yf)
        assert a == pytest.approx(bisection_norm(x, yf), rel=2 * NORM_TOL)
        assert mean_phi(x, yf, a) <= 1.0
        assert mean_phi(x, yf, a * (1.0 - 2 * NORM_TOL)) > 1.0


@pytest.mark.parametrize("yf", NORM_FAMILIES.values(), ids=NORM_FAMILIES.keys())
def test_norm_evaluation_budget(monkeypatch, yf):
    """The power closed form needs one check pass plus at most three nudges;
    Newton needs a handful of value and phi passes after the bracket."""
    budget = 4 if isinstance(yf, PowerYoung) else 25
    for x in norm_battery():
        _, evaluations = counted_norm(monkeypatch, x, yf)
        assert evaluations <= budget


@pytest.mark.parametrize("yf", NORM_FAMILIES.values(), ids=NORM_FAMILIES.keys())
def test_subnormal_atom_has_a_positive_feasible_norm(yf):
    x = np.array([5e-324, 0.0])
    a = luxemburg_norm(x, yf)
    assert a > 0.0
    assert mean_phi(x, yf, a) <= 1.0


# ---------------------------------------------------------------------------
# pairing


def test_pairing_constant_equality_edge():
    inner, bound = pairing(np.ones(4), np.ones(4), PowerYoung(2.0))
    assert inner == 1.0
    assert bound == pytest.approx(1.0, rel=ORACLE_REL)


def test_pairing_orthogonal_pair_quadratic_normalizations():
    """For quadratic growth the product of dual norms does not depend on the
    normalization of Phi: rescaling Phi trades norm between the factors. Both
    Phi(x)=x**2 (dual y**2/4) and Phi(x)=x**2/2 (self-dual) give bound 1."""
    xi = np.array([1.0, -1.0])
    eta = np.array([1.0, 1.0])
    sq = square_table()
    assert luxemburg_norm(xi, sq) == pytest.approx(1.0, rel=ORACLE_REL)
    assert luxemburg_norm(eta, sq.conjugate()) == pytest.approx(0.5, rel=ORACLE_REL)
    inner, bound = pairing(xi, eta, sq)
    assert inner == 0.0
    assert bound == pytest.approx(1.0, rel=ORACLE_REL)
    inner2, bound2 = pairing(xi, eta, PowerYoung(2.0))
    assert inner2 == 0.0
    assert bound2 == pytest.approx(1.0, rel=ORACLE_REL)


def test_pairing_zero_vector():
    inner, bound = pairing(np.zeros(3), np.array([1.0, 2.0, 3.0]), PowerYoung(2.0))
    assert inner == 0.0
    assert bound == 0.0


def test_pairing_size_mismatch():
    with pytest.raises(ValueError):
        pairing(np.ones(2), np.ones(3), PowerYoung(2.0))


@pytest.mark.parametrize("yf", [PowerYoung(2.0), PowerYoung(3.0), ExpMinusYoung()])
def test_hoelder_bound_on_random_pairs(yf):
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        y = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        inner, bound = pairing(x, y, yf)
        assert abs(inner) <= bound + 1e-12


# ---------------------------------------------------------------------------
# ando_profile


def test_profile_single_density_square_growth_hand_values():
    # h = (2, 0): lambda * mean Phi(h/lambda) with Phi(x)=x**2 is 2/lambda
    prof = ando_profile([[2.0, 0.0]], square_table(), lambdas=(1.0, 10.0, 100.0))
    assert np.allclose(prof.values, [2.0, 0.2, 0.02], rtol=1e-12)
    prof4 = ando_profile([[2.0, 0.0]], square_table(), lambdas=(4.0,))
    assert prof4.values[0] == pytest.approx(0.5, rel=1e-12)


def test_profile_constant_density_at_unit_scale():
    for yf in [PowerYoung(2.0), PowerYoung(3.0), ExpMinusYoung()]:
        prof = ando_profile([[1.0, 1.0]], yf, lambdas=(1.0,))
        assert prof.values[0] == pytest.approx(float(yf.value(1.0)), rel=1e-14)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_profile_power_closed_form_decay(p):
    """lambda * Phi(h/lambda) = Phi(h) * lambda**(1-p) for the power family."""
    rng = np.random.default_rng(3)
    h = rng.uniform(0.0, 2.0, 6)
    h = h / h.mean()
    yf = PowerYoung(p)
    prof = ando_profile([h], yf)
    base = float(np.mean(yf.value(h)))
    assert np.allclose(prof.values, base * prof.lambdas ** (1.0 - p), rtol=1e-10)
    assert np.all(np.diff(prof.values) <= 0.0)


def test_profile_convergence_depends_on_growth_rate():
    # mean-1 densities keep mean Phi(h) >= Phi(1) = 1/2 for the quadratic, so
    # the profile at lambda = 1e4 is >= 5e-5 and cannot pass a 1e-6 cutoff;
    # cubic growth decays like lambda**-2 and does.
    h = [[2.0, 0.0]]
    assert not ando_profile(h, PowerYoung(2.0)).converged
    assert ando_profile(h, PowerYoung(3.0)).converged
    assert ando_profile(h, PowerYoung(4.0)).converged


def test_profile_takes_max_over_densities():
    rows = [[1.0, 1.0], [2.0, 0.0]]
    yf = PowerYoung(2.0)
    both = ando_profile(rows, yf)
    worst = ando_profile([rows[1]], yf)
    assert np.array_equal(both.values, worst.values)


def test_profile_overflow_reported_as_inf_value():
    prof = ando_profile([[2.0, 0.0]], ExpMinusYoung(), lambdas=(0.001,))
    assert math.isinf(prof.values[0])
    assert not prof.converged


def ando_row_oracle(dens, yf, lambdas):
    """max over every row of lambda * mean Phi(row / lambda); a row that
    overflows counts as inf."""
    dens = np.asarray(dens, dtype=float)
    out = []
    for lam in lambdas:
        try:
            out.append(lam * float(np.max(np.mean(yf.value(dens / lam), axis=1))))
        except EvaluationRangeError:
            vals = []
            for row in dens:
                try:
                    vals.append(lam * float(np.mean(yf.value(row / lam))))
                except EvaluationRangeError:
                    vals.append(math.inf)
            out.append(max(vals))
    return np.array(out)


def assert_profile_matches_oracle(dens, yf, lambdas):
    got = ando_profile(dens, yf, lambdas).values
    want = ando_row_oracle(dens, yf, lambdas)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= 1e-15 * np.abs(want[fin])), (got, want)


PROFILE_YOUNG = [PowerYoung(2.0), PowerYoung(3.5), ExpMinusYoung(), LogPlusYoung(), square_table()]
LAMS = (0.3, 1.0, 10.0, 100.0, 1000.0, 10000.0)


@pytest.mark.parametrize("yf", PROFILE_YOUNG, ids=lambda y: y.family)
def test_profile_collapses_equal_rows_within_1e15_of_row_by_row(yf):
    for f, n in [(PowerDistortion(2.0), 8), (ExpectedShortfall(0.25), 8), (PowerDistortion(3), 5)]:
        assert_profile_matches_oracle(ryff_scenarios(f, n).densities, yf, LAMS)
    a, b = [2.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.5, 3.5]
    # classes A, B, A' not adjacent, then a repeat of B in another order
    assert_profile_matches_oracle([a, b, a[::-1], [3.5, 0.0, 0.5, 0.0]], yf, LAMS)
    rng = np.random.default_rng(17)
    rows = rng.exponential(size=(50, 7))
    assert_profile_matches_oracle(rows / rows.mean(axis=1, keepdims=True), yf, LAMS)


def test_profile_overflow_in_some_classes_only():
    # exp overflows past 709: at lambda = 0.002 the class of (2, 0) overflows
    # and the class of (1, 1) does not; from 0.01 on neither does
    rows = [[1.0, 1.0], [2.0, 0.0], [0.0, 2.0], [1.0, 1.0]]
    lams = (0.002, 0.01, 1.0)
    assert_profile_matches_oracle(rows, ExpMinusYoung(), lams)
    prof = ando_profile(rows, ExpMinusYoung(), lams)
    assert math.isinf(prof.values[0]) and np.all(np.isfinite(prof.values[1:]))


class CountingYoung:
    """Delegates to a Young function and counts the elements ``value`` sees."""

    def __init__(self, yf):
        self.yf, self.elems = yf, 0

    def value(self, x):
        self.elems += np.size(x)
        return self.yf.value(x)


def test_profile_evaluates_a_ryff_set_once_per_lambda():
    dens = ryff_scenarios(PowerDistortion(2.0), 8).densities
    assert dens.shape == (40320, 8)
    counter = CountingYoung(PowerYoung(2.0))
    ando_profile(dens, counter)  # five lambdas
    assert counter.elems == 5 * 8


def test_profile_input_validation():
    yf = PowerYoung(2.0)
    with pytest.raises(ValueError):
        ando_profile([[-0.5, 2.5]], yf)
    with pytest.raises(ValueError):
        ando_profile([[2.0, 1.0]], yf)  # mean 1.5
    with pytest.raises(ValueError):
        ando_profile([[1.0, 1.0]], yf, lambdas=(10.0, 1.0))
    with pytest.raises(ValueError):
        ando_profile(np.empty((0, 2)), yf)
