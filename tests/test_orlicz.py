import math
import sys

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
from orlicz_risk.quantiles import as_sample

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


KERNEL = "_value_and_phi_into"


def counted_norm(monkeypatch, x, yf):
    """luxemburg_norm(x, yf) and its calls to value, phi and the fused kernel."""
    cls = type(yf)
    calls = dict.fromkeys(("value", "phi", KERNEL), 0)
    for name in calls:
        original = getattr(cls, name)

        def counting(self, *args, name=name, original=original):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, name, counting)
    try:
        return luxemburg_norm(x, yf), calls
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
    """The power closed form needs one check pass plus at most three nudges.
    Every other family evaluates each solver point once, through the fused
    kernel, which also gives the Newton slope. The Jensen bracket costs no
    pass, and Newton starts from its feasible end: 8 points at most on this
    battery (exp_minus; log_plus and the tables take 6 at most)."""
    for x in norm_battery():
        _, calls = counted_norm(monkeypatch, x, yf)
        if isinstance(yf, PowerYoung):
            assert calls["value"] + calls["phi"] <= 4 and calls[KERNEL] == 0
        else:
            assert calls["value"] == calls["phi"] == 0
            assert 0 < calls[KERNEL] <= 8


@pytest.mark.parametrize("yf", NORM_FAMILIES.values(), ids=NORM_FAMILIES.keys())
def test_subnormal_atom_has_a_positive_feasible_norm(yf):
    x = np.array([5e-324, 0.0])
    a = luxemburg_norm(x, yf)
    assert a > 0.0
    assert mean_phi(x, yf, a) <= 1.0


# ---------------------------------------------------------------------------
# luxemburg_norm against the solver that evaluated value and phi separately


def unfused_luxemburg_norm(xi, yf, tol=1e-10):
    """The solver before the fused kernel, verbatim: a value pass at each
    point and a separate phi pass for each Newton slope."""
    x = as_sample(xi)
    if not (0.0 < tol < 0.1):
        raise ValueError("tol must lie in (0, 0.1)")
    ax = np.abs(x)
    peak = float(np.max(ax))
    if peak == 0.0:
        return 0.0
    u = np.empty_like(ax)

    def mean_phi(alpha: float) -> float:
        np.divide(ax, alpha, out=u)
        try:
            return float(np.mean(yf.value(u)))
        except EvaluationRangeError:
            return math.inf

    if isinstance(yf, PowerYoung):
        p = yf.p
        alpha = peak * (float(np.mean((ax / peak) ** p)) / p) ** (1.0 / p)
        if 0.0 < alpha < math.inf:
            for k in range(3 + 1):
                if mean_phi(alpha) <= 1.0:
                    return alpha
                alpha += (4 << k) * math.ulp(alpha)

    # bracket: lo infeasible (mean Phi > 1), hi feasible
    alpha, f = peak, mean_phi(peak)
    if f > 1.0:
        while f > 1.0:
            lo = alpha
            alpha *= 2.0
            f = mean_phi(alpha)
        hi, f_hi = alpha, f
    else:
        while f <= 1.0:
            hi, f_hi = alpha, f
            alpha /= 2.0
            if alpha < 5e-324:
                return hi  # subnormal peak: halving underflowed to zero
            f = mean_phi(alpha)
        lo = alpha

    def log_newton_step(alpha: float, f: float) -> float:
        if not 0.0 < f < math.inf:
            return math.nan
        np.divide(ax, alpha, out=u)
        try:
            slope = float(np.mean(u * yf.phi(u)))
        except EvaluationRangeError:
            return math.nan
        if not 0.0 < slope < math.inf:
            return math.nan
        return f * math.log(f) / slope

    alpha, f = hi, f_hi
    while hi - lo > tol * hi:
        step = log_newton_step(alpha, f)
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


def fused_battery():
    """(xi, eta) pairs: heavy-tailed and signed samples with n from 1 to 10^5
    at scales 1e-300 ... 1e300, a subnormal peak, a single atom and all-equal
    atoms. eta stays at unit scale so that mean(xi * eta) cannot overflow."""
    rng = np.random.default_rng(20)
    cases = [np.array([5e-324, 0.0]), np.array([-3e-320, 1e-322, 0.0, 4e-323])]
    for scale in (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300):
        for n in (1, 3, 40, 1000):
            cases.append(scale * rng.standard_t(1.5, n))
            cases.append(scale * np.exp(2.0 * rng.standard_normal(n)))
        cases.append(np.full(9, -scale))
    for scale in (1e-300, 1.0):
        cases.append(scale * (rng.pareto(1.2, 10**5) + 1.0))
    return [(x, rng.standard_normal(x.size)) for x in cases]


def is_tight(x, yf, a, tol):
    """(1 - 2 tol) a is infeasible, or rounds to a subnormal a's next float
    down and that one is zero or infeasible."""
    below = min(a * (1.0 - 2 * tol), math.nextafter(a, 0.0))
    return below == 0.0 or mean_phi(x, yf, below) > 1.0


@pytest.mark.parametrize("yf", NORM_FAMILIES.values(), ids=NORM_FAMILIES.keys())
def test_fused_norm_and_pairing_are_bitwise_the_unfused_solver(yf):
    """8 families x 67 samples x 2 tolerances: 1072 norms. Power norms and
    pairings are bitwise the unfused solver's, whose closed form they share.
    The Jensen-bracketed solver takes other iterates: its norms agree with
    the unfused solver's within 2 tol and are feasible and tight, and the
    pairing bound is bitwise 2 norm norm of luxemburg_norm itself."""
    for x, eta in fused_battery():
        for tol in (1e-10, 1e-4):
            norm_x = luxemburg_norm(x, yf, tol)
            if isinstance(yf, PowerYoung):
                assert norm_x == unfused_luxemburg_norm(x, yf, tol)
            else:
                assert norm_x == pytest.approx(unfused_luxemburg_norm(x, yf, tol), rel=2 * tol)
                assert mean_phi(x, yf, norm_x) <= 1.0
                assert is_tight(x, yf, norm_x, tol)
            if yf != PowerYoung(1.0):  # the linear case has no conjugate
                psi = yf.conjugate()
                if isinstance(yf, PowerYoung):
                    norm_eta = unfused_luxemburg_norm(eta, psi, tol)
                else:
                    norm_eta = luxemburg_norm(eta, psi, tol)
                bound = 2.0 * norm_x * norm_eta
                assert pairing(x, eta, yf, tol) == (float(np.mean(x * eta)), bound)


# ---------------------------------------------------------------------------
# luxemburg_norm at the edges of the Jensen bracket [mean|x| / c, peak / c],
# c = Phi^-1(1)

STEEP = TabulatedYoung([0.5, 1.0], [4.0, 8.0])  # unit level 0.5 < 1


def bracket_edge_cases():
    """All-equal atoms and one atom, where Jensen is an equality; a subnormal
    peak, where mean|x| / c underflows; peaks near the float maximum, where
    peak / c overflows for STEEP (on [1e308, 1e307] the old solver's doubling
    overflowed to inf, but the norm is finite); and spikes with peak / mean
    above 700, where exp's argument at the bracket's lower end is past 709."""
    rng = np.random.default_rng(31)
    spike = np.zeros(1000)
    spike[0] = 1.0
    cases = [np.full(9, 3.7), np.full(4, -2e-300), np.array([2.5]), np.array([1e300])]
    cases += [np.array([5e-324, 0.0]), np.array([1e308]), np.array([1e308, 0.0, 0.0, 0.0])]
    cases += [np.array([1.7e308, -1e308]), np.array([1e308, 1e307])]
    cases += [spike, 30.0 * spike, np.concatenate((spike, 1e-3 * rng.exponential(size=3000)))]
    cases.append(np.exp(3.0 * rng.standard_normal(50_000)))
    return cases


@pytest.mark.parametrize("yf", [*NORM_FAMILIES.values(), STEEP], ids=[*NORM_FAMILIES, "steep"])
def test_bracket_edges_are_feasible_and_tight(yf):
    for x in bracket_edge_cases():
        for tol in (1e-10, 1e-4):
            a = luxemburg_norm(x, yf, tol)
            if a == math.inf:  # only where the old solver's answer is inf too, and right
                assert unfused_luxemburg_norm(x, yf, tol) == math.inf
                assert mean_phi(x, yf, sys.float_info.max) > 1.0
                continue
            assert 0.0 < a
            assert mean_phi(x, yf, a) <= 1.0
            assert is_tight(x, yf, a, tol)


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


@pytest.mark.parametrize("lambdas", [(1.0, math.inf), (math.nan,), (1.0, math.nan), (), [[1.0]]])
def test_profile_refuses_lambdas_that_are_not_finite_numbers(lambdas):
    with np.errstate(all="raise"):  # refused before any evaluation warns
        with pytest.raises(ValueError, match=r"^lambdas must be finite, positive and strictly increasing"):
            ando_profile([[2.0, 0.0]], PowerYoung(2.0), lambdas)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.inf, math.nan])
def test_profile_refuses_a_tol_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match=r"^tol must be positive and finite, got "):
        ando_profile([[2.0, 0.0]], PowerYoung(2.0), tol=tol)
