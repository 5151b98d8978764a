import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_risk import (
    Delta2Report,
    EvaluationRangeError,
    ExpMinusYoung,
    LogPlusYoung,
    PowerYoung,
    TabulatedYoung,
    check_delta2,
    young_from_dict,
)
from orlicz_risk._spec import REGISTRY

REL_TOL = 1e-10
CONJ_GRID_TOL = 1e-8


def square_table(lo=0.01, hi=100.0, n=40):
    """Derivative 2x sampled geometrically, i.e. Phi(x) = x**2 exactly
    (trapezoid integration is exact on linear pieces)."""
    g = np.geomspace(lo, hi, n)
    return TabulatedYoung(g, 2.0 * g)


FAMILIES = [
    PowerYoung(2.0),
    PowerYoung(3.0),
    PowerYoung(1.5),
    ExpMinusYoung(),
    LogPlusYoung(),
    square_table(),
]


# ---------------------------------------------------------------------------
# evaluation


def test_power2_hand_values():
    assert (PowerYoung(2.0).phi(3.0), PowerYoung(2.0).value(3.0)) == (3.0, 4.5)
    assert (PowerYoung(2.0).phi(0.0), PowerYoung(2.0).value(0.0)) == (0.0, 0.0)


def test_exp_minus_hand_values():
    phi, val = ExpMinusYoung().phi(1.0), ExpMinusYoung().value(1.0)
    assert phi == pytest.approx(math.e - 1.0, rel=1e-15)
    assert val == pytest.approx(math.e - 2.0, rel=1e-15)


def test_log_plus_hand_value():
    assert LogPlusYoung().value(1.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-15)


@pytest.mark.parametrize("yf", FAMILIES, ids=lambda y: y.family + getattr(y, "p", "").__repr__())
def test_even_nonnegative_zero_at_zero(yf):
    xs = np.linspace(-8.0, 8.0, 41)
    vals = yf.value(xs)
    assert np.all(vals >= 0.0)
    assert np.allclose(vals, yf.value(-xs), rtol=0, atol=0)
    assert yf.value(0.0) == 0.0
    assert yf.phi(0.0) == 0.0


@pytest.mark.parametrize("yf", FAMILIES, ids=lambda y: y.family + getattr(y, "p", "").__repr__())
def test_monotone_in_abs_x(yf):
    xs = np.linspace(0.0, 12.0, 200)
    assert np.all(np.diff(yf.value(xs)) >= 0.0)
    assert np.all(np.diff(yf.phi(xs)) >= -1e-15)
    assert np.all(np.asarray(yf.phi(xs[1:])) > 0.0)


@pytest.mark.parametrize("yf", FAMILIES, ids=lambda y: y.family + getattr(y, "p", "").__repr__())
def test_midpoint_convexity(yf):
    rng = np.random.default_rng(5)
    x = rng.uniform(-10.0, 10.0, 500)
    y = rng.uniform(-10.0, 10.0, 500)
    mid = yf.value((x + y) / 2.0)
    avg = (yf.value(x) + yf.value(y)) / 2.0
    assert np.all(mid <= avg + 1e-12 * np.maximum(1.0, avg))


def test_scalar_in_scalar_out_array_in_array_out():
    yf = PowerYoung(3.0)
    assert isinstance(yf.value(2.0), float)
    assert isinstance(yf.phi(2.0), float)
    out = yf.value(np.array([1.0, 2.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_family_mapping():
    assert PowerYoung(2.0).conjugate() == PowerYoung(2.0)
    assert PowerYoung(3.0).conjugate() == PowerYoung(1.5)
    assert isinstance(ExpMinusYoung().conjugate(), LogPlusYoung)
    assert isinstance(LogPlusYoung().conjugate(), ExpMinusYoung)


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.0, 7.5])
def test_power_conjugate_involution(p):
    q = PowerYoung(p).conjugate().p
    assert 1.0 / p + 1.0 / q == pytest.approx(1.0, rel=1e-15)
    assert PowerYoung(p).conjugate().conjugate().p == pytest.approx(p, rel=CONJ_GRID_TOL)


def test_power3_conjugate_matches_power15_pointwise():
    psi = PowerYoung(3.0).conjugate()
    ref = PowerYoung(1.5)
    ys = np.linspace(0.01, 20.0, 100)
    assert np.allclose(psi.value(ys), ref.value(ys), rtol=CONJ_GRID_TOL, atol=0)


def test_power1_conjugate_refused():
    with pytest.raises(ValueError, match="p = 1"):
        PowerYoung(1.0).conjugate()


@pytest.mark.parametrize(
    "yf,y_hi",
    [(PowerYoung(3.0), 9.0), (ExpMinusYoung(), 20.0), (square_table(), 12.0)],
    ids=["power3", "exp_minus", "tabulated_square"],
)
def test_conjugate_against_sup_oracle(yf, y_hi):
    """Psi(y) = sup_x (x*y - Phi(x)), evaluated by brute maximization over a
    dense grid, must agree with the conjugate independently of how the
    conjugate was constructed."""
    psi = yf.conjugate()
    xs = np.linspace(0.0, 12.0, 30001)
    phis = np.asarray(yf.value(xs))
    for y in np.linspace(0.1, y_hi, 23):
        oracle = np.max(xs * y - phis)
        assert float(psi.value(y)) == pytest.approx(oracle, rel=1e-4, abs=1e-6)


def test_tabulated_square_conjugate_closed_form():
    # phi(x) = 2x inverts to psi(y) = y/2, so Psi(y) = y**2 / 4.
    psi = square_table().conjugate()
    ys = np.linspace(0.05, 150.0, 57)
    assert np.allclose(psi.value(ys), ys**2 / 4.0, rtol=1e-12, atol=0)
    assert psi.value(3.0) == pytest.approx(2.25, rel=1e-13)


def test_tabulated_flat_segment_inverts_to_right_endpoint():
    # phi: slope 1 up to (1,1), flat to (2,1), then up to (3,5). The strict
    # superlevel set {phi > 1} starts at 2, so the inverse at height 1 is 2.
    yf = TabulatedYoung([1.0, 2.0, 3.0], [1.0, 1.0, 5.0])
    psi = yf.conjugate()
    assert psi.phi(1.0) == 2.0
    # The interpolated inverse overestimates below the jump, never under:
    # exact Psi(1) = integral of y dy = 0.5, interpolated gives 1.0.
    assert psi.value(1.0) == pytest.approx(1.0, rel=1e-14)
    # Young's inequality must survive the jump.
    xs = np.linspace(0.0, 6.0, 301)
    ys = np.linspace(0.0, 8.0, 301)
    lhs = np.outer(xs, ys)
    rhs = np.asarray(yf.value(xs))[:, None] + np.asarray(psi.value(ys))[None, :]
    assert np.all(lhs <= rhs + 1e-12 * np.maximum(1.0, np.abs(rhs)))


@pytest.mark.parametrize(
    "yf",
    [PowerYoung(2.0), PowerYoung(3.0), PowerYoung(1.25), ExpMinusYoung(), square_table()],
    ids=["power2", "power3", "power1.25", "exp_minus", "tabulated_square"],
)
def test_young_equality_at_derivative(yf):
    """x*phi(x) = Phi(x) + Psi(phi(x)) wherever phi is continuous."""
    psi = yf.conjugate()
    for x in [0.25, 0.5, 1.0, 1.7, 3.0, 6.0]:
        y = float(yf.phi(x))
        lhs = x * y
        rhs = float(yf.value(x)) + float(psi.value(y))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=30.0),
    y=st.floats(min_value=0.0, max_value=30.0),
    p=st.floats(min_value=1.05, max_value=6.0),
)
def test_young_inequality_power(x, y, p):
    yf = PowerYoung(p)
    psi = yf.conjugate()
    bound = float(yf.value(x)) + float(psi.value(y))
    assert x * y <= bound + 1e-9 * max(1.0, bound)


def test_conjugate_exponent_blowup_overflows_loudly():
    # p near 1 sends the dual exponent toward infinity; evaluating the
    # conjugate above 1 then exceeds float64 and must raise, not return inf.
    psi = PowerYoung(1.000001).conjugate()
    with pytest.raises(EvaluationRangeError):
        psi.value(2.0)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=100.0), y=st.floats(min_value=0.0, max_value=1e4))
def test_young_inequality_exp_pair(x, y):
    yf = ExpMinusYoung()
    psi = yf.conjugate()
    bound = float(yf.value(x)) + float(psi.value(y))
    assert x * y <= bound + 1e-9 * max(1.0, bound)


# ---------------------------------------------------------------------------
# tabulated evaluation details


def test_tabulated_matches_square_inside_and_beyond_grid():
    yf = square_table(lo=0.01, hi=100.0)
    xs = np.array([0.003, 0.01, 0.37, 1.0, 7.0, 99.0, 100.0, 700.0, 1e4])
    assert np.allclose(yf.value(xs), xs**2, rtol=1e-12, atol=0)
    assert np.allclose(yf.phi(xs), 2.0 * xs, rtol=1e-12, atol=0)


def old_tabulated_formula(yf, x):
    """The two-search evaluation: np.interp for phi, searchsorted for the
    segment, and the final slope extended beyond the grid."""
    xs = np.concatenate(([0.0], yf.grid))
    ys = np.concatenate(([0.0], yf.phi_values))
    cum = np.concatenate(([0.0], np.cumsum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0)))
    slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    ax = np.abs(x)
    phi = np.where(ax <= xs[-1], np.interp(ax, xs, ys), ys[-1] + slope * (ax - xs[-1]))
    idx = np.minimum(np.searchsorted(xs, ax, side="right") - 1, xs.size - 1)
    return phi, cum[idx] + (ax - xs[idx]) * (ys[idx] + phi) / 2.0


@pytest.mark.parametrize(
    "yf",
    [
        square_table(),
        TabulatedYoung([1.0, 2.0, 3.0], [1.0, 1.0, 5.0]),
        TabulatedYoung([0.5, 1.0, 2.0, 4.0], [0.1, 0.3, 1.0, 5.0]).conjugate(),
    ],
)
def test_tabulated_single_search_matches_old_formula(yf):
    rng = np.random.default_rng(5)
    top = float(yf.grid[-1])
    x = np.concatenate(
        (
            [0.0],
            yf.grid,  # on the knots
            -yf.grid,
            0.5 * (yf.grid[1:] + yf.grid[:-1]),  # between knots
            rng.uniform(0.0, top, 2000),
            top * np.geomspace(1.0 + 1e-12, 1e6, 200),  # beyond the grid
        )
    )
    phi, val = old_tabulated_formula(yf, x)
    assert np.allclose(yf.value(x), val, rtol=1e-14, atol=0)
    assert np.allclose(yf.phi(x), phi, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "grid,phi,msg",
    [
        ([1.0], [1.0], "two samples"),
        ([1.0, 2.0], [1.0], "equal length"),
        ([-1.0, 2.0], [1.0, 2.0], "positive and strictly increasing"),
        ([2.0, 1.0], [1.0, 2.0], "positive and strictly increasing"),
        ([1.0, 2.0], [0.0, 2.0], "first derivative sample"),
        ([1.0, 2.0], [2.0, 1.0], "nondecreasing"),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 2.0], "last segment"),
        ([1.0, np.inf], [1.0, 2.0], "finite"),
    ],
)
def test_tabulated_rejects_bad_tables(grid, phi, msg):
    with pytest.raises(ValueError, match=msg):
        TabulatedYoung(grid, phi)


# ---------------------------------------------------------------------------
# the Luxemburg solver's fused kernel

KERNEL_FAMILIES = {
    "power": [PowerYoung(1.0), PowerYoung(1.5), PowerYoung(2.0), PowerYoung(3.0)],
    "exp_minus": [ExpMinusYoung()],
    "log_plus": [LogPlusYoung()],
    "tabulated": [square_table(), TabulatedYoung([0.5, 1.0, 2.0, 4.0], [0.1, 0.1, 1.0, 5.0])],
}


def test_kernel_check_covers_every_registered_family():
    assert KERNEL_FAMILIES.keys() == REGISTRY["young function"].keys()


# Phi^-1(1), declared once per family for the Luxemburg solver's bracket.
# For p = 1.15, 2 and 4.5, p ** (1 / p) rounds to a point where Phi > 1; the
# steep table has unit level 0.5 < 1, and the last table has Phi = 1 exactly
# at its knot 1.
UNIT_LEVEL_FAMILIES = {
    **KERNEL_FAMILIES,
    "power": KERNEL_FAMILIES["power"] + [PowerYoung(p) for p in (1.15, 4.5, 1e6)],
    "tabulated": KERNEL_FAMILIES["tabulated"] + [
        TabulatedYoung([0.5, 1.0, 2.0, 4.0], [0.1, 0.1, 1.0, 5.0]).conjugate(),
        TabulatedYoung([0.5, 1.0], [4.0, 8.0]),
        TabulatedYoung([1.0, 2.0], [2.0, 3.0]),
    ],
}


def test_unit_level_check_covers_every_registered_family():
    assert UNIT_LEVEL_FAMILIES.keys() == REGISTRY["young function"].keys()


@pytest.mark.parametrize("yf", [y for ys in UNIT_LEVEL_FAMILIES.values() for y in ys], ids=repr)
def test_unit_level_is_the_inverse_of_phi_at_one(yf):
    c = yf.unit_level
    assert yf.value(c) <= 1.0 < yf.value(c * (1.0 + 1e-12))


def kernel_arguments(yf):
    """Finite u >= 0: zero, subnormal, ordinary and large entries, the knots
    and points beyond the grid of a table, and exp's last admissible argument
    709 with its successor."""
    rng = np.random.default_rng(9)
    args = [
        np.array([0.0]),
        np.array([0.0, 5e-324, 1e-300, 1e-8, 0.5]),
        rng.exponential(size=500),
        np.geomspace(1e-6, 708.0, 300),
        np.array([1.0, 709.0]),
        np.array([1.0, np.nextafter(709.0, np.inf)]),
        np.array([2.0, 1e6]),
        np.array([1e100, 1e200, 1e306]),
    ]
    if isinstance(yf, TabulatedYoung):
        top = float(yf.grid[-1])
        args += [yf.grid, 0.5 * (yf.grid[1:] + yf.grid[:-1]), top * np.geomspace(1.0, 1e6, 50)]
    return args


def outcome(f, u):
    try:
        return f(u)
    except EvaluationRangeError:
        return None


@pytest.mark.parametrize("yf", [y for ys in KERNEL_FAMILIES.values() for y in ys], ids=repr)
def test_kernel_is_bitwise_value_and_phi(yf):
    """Where value and phi succeed the kernel writes their bits; where one
    refuses, the kernel raises or leaves a non-finite entry in its buffer."""
    for u in kernel_arguments(yf):
        phi_out, value_out = np.full_like(u, -1.0), np.full_like(u, -1.0)
        value, phi = outcome(yf.value, u), outcome(yf.phi, u)
        try:
            yf._value_and_phi_into(u, phi_out, value_out, float(np.max(u)))
        except EvaluationRangeError:
            assert value is None, u
            continue
        if value is None:
            assert not np.all(np.isfinite(value_out)), u
            continue
        assert value_out.tobytes() == value.tobytes(), u
        if phi is None:
            assert not np.all(np.isfinite(phi_out)), u
        else:
            assert phi_out.tobytes() == phi.tobytes(), u


# ---------------------------------------------------------------------------
# range errors


def test_exp_minus_overflow_is_an_error_not_inf():
    with pytest.raises(EvaluationRangeError):
        ExpMinusYoung().value(800.0)
    with pytest.raises(EvaluationRangeError):
        ExpMinusYoung().phi(1e6)


def test_power_overflow_is_an_error_not_inf():
    with pytest.raises(EvaluationRangeError):
        PowerYoung(2.0).value(1e200)


def test_range_error_is_a_value_error():
    assert issubclass(EvaluationRangeError, ValueError)


def test_evaluate_rejects_non_finite():
    with pytest.raises(ValueError):
        PowerYoung(2.0).value(math.inf)
    with pytest.raises(ValueError):
        PowerYoung(2.0).value(np.array([1.0, math.nan]))


def test_power_exponent_validated():
    with pytest.raises(ValueError):
        PowerYoung(0.5)
    with pytest.raises(ValueError):
        PowerYoung(math.inf)


# ---------------------------------------------------------------------------
# doubling condition


def test_delta2_power_exact_constants():
    grid = np.geomspace(0.5, 50.0, 25)
    rep3 = check_delta2(PowerYoung(3.0), grid)
    assert rep3.satisfied and rep3.x0 == 0.0
    assert rep3.C == pytest.approx(8.0, rel=1e-9)
    rep2 = check_delta2(PowerYoung(2.0), grid)
    assert rep2.satisfied and rep2.C == pytest.approx(4.0, rel=1e-9)


def test_delta2_satisfied_report_bounds_all_ratios():
    rep = check_delta2(LogPlusYoung(), np.geomspace(0.1, 1e4, 60))
    assert isinstance(rep, Delta2Report)
    assert rep.satisfied
    assert np.all(rep.witness_ratios <= rep.C)
    assert rep.C <= 4.0 + 1e-12  # dominated by the quadratic bound near 0


def test_delta2_exp_minus_refused_with_witness():
    grid = np.geomspace(1.0, 30.0, 40)
    rep = check_delta2(ExpMinusYoung(), grid)
    assert not rep.satisfied
    assert math.isinf(rep.C)
    assert rep.x0 > 0.0 and rep.x0 in rep.grid
    escaped = rep.witness_ratios[np.searchsorted(rep.grid, rep.x0)]
    assert escaped > 1e6


def test_delta2_escape_threshold_is_configurable():
    grid = np.geomspace(1.0, 30.0, 40)
    # exp ratios stay below e.g. Phi(60)/Phi(30) ~ e^30; a huge threshold passes
    rep = check_delta2(ExpMinusYoung(), grid, escape_threshold=1e40)
    assert rep.satisfied


def test_delta2_rejects_bad_grids():
    yf = PowerYoung(2.0)
    with pytest.raises(ValueError):
        check_delta2(yf, [])
    with pytest.raises(ValueError):
        check_delta2(yf, [0.0, 1.0])
    with pytest.raises(ValueError):
        check_delta2(yf, [2.0, 1.0])
    with pytest.raises(ValueError):
        check_delta2(yf, [1.0, 2.0], escape_threshold=0.5)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("yf", FAMILIES, ids=lambda y: y.family + getattr(y, "p", "").__repr__())
def test_dict_round_trip(yf):
    assert young_from_dict(yf.to_dict()) == yf


@pytest.mark.parametrize(
    "d",
    [
        {},
        {"family": "gaussian"},
        {"family": "power"},
        {"family": "power", "p": 2.0, "q": 2.0},
        {"family": "exp_minus", "p": 2.0},
        {"family": "tabulated", "grid": [1.0, 2.0]},
        "power",
    ],
)
def test_from_dict_rejects_malformed(d):
    with pytest.raises(ValueError):
        young_from_dict(d)


@pytest.mark.parametrize(
    "d, key",
    [
        ({"family": "power", "p": "2"}, "'p'"),
        ({"family": "power", "p": True}, "'p'"),
        ({"family": "power", "p": 10**400}, "'p'"),
        ({"family": "tabulated", "grid": [1.0, "2"], "phi": [1.0, 2.0]}, r"'grid'\[1\]"),
        ({"family": "tabulated", "grid": [1.0, 2.0], "phi": [True, 2.0]}, r"'phi'\[0\]"),
        ({"family": "tabulated", "grid": 1.0, "phi": [1.0]}, "'grid'"),
    ],
)
def test_from_dict_refuses_booleans_and_strings(d, key):
    with pytest.raises(ValueError, match=key):
        young_from_dict(d)


def test_from_dict_accepts_ints_as_numbers():
    assert young_from_dict({"family": "power", "p": 3}) == PowerYoung(3.0)
    got = young_from_dict({"family": "tabulated", "grid": [1, 2], "phi": [2, 4]})
    assert got == TabulatedYoung([1.0, 2.0], [2.0, 4.0])
