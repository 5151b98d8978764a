import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orlicz_risk import (
    ExpectedShortfall,
    PiecewiseLinearDistortion,
    PowerDistortion,
    QuantileFunction,
    ScenarioSet,
    bruteforce_choquet,
    choquet_empirical,
    choquet_quadrature,
    convex_dominance,
    core_membership,
    distortion_from_dict,
    empirical_from_sample,
    rho_finite_scenario,
    ryff_scenarios,
)
from orlicz_risk._spec import REGISTRY
from orlicz_risk.distortion import _lstat, _permutation_index, _weights

IDENTITY = PowerDistortion(1.0)
KINKED = PiecewiseLinearDistortion([[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]])
FAMILIES = [ExpectedShortfall(0.25), PowerDistortion(2.0), KINKED]

samples = arrays(np.float64, st.integers(1, 25), elements=st.floats(-100.0, 100.0))


# ---------------------------------------------------------------------------
# distortion functions


@pytest.mark.parametrize("f", FAMILIES + [IDENTITY, ExpectedShortfall(1.0)], ids=lambda f: f.label())
def test_endpoint_values_and_dominated_by_identity(f):
    assert f.value(0.0) == 0.0
    assert f.value(1.0) == 1.0
    ts = np.linspace(0.0, 1.0, 201)
    assert np.all(f.value(ts) <= ts + 1e-15)


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.label())
def test_midpoint_convexity_on_grid(f):
    t = np.linspace(0.0, 1.0, 101)
    s = np.linspace(0.0, 1.0, 101)[::-1]
    mid = f.value((t + s) / 2.0)
    assert np.all(mid <= (f.value(t) + f.value(s)) / 2.0 + 1e-15)


def test_expected_shortfall_hand_curve():
    es = ExpectedShortfall(0.5)
    assert es.value(0.25) == 0.0
    assert es.value(0.5) == 0.0
    assert es.value(0.75) == 0.5
    assert es.right_derivative(0.4) == 0.0
    assert es.right_derivative(0.5) == 2.0
    assert es.breakpoints() == (0.5,)
    assert es.tail_breakpoints() == (0.5,)


def test_tail_derivative_agrees_with_reflected_derivative():
    for f in FAMILIES:
        ts = np.linspace(0.01, 0.99, 37)
        got = np.asarray(f.tail_right_derivative(ts))
        ref = np.asarray(f.right_derivative(1.0 - ts))
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_tail_breakpoints_default_reflects_upper_kinks():
    g = PiecewiseLinearDistortion([[0.0, 0.0], [0.8, 0.3], [1.0, 1.0]])
    assert g.breakpoints() == (0.8,)
    assert g.tail_breakpoints() == pytest.approx((0.2,))


@pytest.mark.parametrize(
    "knots",
    [
        [[0.0, 0.0]],
        [[0.1, 0.0], [1.0, 1.0]],
        [[0.0, 0.1], [1.0, 1.0]],
        [[0.0, 0.0], [0.5, 0.6], [1.0, 1.0]],  # slopes decrease
        [[0.0, 0.0], [0.5, -0.1], [1.0, 1.0]],
        [[0.0, 0.0], [0.0, 0.5], [1.0, 1.0]],
    ],
)
def test_piecewise_rejects_nonconvex_or_malformed(knots):
    with pytest.raises(ValueError):
        PiecewiseLinearDistortion(knots)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ExpectedShortfall(0.0)
    with pytest.raises(ValueError):
        ExpectedShortfall(1.5)
    with pytest.raises(ValueError):
        PowerDistortion(0.9)


# ---------------------------------------------------------------------------
# increments


def test_increment_hand_values():
    assert np.allclose(
        PowerDistortion(2.0).increments(3),
        [1.0 / 9.0, 3.0 / 9.0, 5.0 / 9.0],
        rtol=1e-15,
    )
    assert np.allclose(
        ExpectedShortfall(0.5).increments(4), [0.0, 0.0, 0.5, 0.5], atol=1e-15
    )
    assert np.allclose(IDENTITY.increments(7), np.full(7, 1.0 / 7.0), rtol=1e-15)


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.label())
@pytest.mark.parametrize("n", [1, 2, 5, 37, 1000])
def test_increments_are_a_nondecreasing_probability_vector(f, n):
    w = f.increments(n)
    assert w.shape == (n,)
    assert np.all(w >= 0.0)
    assert np.all(np.diff(w) >= -1e-15)
    assert abs(w.sum() - 1.0) <= 1e-12


def test_increments_reject_bad_n():
    with pytest.raises(ValueError):
        ExpectedShortfall(0.5).increments(0)
    with pytest.raises(ValueError):
        ExpectedShortfall(0.5).increments(2.5)


# ---------------------------------------------------------------------------
# the L-statistic estimator


def lstat_samples():
    gen = np.random.Generator(np.random.Philox(key=3))
    return [
        np.array([-2.0]),
        gen.standard_normal(2),
        gen.standard_normal(7),
        -np.abs(gen.standard_normal(100)),  # negative atoms only
        np.round(3.0 * gen.standard_normal(1001)),  # ties, negatives and zeros
        np.array([-3.0, -1.0, 0.0, 0.0]),  # the weighted atoms are zero
        np.full(9, -0.5),
        gen.standard_exponential(4096),
    ]


# ES 1 weighs every atom (s = 0); ES 1% weighs only the top one below n = 101 (s = n - 1)
LSTAT_FAMILIES = FAMILIES + [ExpectedShortfall(1.0), ExpectedShortfall(0.01), IDENTITY]


def test_lstat_families_cover_the_registry():
    assert {f.family for f in LSTAT_FAMILIES} == REGISTRY["distortion"].keys()


@pytest.mark.parametrize("f", LSTAT_FAMILIES, ids=lambda f: f.label())
def test_selection_estimator_is_the_full_sort_bit_for_bit(f):
    for d in lstat_samples():
        before = d.copy()
        s, w = _weights(f, d.size)
        assert np.array_equal(w, f.increments(d.size)) and not w.flags.writeable
        assert np.all(w[:s] == 0.0) and w[s] != 0.0
        want = float(np.dot(np.sort(d), w)).hex()
        assert _lstat(d, s, w).hex() == want
        assert choquet_empirical(d, f).hex() == want
        assert np.array_equal(d, before)


def test_selection_estimator_meets_both_ends_of_the_rank_range():
    seen = set()
    for f in LSTAT_FAMILIES:
        for d in lstat_samples():
            s = _weights(f, d.size)[0]
            seen.add("first" if s == 0 else "last" if s == d.size - 1 else "inside")
    assert seen == {"first", "last", "inside"}


def test_estimator_hand_values():
    assert choquet_empirical([0.0, 1.0], PowerDistortion(2.0)) == pytest.approx(0.75, rel=1e-15)
    assert choquet_empirical([1.0, 2.0, 3.0, 4.0], ExpectedShortfall(0.5)) == pytest.approx(
        3.5, rel=1e-15
    )
    assert choquet_empirical([0.0, 1.0, 2.0], PowerDistortion(2.0)) == pytest.approx(
        13.0 / 9.0, rel=1e-14
    )


@settings(max_examples=100, deadline=None)
@given(x=samples)
def test_identity_distortion_gives_the_mean(x):
    assert choquet_empirical(x, IDENTITY) == pytest.approx(float(np.mean(x)), rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(x=samples, salt=st.integers(0, 2**31 - 1))
def test_estimator_permutation_invariant_bitwise(x, salt):
    perm = np.random.default_rng(salt).permutation(x.size)
    for f in FAMILIES:
        assert choquet_empirical(x[perm], f) == choquet_empirical(x, f)


@settings(max_examples=100, deadline=None)
@given(x=samples, c=st.floats(0.0, 50.0))
def test_positive_homogeneity(x, c):
    for f in FAMILIES:
        assert choquet_empirical(c * x, f) == pytest.approx(
            c * choquet_empirical(x, f), rel=1e-13, abs=1e-13
        )


@settings(max_examples=100, deadline=None)
@given(x=samples, c=st.floats(-50.0, 50.0))
def test_translation_equivariance(x, c):
    for f in FAMILIES:
        got = choquet_empirical(x + c, f)
        want = choquet_empirical(x, f) + c
        assert got == pytest.approx(want, rel=1e-12, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    x=arrays(np.float64, 9, elements=st.floats(-50.0, 50.0)),
    y=arrays(np.float64, 9, elements=st.floats(-50.0, 50.0)),
)
def test_subadditivity_and_monotonicity(x, y):
    for f in FAMILIES:
        assert choquet_empirical(x + y, f) <= (
            choquet_empirical(x, f) + choquet_empirical(y, f) + 1e-10
        )
        assert choquet_empirical(x, f) <= choquet_empirical(x + np.abs(y), f) + 1e-10


@settings(max_examples=100, deadline=None)
@given(x=samples, salt=st.integers(0, 2**31 - 1))
def test_comonotone_additivity(x, salt):
    """Sorted vectors are nondecreasing functions of the same index, hence
    comonotone; the measure must add exactly on them."""
    rng = np.random.default_rng(salt)
    a = np.sort(x)
    b = np.sort(rng.uniform(-10.0, 10.0, x.size))
    for f in FAMILIES:
        got = choquet_empirical(a + b, f)
        want = choquet_empirical(a, f) + choquet_empirical(b, f)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-10)


# ---------------------------------------------------------------------------
# quadrature route


def test_empirical_quadrature_is_the_same_finite_sum():
    rng = np.random.default_rng(41)
    for f in FAMILIES:
        for _ in range(25):
            x = rng.standard_normal(int(rng.integers(1, 50)))
            q = QuantileFunction.from_empirical(empirical_from_sample(x))
            assert choquet_quadrature(q, f) == choquet_empirical(x, f)


def test_quadrature_uniform_quantile_power_distortion():
    q = QuantileFunction(lambda u: np.asarray(u, dtype=float))
    got = choquet_quadrature(q, PowerDistortion(2.0))
    assert got == pytest.approx(2.0 / 3.0, rel=1e-8)


def test_quadrature_uniform_quantile_expected_shortfall():
    # integral of u/alpha over [1 - alpha, 1] is 1 - alpha/2
    q = QuantileFunction(lambda u: np.asarray(u, dtype=float))
    got = choquet_quadrature(q, ExpectedShortfall(0.3))
    assert got == pytest.approx(0.85, rel=1e-8)


def test_quadrature_constant_quantile_any_family():
    q = QuantileFunction(lambda u: np.full_like(np.asarray(u, dtype=float), 3.25))
    for f in FAMILIES:
        assert choquet_quadrature(q, f) == pytest.approx(3.25, rel=1e-8)


def test_quadrature_piecewise_kink_hand_value():
    # f' = 0.4 on [0, 0.5), 1.6 on [0.5, 1): integral of u f'(u) = 0.65
    q = QuantileFunction(lambda u: np.asarray(u, dtype=float))
    assert choquet_quadrature(q, KINKED) == pytest.approx(0.65, rel=1e-8)


# ---------------------------------------------------------------------------
# scenario sets


def test_ryff_hand_enumerations():
    s = ryff_scenarios(PowerDistortion(2.0), 2)
    assert s.densities.tolist() == [[0.5, 1.5], [1.5, 0.5]]
    s = ryff_scenarios(ExpectedShortfall(0.5), 2)
    assert s.densities.tolist() == [[0.0, 2.0], [2.0, 0.0]]
    s = ryff_scenarios(IDENTITY, 3)
    assert s.densities.tolist() == [[1.0, 1.0, 1.0]]


def test_ryff_distinct_rearrangement_count():
    # base (0, 0, 2, 2) has 4!/(2!2!) = 6 distinct orderings
    s = ryff_scenarios(ExpectedShortfall(0.5), 4)
    assert s.densities.shape == (6, 4)
    assert np.all(s.densities.mean(axis=1) == 1.0)


def test_ryff_random_selection_is_seeded_and_valid():
    a = ryff_scenarios(PowerDistortion(2.0), 12, selection=40, seed=7)
    b = ryff_scenarios(PowerDistortion(2.0), 12, selection=40, seed=7)
    assert np.array_equal(a.densities, b.densities)
    assert 1 <= a.densities.shape[0] <= 40
    assert np.all(a.densities >= 0.0)
    assert np.allclose(a.densities.mean(axis=1), 1.0, atol=1e-12)
    c = ryff_scenarios(PowerDistortion(2.0), 12, selection=40, seed=8)
    assert not np.array_equal(a.densities, c.densities)


def test_ryff_bounds_and_validation():
    with pytest.raises(ValueError):
        ryff_scenarios(IDENTITY, 9)  # exhaustive beyond n = 8
    with pytest.raises(ValueError):
        ryff_scenarios(IDENTITY, 3, selection=0)
    with pytest.raises(ValueError):
        ryff_scenarios(IDENTITY, 0)


def test_ryff_refuses_bools_non_integers_and_strings():
    for bad in [True, False, 2.7, 3.0, "3", "abc", 0, -2, None]:
        with pytest.raises(ValueError, match=r"^selection must be 'exhaustive' or a count >= 1"):
            ryff_scenarios(IDENTITY, 3, selection=bad)
    for bad in [True, 2.0, "3"]:
        with pytest.raises(ValueError, match=r"^n must be a positive integer"):
            ryff_scenarios(IDENTITY, bad)
        with pytest.raises(ValueError, match=r"^n must be a positive integer"):
            IDENTITY.increments(bad)
    f = PowerDistortion(2.0)
    a = ryff_scenarios(f, np.int64(6), selection=np.int32(5), seed=3)
    assert np.array_equal(a.densities, ryff_scenarios(f, 6, selection=5, seed=3).densities)
    assert np.array_equal(f.increments(np.int64(4)), f.increments(4))


def test_ryff_refuses_a_bad_seed():
    for selection in ["exhaustive", 5]:
        for bad in [True, False, 1.5, 3.0, -1, "3", None]:
            with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got "):
                ryff_scenarios(IDENTITY, 3, selection=selection, seed=bad)
        with pytest.raises(ValueError, match=r"^seed must be below 2\*\*128, got "):
            ryff_scenarios(IDENTITY, 3, selection=selection, seed=2**128)
    f = PowerDistortion(2.0)
    a = ryff_scenarios(f, 6, selection=5, seed=np.uint8(3))
    assert np.array_equal(a.densities, ryff_scenarios(f, 6, selection=5, seed=3).densities)
    assert ryff_scenarios(f, 6, selection=5, seed=0).densities.shape[1] == 6


def test_permutation_index_is_the_lexicographic_enumeration():
    for n in range(1, 9):
        idx = _permutation_index(n)
        assert idx.dtype == np.intp
        assert np.array_equal(idx, np.array(list(itertools.permutations(range(n)))))


def test_permutation_index_is_built_once_per_n_and_read_only():
    for n in range(1, 9):
        idx = _permutation_index(n)
        assert _permutation_index(n) is idx
        assert not idx.flags.writeable


def ryff_tuple_oracle(f, n):
    """The exhaustive enumeration by Python tuples: every permutation, then a set."""
    base = n * f.increments(n)
    return np.asarray(sorted(set(itertools.permutations(base.tolist()))), dtype=float)


RYFF_FAMILIES = [
    IDENTITY,
    ExpectedShortfall(0.25),
    ExpectedShortfall(0.5),
    PowerDistortion(2.0),
    PowerDistortion(3.5),
    PiecewiseLinearDistortion([[0.0, 0.0], [0.5, 0.25], [0.75, 0.5], [1.0, 1.0]]),
    PowerDistortion(1.0000000000000002),  # at n = 4 the increments round distinct and unsorted
]
# the last label would print as IDENTITY's, so it gets an id of its own
RYFF_IDS = [f.label() for f in RYFF_FAMILIES[:-1]] + ["power(gamma=1+ulp)"]


@pytest.mark.parametrize("f", RYFF_FAMILIES, ids=RYFF_IDS)
def test_ryff_exhaustive_is_bitwise_the_tuple_enumeration(f):
    for n in range(1, 9):
        got = ryff_scenarios(f, n).densities
        want = ryff_tuple_oracle(f, n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), n


def test_scenario_set_validation():
    with pytest.raises(ValueError):
        ScenarioSet(np.array([[0.5, 0.6]]))  # mean != 1
    with pytest.raises(ValueError):
        ScenarioSet(np.array([[-0.5, 2.5]]))
    with pytest.raises(ValueError):
        ScenarioSet(np.empty((0, 3)))


def test_rho_finite_scenario_hand_values():
    s = ScenarioSet(np.array([[2.0, 0.0], [0.0, 2.0]]))
    assert rho_finite_scenario([1.0, 3.0], s) == 3.0
    flat = ScenarioSet(np.ones((1, 4)))
    x = np.array([0.0, 1.0, 2.0, 7.0])
    assert rho_finite_scenario(x, flat) == pytest.approx(float(x.mean()), rel=1e-15)
    assert rho_finite_scenario(np.full(2, 5.5), s) == pytest.approx(5.5, rel=1e-15)
    with pytest.raises(ValueError):
        rho_finite_scenario([1.0, 2.0, 3.0], s)


def test_sup_over_exhaustive_rearrangements_is_the_estimator():
    rng = np.random.default_rng(13)
    for f in FAMILIES:
        for n in [1, 2, 3, 5]:
            x = rng.standard_normal(n)
            s = ryff_scenarios(f, n)
            assert rho_finite_scenario(x, s) == pytest.approx(
                choquet_empirical(x, f), rel=1e-12, abs=1e-12
            )


# ---------------------------------------------------------------------------
# core membership and convex dominance


def test_core_membership_hand_cases():
    es = ExpectedShortfall(0.5)
    assert core_membership([0.0, 2.0], es)
    assert core_membership([1.0, 1.0], es)
    assert core_membership([1.0, 1.0], PowerDistortion(3.0))
    assert not core_membership([3.0, -1.0], es)
    assert not core_membership([1.1, 1.1], es)


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.label())
def test_every_ryff_density_is_in_the_core(f):
    for n in [2, 4, 6]:
        for h in ryff_scenarios(f, n).densities:
            assert core_membership(h, f)
            assert convex_dominance(h, f)


def _subset_oracle(h, f, tol=1e-12):
    """The definition itself: mean(h * 1_A) >= f(|A|/n) - tol over all 2^n events A."""
    hv = np.asarray(h, dtype=float)
    n = hv.size
    if abs(float(np.mean(hv)) - 1.0) > tol:
        return False
    sums = np.zeros(1)
    counts = np.zeros(1, dtype=np.int64)
    for x in hv:
        sums = np.concatenate((sums, sums + x))
        counts = np.concatenate((counts, counts + 1))
    fvals = np.asarray(f.value(np.arange(n + 1) / n), dtype=float)
    fvals[-1] = 1.0
    return bool(np.all(sums / n >= fvals[counts] - tol))


def test_core_membership_agrees_with_subset_enumeration():
    rng = np.random.default_rng(2024)
    verdicts = []
    for f in FAMILIES:
        for n in range(1, 13):
            base = n * f.increments(n)
            for _ in range(12):
                h = rng.permutation(base)
                kind = rng.integers(4)
                if kind == 1:  # mixture of two rearrangements: a member
                    h = 0.5 * (h + rng.permutation(base))
                elif kind == 2:  # small mean-preserving move between two atoms
                    i, j = rng.integers(n, size=2)
                    step = rng.uniform(-0.05, 0.05)
                    h[i] += step
                    h[j] -= step
                elif kind == 3:  # a random positive density with mean one
                    h = rng.exponential(size=n)
                    h /= h.mean()
                got = core_membership(h, f)
                assert got == _subset_oracle(h, f), (f.label(), h.tolist())
                verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.label())
@pytest.mark.parametrize("n", [64, 1000])
def test_core_membership_has_no_size_cap(f, n):
    for h in ryff_scenarios(f, n, selection=10, seed=n).densities:
        assert core_membership(h, f)
        spread = h.copy()  # move mass from the smallest atom to the largest
        spread[np.argmin(h)] -= 1e-3
        spread[np.argmax(h)] += 1e-3
        assert not core_membership(spread, f)


def test_convex_dominance_hand_cases():
    assert convex_dominance([1.0, 1.0], ExpectedShortfall(0.5))
    assert not convex_dominance([0.0, 2.0], IDENTITY)
    # explicit test maps: equality case passes
    assert convex_dominance([0.0, 2.0], ExpectedShortfall(0.5), betas=[lambda x: x**4])


def test_convex_dominance_validation():
    with pytest.raises(ValueError):
        convex_dominance([-0.5, 2.5], IDENTITY)
    with pytest.raises(ValueError):
        convex_dominance([2.0, 2.0], IDENTITY)


def test_averaging_toward_the_mean_stays_dominated():
    # mixing a core density toward the constant 1 shrinks it in convex order
    f = PowerDistortion(2.0)
    h = 4 * f.increments(4)
    for lam in [0.0, 0.3, 0.7, 1.0]:
        mixed = lam * h + (1 - lam) * np.ones(4)
        assert convex_dominance(mixed, f)


def _stop_loss_oracle(h, f, tol):
    """The stop-loss family as a loop, the reference for ``convex_dominance``: mean max(0, x - t)
    at every support point t of both sides, plus mean x**2. Returns the verdict and the worst
    stop-loss excess max_t mean max(0, h - t) - mean max(0, ref - t)."""
    hv = np.asarray(h, dtype=float)
    ref = hv.size * f.increments(hv.size)
    ok, worst = True, -np.inf
    for t in np.unique(np.concatenate((hv, ref))):
        lhs = float(np.mean(np.maximum(hv - t, 0.0)))
        rhs = float(np.mean(np.maximum(ref - t, 0.0)))
        ok = ok and lhs <= rhs + tol
        worst = max(worst, lhs - rhs)
    ok = ok and float(np.mean(hv**2)) <= float(np.mean(ref**2)) + tol
    return ok, worst


def test_convex_dominance_agrees_with_the_stop_loss_oracle():
    # Within tol the stop-loss maps hold iff the top-k sums do, as S_k(x) = min_t k t +
    # n mean max(0, x - t). So a verdict may differ only in the tol band, where the oracle's
    # worst stop-loss excess lies in [0, 2 tol]: there its x**2 check is stricter, by up
    # to 2 tol max(h), and rounding at the edge decides.
    tol = 1e-12
    rng = np.random.default_rng(22)
    verdicts, band = [], []
    for f in FAMILIES + [IDENTITY, ExpectedShortfall(0.5)]:
        for n in range(1, 25):
            base = n * f.increments(n)
            for _ in range(10):
                h = rng.permutation(base)
                kind = int(rng.integers(6))
                if kind == 1:  # mixture of two rearrangements: dominated
                    h = 0.5 * (h + rng.permutation(base))
                elif kind in (2, 5):  # move mass between two atoms: 0.05 at most, or 1e-11
                    i, j = rng.integers(n, size=2)
                    step = min(rng.uniform(0.0, 0.05) if kind == 2 else 1e-11, h[j])
                    h[i] += step
                    h[j] -= step
                elif kind == 3:  # a random positive density
                    h = rng.exponential(size=n)
                    h /= h.mean()
                elif kind == 4:  # the mean off by up to 0.9e-9, inside the 1e-9 allowed
                    h *= 1.0 + rng.uniform(-0.9e-9, 0.9e-9)
                want, worst = _stop_loss_oracle(h, f, tol)
                got = convex_dominance(h, f, tol=tol)
                verdicts.append(got)
                if got != want:
                    band.append((f.label(), n, kind, got, worst))
    assert len(verdicts) >= 1000
    assert 0.2 < np.mean(verdicts) < 0.9
    assert 0 < len(band) <= 0.02 * len(verdicts), band
    for case in band:  # only the 1e-11 moves and the mean shifts reach the band
        label, n, kind, got, worst = case
        assert kind in (4, 5) and 0.0 <= worst <= 2 * tol, case


# ---------------------------------------------------------------------------
# brute force oracle


def test_bruteforce_hand_values():
    assert bruteforce_choquet([0.0, 1.0, 2.0], PowerDistortion(2.0)) == pytest.approx(
        13.0 / 9.0, rel=1e-14
    )
    assert bruteforce_choquet([1.0, 2.0, 3.0, 4.0], ExpectedShortfall(0.5)) == pytest.approx(
        3.5, rel=1e-15
    )
    assert bruteforce_choquet([7.5], IDENTITY) == 7.5


def test_bruteforce_matches_estimator_on_random_instances():
    rng = np.random.default_rng(101)
    for f in FAMILIES:
        for _ in range(40):
            x = rng.standard_normal(int(rng.integers(1, 8)))
            assert bruteforce_choquet(x, f) == pytest.approx(
                choquet_empirical(x, f), rel=1e-12, abs=1e-12
            )


def test_bruteforce_bound():
    with pytest.raises(ValueError):
        bruteforce_choquet(np.zeros(9), IDENTITY)


def test_bruteforce_is_bitwise_the_tuple_list_form():
    perms = {n: np.asarray(list(itertools.permutations(range(n)))) for n in range(1, 9)}
    rng = np.random.default_rng(404)
    for case in range(240):
        f = RYFF_FAMILIES[case % len(RYFF_FAMILIES)]
        n = int(rng.integers(1, 9))
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        if case % 4 == 0:
            x = np.round(x)  # ties
        assert bruteforce_choquet(x, f) == float(np.max(x[perms[n]] @ f.increments(n))), case


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("f", FAMILIES + [ExpectedShortfall(1.0)], ids=lambda f: f.label())
def test_dict_round_trip(f):
    assert distortion_from_dict(f.to_dict()) == f


@pytest.mark.parametrize(
    "d",
    [
        {},
        {"family": "wang"},
        {"family": "es"},
        {"family": "es", "alpha": 0.1, "beta": 0.2},
        {"family": "power", "knots": []},
        [],
    ],
)
def test_from_dict_rejects_malformed(d):
    with pytest.raises(ValueError):
        distortion_from_dict(d)


@pytest.mark.parametrize(
    "d, key",
    [
        ({"family": "es", "alpha": "0.25"}, "'alpha'"),
        ({"family": "es", "alpha": True}, "'alpha'"),
        ({"family": "power", "gamma": "2"}, "'gamma'"),
        ({"family": "piecewise", "knots": [[0, 0], [1, "1"]]}, r"'knots'\[1\]\[1\]"),
        ({"family": "piecewise", "knots": [[0, False], [1, 1]]}, r"'knots'\[0\]\[1\]"),
        ({"family": "piecewise", "knots": "[[0, 0], [1, 1]]"}, "'knots'"),
    ],
)
def test_from_dict_refuses_booleans_and_strings(d, key):
    with pytest.raises(ValueError, match=key):
        distortion_from_dict(d)


def test_from_dict_accepts_ints_as_numbers():
    assert distortion_from_dict({"family": "power", "gamma": 2}) == PowerDistortion(2.0)
    got = distortion_from_dict({"family": "piecewise", "knots": [[0, 0], [0.5, 0.2], [1, 1]]})
    assert got == KINKED
