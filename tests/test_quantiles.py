import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orlicz_risk import (
    DiscreteUniform,
    PowerYoung,
    QuantileFunction,
    SampleCsvError,
    empirical_from_sample,
    kolmogorov_distance,
    load_sample_csv,
)

finite_samples = arrays(
    np.float64,
    st.integers(1, 30),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


# ---------------------------------------------------------------------------
# construction / rearrangement


def test_from_sample_sorts_and_keeps_duplicates():
    assert empirical_from_sample([3.0, 1.0, 2.0]).values.tolist() == [1.0, 2.0, 3.0]
    assert empirical_from_sample([5.0]).values.tolist() == [5.0]
    assert empirical_from_sample([1.0, 1.0, 0.0]).values.tolist() == [0.0, 1.0, 1.0]


def test_constructor_requires_sorted_values():
    with pytest.raises(ValueError):
        DiscreteUniform(np.array([]))
    with pytest.raises(ValueError):
        DiscreteUniform(np.array([0.0, np.nan]))


@settings(max_examples=100, deadline=None)
@given(x=finite_samples, salt=st.integers(0, 2**31 - 1))
def test_permutation_invariance(x, salt):
    """The empirical distribution only sees the multiset of values."""
    perm = np.random.default_rng(salt).permutation(x.size)
    a = empirical_from_sample(x)
    b = empirical_from_sample(x[perm])
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# cdf / quantile


def test_quantile_strict_inequality_inverse():
    d = empirical_from_sample([1.0, 2.0, 3.0])
    # F(1) = 1/3 is not > 1/3, so the infimum moves to the next atom
    assert d.quantile(1.0 / 3.0) == 2.0
    assert d.quantile(0.0) == 1.0
    assert d.quantile(0.99) == 3.0


def test_quantile_domain_is_half_open():
    d = empirical_from_sample([1.0, 2.0])
    with pytest.raises(ValueError):
        d.quantile(1.0)
    with pytest.raises(ValueError):
        d.quantile(-0.01)


def test_cdf_is_right_continuous_step():
    d = empirical_from_sample([0.0, 0.0, 1.0, 2.0])
    assert d.cdf(-1e-12) == 0.0
    assert d.cdf(0.0) == 0.5
    assert d.cdf(0.5) == 0.5
    assert d.cdf(2.0) == 1.0


@settings(max_examples=100, deadline=None)
@given(x=finite_samples)
def test_quantile_transform_identity(x):
    """Evaluating q at the midpoints (i + 0.5)/n recovers the sample."""
    d = empirical_from_sample(x)
    u = (np.arange(d.n) + 0.5) / d.n
    assert np.array_equal(d.quantile(u), d.values)


@settings(max_examples=100, deadline=None)
@given(x=finite_samples, u=st.floats(0.0, 1.0, exclude_max=True))
def test_galois_inequalities(x, u):
    d = empirical_from_sample(x)
    assert d.cdf(d.quantile(u)) > u
    v = d.values[-1]
    eps = 1.0 / (4 * d.n)
    f = d.cdf(v)
    assert d.quantile(f - eps) <= v


def test_quantile_nondecreasing_in_u():
    rng = np.random.default_rng(19)
    d = empirical_from_sample(rng.standard_normal(17))
    us = np.linspace(0.0, 0.999999, 400)
    assert np.all(np.diff(d.quantile(us)) >= 0.0)


# ---------------------------------------------------------------------------
# psi moments


def test_psi_moment_hand_sums():
    d = empirical_from_sample([1.0, 2.0])
    assert d.psi_moment(PowerYoung(2.0), 1.0) == pytest.approx(1.25, rel=1e-15)
    assert d.psi_moment(PowerYoung(1.0), 2.0) == pytest.approx(3.0, rel=1e-15)
    assert empirical_from_sample([0.0, 0.0, 0.0]).psi_moment(PowerYoung(3.0), 5.0) == 0.0


def test_psi_moment_requires_positive_scale():
    d = empirical_from_sample([1.0])
    with pytest.raises(ValueError):
        d.psi_moment(PowerYoung(2.0), 0.0)


@settings(max_examples=100, deadline=None)
@given(
    x=arrays(np.float64, st.integers(1, 12), elements=st.floats(0.0, 50.0)),
    k1=st.floats(0.1, 5.0),
    k2=st.floats(0.1, 5.0),
)
def test_psi_moment_monotone_in_scale(x, k1, k2):
    d = empirical_from_sample(x)
    lo, hi = sorted((k1, k2))
    assert d.psi_moment(PowerYoung(2.0), lo) <= d.psi_moment(PowerYoung(2.0), hi) + 1e-12


# ---------------------------------------------------------------------------
# kolmogorov distance


def test_kolmogorov_hand_values():
    z = empirical_from_sample([0.0])
    o = empirical_from_sample([1.0])
    zo = empirical_from_sample([0.0, 1.0])
    assert kolmogorov_distance(z, z) == 0.0
    assert kolmogorov_distance(z, o) == 1.0
    assert kolmogorov_distance(zo, z) == 0.5


@settings(max_examples=100, deadline=None)
@given(x=finite_samples, y=finite_samples)
def test_kolmogorov_is_a_metric_sample(x, y):
    a = empirical_from_sample(x)
    b = empirical_from_sample(y)
    d = kolmogorov_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert d == kolmogorov_distance(b, a)
    assert kolmogorov_distance(a, a) == 0.0


# ---------------------------------------------------------------------------
# QuantileFunction wrapper


def test_from_empirical_evaluates_the_step_function():
    d = empirical_from_sample([4.0, 1.0, 9.0])
    q = QuantileFunction.from_empirical(d)
    us = np.array([0.0, 0.4, 0.9])
    assert np.array_equal(q.quantile(us), d.quantile(us))


def test_tail_defaults_to_reflected_argument():
    q = QuantileFunction(lambda u: np.asarray(u) ** 2)
    assert q.tail_quantile(0.25) == pytest.approx(0.75**2, rel=1e-15)


def test_tail_override_keeps_precision_near_one():
    # q(u) = -log(1-u): the reflected form loses all precision at t = 1e-300,
    # the dedicated tail form does not.
    q = QuantileFunction(
        lambda u: -np.log1p(-np.asarray(u, dtype=float)),
        tail_fn=lambda t: -np.log(np.asarray(t, dtype=float)),
    )
    t = 1e-300
    assert float(q.tail_quantile(t)) == pytest.approx(300.0 * np.log(10.0), rel=1e-14)


def test_breakpoints_are_recorded_as_floats():
    q = QuantileFunction(lambda u: u, breakpoints=(0.25, 0.5))
    assert q.quantile_breakpoints() == (0.25, 0.5)


# ---------------------------------------------------------------------------
# CSV ingestion


def test_load_csv_plain_and_header_and_blank_lines(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1.5\n-2\n\n3e-1\n")
    assert load_sample_csv(p).tolist() == [1.5, -2.0, 0.3]
    p.write_text("value\n1.0\n2.0\n")
    assert load_sample_csv(p).tolist() == [1.0, 2.0]


def test_load_csv_utf8_bom(tmp_path):
    p = tmp_path / "b.csv"
    p.write_bytes(b"\xef\xbb\xbf2.5\n1.0\n")
    assert load_sample_csv(p).tolist() == [2.5, 1.0]


def test_load_csv_reports_offending_line(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("1.0\nbogus\n3.0\n")
    with pytest.raises(SampleCsvError, match="line 2"):
        load_sample_csv(p)


@pytest.mark.parametrize("row", ["nan", "NaN", "inf", "-inf", "-Infinity", "1e999", "-1e999"])
@pytest.mark.parametrize("lineno", [1, 3])
def test_load_csv_non_finite_row_names_its_line(tmp_path, row, lineno):
    rows = ["1.0", "2.0", "3.0"]
    rows[lineno - 1] = row
    p = tmp_path / "e.csv"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(SampleCsvError, match=f"non-finite value at line {lineno}: '{row}'"):
        load_sample_csv(p)


def test_load_csv_empty_and_header_only_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(SampleCsvError):
        load_sample_csv(p)
    p.write_text("value\n")
    with pytest.raises(SampleCsvError):
        load_sample_csv(p)


def test_csv_error_is_a_value_error():
    assert issubclass(SampleCsvError, ValueError)
