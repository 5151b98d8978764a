import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from orlicz_risk import (
    DiscreteUniform,
    ExpMinusYoung,
    Exponential,
    LogPlusYoung,
    Lognormal,
    Pareto,
    PowerYoung,
    TabulatedYoung,
    Uniform,
    law_from_dict,
)
from orlicz_risk.laws import L_PSI, M_PSI, NOT_IN_L_PSI

US = np.array([0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999])


def scipy_pairs():
    return [
        (Uniform(-2.0, 5.0), stats.uniform(loc=-2.0, scale=7.0)),
        (Exponential(1.0), stats.expon()),
        (Exponential(2.5), stats.expon(scale=0.4)),
        (Pareto(3.0), stats.pareto(b=3.0)),
        (Pareto(1.5, scale=2.0), stats.pareto(b=1.5, scale=2.0)),
        (Lognormal(0.0, 1.0), stats.lognorm(s=1.0)),
        (Lognormal(0.3, 0.5), stats.lognorm(s=0.5, scale=math.exp(0.3))),
    ]


# ---------------------------------------------------------------------------
# quantiles against reference implementations


@pytest.mark.parametrize("law,ref", scipy_pairs(), ids=lambda x: getattr(x, "label", x.dist.name if hasattr(x, "dist") else repr(x))() if callable(getattr(x, "label", None)) else "ref")
def test_quantile_matches_scipy_ppf(law, ref):
    assert np.allclose(law.quantile(US), ref.ppf(US), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("law,ref", scipy_pairs(), ids=lambda x: getattr(x, "label", x.dist.name if hasattr(x, "dist") else repr(x))() if callable(getattr(x, "label", None)) else "ref")
def test_tail_quantile_matches_scipy_isf(law, ref):
    ts = np.array([1e-9, 1e-6, 1e-3, 0.05, 0.4])
    assert np.allclose(law.tail_quantile(ts), ref.isf(ts), rtol=1e-9)


def test_tail_form_keeps_precision_where_reflection_cannot():
    t = 1e-300
    assert Exponential(1.0).tail_quantile(t) == pytest.approx(300 * math.log(10.0), rel=1e-14)
    assert Pareto(3.0).tail_quantile(t) == pytest.approx(1e100, rel=1e-12)


def test_quantile_domain_checks():
    for law in [Uniform(0.0, 1.0), Exponential(1.0), Pareto(2.0), Lognormal(0.0, 1.0)]:
        with pytest.raises(ValueError):
            law.quantile(1.0)
        with pytest.raises(ValueError):
            law.quantile(-0.1)


@pytest.mark.parametrize(
    "law",
    [Uniform(-1.0, 3.0), Exponential(0.7), Pareto(2.2), Lognormal(0.1, 0.8), DiscreteUniform([3.0, 1.0, 1.0])],
    ids=lambda l: l.label(),
)
def test_quantile_nondecreasing(law):
    us = np.linspace(0.0, 0.9999, 500)
    assert np.all(np.diff(law.quantile(us)) >= 0.0)


def test_discrete_uniform_step_quantile():
    law = DiscreteUniform([1.0, 2.0, 3.0])
    assert law.quantile(0.0) == 1.0
    assert law.quantile(1.0 / 3.0) == 2.0
    assert law.quantile(0.99) == 3.0
    assert law.tail_quantile(0.2) == 3.0
    assert DiscreteUniform([7.0]).quantile(0.5) == 7.0


def test_uniform_zero_crossing_breakpoint():
    assert Uniform(-1.0, 2.0).quantile_breakpoints() == pytest.approx((1.0 / 3.0,))
    assert Uniform(1.0, 2.0).quantile_breakpoints() == ()
    assert Exponential(1.0).quantile_breakpoints() == ()


# ---------------------------------------------------------------------------
# means


def test_mean_hand_values():
    assert Uniform(-2.0, 5.0).mean() == 1.5
    assert Exponential(4.0).mean() == 0.25
    assert Pareto(3.0).mean() == 1.5
    assert Pareto(2.0, scale=3.0).mean() == 6.0
    assert Lognormal(0.0, 1.0).mean() == pytest.approx(math.exp(0.5), rel=1e-15)
    assert DiscreteUniform([1.0, 2.0, 6.0]).mean() == 3.0


def test_heavy_tail_without_mean():
    assert math.isinf(Pareto(0.8).mean())
    assert math.isinf(Pareto(1.0).mean())
    assert not Pareto(1.0).mean_is_finite()
    assert Pareto(1.01).mean_is_finite()


# ---------------------------------------------------------------------------
# moment classification


P2, P3, P4 = PowerYoung(2.0), PowerYoung(3.0), PowerYoung(4.0)
EM, LP = ExpMinusYoung(), LogPlusYoung()
TAB = TabulatedYoung([1.0, 2.0], [2.0, 4.0])


@pytest.mark.parametrize(
    "law,yf,expected",
    [
        (Uniform(0.0, 1.0), P2, M_PSI),
        (Uniform(0.0, 1.0), EM, M_PSI),
        (Exponential(1.0), P2, M_PSI),
        (Exponential(1.0), P4, M_PSI),
        (Exponential(1.0), EM, L_PSI),
        (Exponential(1.0), LP, M_PSI),
        (Pareto(3.0), P2, M_PSI),
        (Pareto(3.0), P3, NOT_IN_L_PSI),
        (Pareto(3.0), P4, NOT_IN_L_PSI),
        (Pareto(3.0), EM, NOT_IN_L_PSI),
        (Pareto(3.0), LP, M_PSI),
        (Pareto(0.9), LP, NOT_IN_L_PSI),
        (Pareto(3.0), TAB, M_PSI),
        (Pareto(1.5), TAB, NOT_IN_L_PSI),
        (Lognormal(0.0, 1.0), P4, M_PSI),
        (Lognormal(0.0, 1.0), EM, NOT_IN_L_PSI),
        (DiscreteUniform([0.0, 5.0]), EM, M_PSI),
    ],
)
def test_psi_class_matrix(law, yf, expected):
    assert law.psi_class(yf) == expected


def test_exponential_single_scale_frontier():
    """exp growth integrates against an exponential tail only below the rate."""
    law = Exponential(2.0)
    assert law.psi_moment_finite(EM, 1.0)
    assert law.psi_moment_finite(EM, 1.999)
    assert not law.psi_moment_finite(EM, 2.0)
    assert not law.psi_moment_finite(EM, 5.0)
    assert law.psi_class(EM) == L_PSI


def test_classification_cross_checked_by_quadrature():
    """The analytic flags agree with the integration route: the finite side
    reproduces the closed-form moment, the infinite side fails to stabilize."""
    from orlicz_risk import psi_moment_target
    from orlicz_risk.quadrature import QuadratureDivergenceError

    law = Pareto(3.0)
    # E[X**2 / 2] = tail / (2 (tail - 2)) = 1.5 for tail 3, scale 1
    assert law.psi_moment_finite(PowerYoung(2.0), 1.0)
    assert psi_moment_target(law, PowerYoung(2.0), 1.0) == pytest.approx(1.5, rel=1e-8)
    assert not law.psi_moment_finite(PowerYoung(4.0), 1.0)
    with pytest.raises(QuadratureDivergenceError):
        psi_moment_target(law, PowerYoung(4.0), 1.0)
    # single-scale frontier of the exponential law, both routes
    exp_law = Exponential(1.0)
    assert psi_moment_target(exp_law, ExpMinusYoung(), 0.5) > 0.0
    with pytest.raises(QuadratureDivergenceError):
        psi_moment_target(exp_law, ExpMinusYoung(), 1.5)


# ---------------------------------------------------------------------------
# validation and serialization


def test_parameter_validation():
    with pytest.raises(ValueError):
        Uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Pareto(-1.0)
    with pytest.raises(ValueError):
        Pareto(2.0, scale=0.0)
    with pytest.raises(ValueError):
        Lognormal(0.0, 0.0)
    with pytest.raises(ValueError):
        DiscreteUniform([])


@pytest.mark.parametrize(
    "law",
    [
        Uniform(-1.0, 4.0),
        Exponential(0.25),
        Pareto(2.5, scale=1.5),
        Lognormal(0.1, 0.9),
        DiscreteUniform([2.0, -1.0, 2.0]),
    ],
    ids=lambda l: l.label(),
)
def test_dict_round_trip(law):
    assert law_from_dict(law.to_dict()) == law


@pytest.mark.parametrize(
    "d",
    [
        {},
        {"family": "gamma"},
        {"family": "uniform", "a": 0.0},
        {"family": "pareto", "tail": 2.0},
        {"family": "exponential", "rate": 1.0, "loc": 0.0},
        7,
    ],
)
def test_from_dict_rejects_malformed(d):
    with pytest.raises(ValueError):
        law_from_dict(d)


def test_labels_are_compact_and_parameterized():
    assert Exponential(1.0).label() == "exponential(rate=1)"
    assert Pareto(3.0).label() == "pareto(tail=3,scale=1)"


def test_package_import_leaves_scipy_special_unloaded():
    import orlicz_risk

    code = "import sys, orlicz_risk.cli; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(orlicz_risk.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_lognormal_quantiles_use_ndtri_bitwise():
    from scipy.special import ndtri

    law = Lognormal(0.3, 1.7)
    u = np.concatenate((US, [0.0, 1e-300, 0.5 - 1e-17]))
    t = np.concatenate((1.0 - US, [1e-300, 1e-17]))
    assert np.array_equal(law.quantile(u), np.exp(0.3 + 1.7 * ndtri(u)))
    assert np.array_equal(law.tail_quantile(t), np.exp(0.3 - 1.7 * ndtri(t)))
