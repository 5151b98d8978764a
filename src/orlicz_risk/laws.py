"""Parametric sampling laws with closed-form quantile functions.

Each law knows its quantile q(u) on [0, 1), a numerically stable tail form
q(1 - t) and the levels where q may kink; quadrature reads a law only
through this protocol (``quantile``, ``tail_quantile``,
``quantile_breakpoints``). Each law also has an analytic classification of
its Orlicz moments against the Young families: whether mean Psi(k * xi) is
finite for every k > 0 (class ``"m_psi"``), only for some k > 0
(``"l_psi"``), or for no k (``"none"``). The classification is hard-coded
per (law family, growth of Psi) pair:

* power growth |x|^p: finiteness is scale free, so the class is m_psi or none.
* exp growth e^|x|: exponential laws admit k < rate only (l_psi); bounded
  laws are m_psi; polynomial and lognormal tails are never integrable (none).
* x log x growth: finite iff mean |xi| log |xi| is, again scale free.

TabulatedYoung grows quadratically by construction (linear extrapolation of
the final derivative slope), so it classifies like power p = 2.

``law_from_dict`` reads a law's JSON spec, whose form ``_spec`` declares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._spec import ArraySpec, Spec, _shaped, from_spec, spec_label
from .young import ExpMinusYoung, LogPlusYoung, PowerYoung, TabulatedYoung, YoungFunction

__all__ = [
    "DiscreteUniform",
    "Exponential",
    "Lognormal",
    "ParametricLaw",
    "Pareto",
    "Uniform",
    "law_from_dict",
]

M_PSI = "m_psi"
L_PSI = "l_psi"
NOT_IN_L_PSI = "none"


def _growth(yf: YoungFunction) -> tuple[str, float]:
    if isinstance(yf, PowerYoung):
        return ("power", yf.p)
    if isinstance(yf, ExpMinusYoung):
        return ("exp", 0.0)
    if isinstance(yf, LogPlusYoung):
        return ("xlogx", 0.0)
    if isinstance(yf, TabulatedYoung):
        return ("power", 2.0)
    raise TypeError(f"unsupported young function type {type(yf).__name__}")


class ParametricLaw(Spec, kind="law"):
    """Law given by a closed-form quantile function."""

    def quantile(self, u):
        raise NotImplementedError

    def tail_quantile(self, t):
        """q(1 - t), computed from t directly (stable for tiny t)."""
        raise NotImplementedError

    def quantile_breakpoints(self) -> tuple:
        """Interior levels u where integrands built from q may kink."""
        return ()

    def mean(self) -> float:
        raise NotImplementedError

    def mean_is_finite(self) -> bool:
        return math.isfinite(self.mean())

    def psi_moment_finite(self, yf: YoungFunction, k: float) -> bool:
        raise NotImplementedError

    def psi_class(self, yf: YoungFunction) -> str:
        """m_psi / l_psi / none membership of this law for the space of Psi.
        This default tests k = 1, which decides when finiteness is scale free."""
        return M_PSI if self.psi_moment_finite(yf, 1.0) else NOT_IN_L_PSI

    def label(self) -> str:
        return spec_label(self)


def _check_u(u) -> np.ndarray:
    uu = np.asarray(u, dtype=float)
    if np.any(uu < 0.0) or np.any(uu >= 1.0):
        raise ValueError("quantile level must satisfy 0 <= u < 1")
    return uu


@dataclass(frozen=True)
class Uniform(ParametricLaw):
    a: float
    b: float

    family = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError("uniform law needs finite a < b")

    def quantile(self, u):
        uu = _check_u(u)
        out = self.a + (self.b - self.a) * uu
        return _shaped(out, u)

    def tail_quantile(self, t):
        tt = np.asarray(t, dtype=float)
        out = self.b - (self.b - self.a) * tt
        return _shaped(out, t)

    def quantile_breakpoints(self) -> tuple:
        if self.a < 0.0 < self.b:
            return (-self.a / (self.b - self.a),)  # q crosses zero here
        return ()

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def psi_moment_finite(self, yf, k):
        _growth(yf)
        return True


@dataclass(frozen=True)
class Exponential(ParametricLaw):
    rate: float

    family = "exponential"

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError("rate must be positive")

    def quantile(self, u):
        uu = _check_u(u)
        out = -np.log1p(-uu) / self.rate
        return _shaped(out, u)

    def tail_quantile(self, t):
        tt = np.asarray(t, dtype=float)
        out = -np.log(tt) / self.rate
        return _shaped(out, t)

    def mean(self) -> float:
        return 1.0 / self.rate

    def psi_moment_finite(self, yf, k):
        kind, _ = _growth(yf)
        if kind == "exp":
            return k < self.rate
        return True

    def psi_class(self, yf):
        kind, _ = _growth(yf)
        return L_PSI if kind == "exp" else M_PSI


@dataclass(frozen=True)
class Pareto(ParametricLaw):
    """Survival (x/scale)^(-tail) on [scale, inf)."""

    tail: float
    scale: float = 1.0

    family = "pareto"

    def __post_init__(self):
        if not (math.isfinite(self.tail) and self.tail > 0.0):
            raise ValueError("tail index must be positive")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError("scale must be positive")

    def quantile(self, u):
        uu = _check_u(u)
        out = self.scale * (1.0 - uu) ** (-1.0 / self.tail)
        return _shaped(out, u)

    def tail_quantile(self, t):
        tt = np.asarray(t, dtype=float)
        out = self.scale * tt ** (-1.0 / self.tail)
        return _shaped(out, t)

    def mean(self) -> float:
        if self.tail <= 1.0:
            return math.inf
        return self.scale * self.tail / (self.tail - 1.0)

    def psi_moment_finite(self, yf, k):
        kind, p = _growth(yf)
        if kind == "power":
            return p < self.tail
        if kind == "xlogx":
            return self.tail > 1.0
        return False  # exp growth never integrates a polynomial tail


@dataclass(frozen=True)
class Lognormal(ParametricLaw):
    mu: float
    sigma: float

    family = "lognormal"

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("lognormal law needs finite mu and sigma > 0")

    def quantile(self, u):
        # imported on first use: scipy.special would take most of the
        # package's import time, and no other law needs it
        from scipy.special import ndtri

        uu = _check_u(u)
        with np.errstate(divide="ignore"):
            out = np.exp(self.mu + self.sigma * ndtri(uu))
        return _shaped(out, u)

    def tail_quantile(self, t):
        from scipy.special import ndtri

        tt = np.asarray(t, dtype=float)
        out = np.exp(self.mu - self.sigma * ndtri(tt))
        return _shaped(out, t)

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def psi_moment_finite(self, yf, k):
        kind, _ = _growth(yf)
        return kind != "exp"  # no exponential moments of any order


class DiscreteUniform(ArraySpec, ParametricLaw):
    """Equal mass on a list of values, kept sorted with multiplicities.

    This is the sample measure of a draw: ``empirical_from_sample`` builds one,
    and quadrature of a law of this type is the exact finite sum.
    """

    family = "discrete_uniform"
    _name = "discrete uniform"
    _arrays = (("values", "values"),)

    def __init__(self, values):
        vals = np.sort(np.asarray(values, dtype=float))
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a nonempty 1-D array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals.setflags(write=False)
        self.values = vals

    @property
    def n(self) -> int:
        return int(self.values.size)

    def cdf(self, x):
        """F(x) = fraction of values <= x (right-continuous)."""
        out = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right") / self.n
        return _shaped(out, x)

    def quantile(self, u):
        """inf{v : F(v) > u} = values[floor(u n)] for 0 <= u < 1."""
        uu = _check_u(u)
        idx = np.minimum((uu * self.n).astype(np.int64), self.n - 1)
        out = self.values[idx]
        return _shaped(out, u)

    def tail_quantile(self, t):
        tt = np.asarray(t, dtype=float)
        idx = np.clip(((1.0 - tt) * self.n).astype(np.int64), 0, self.n - 1)
        out = self.values[idx]
        return _shaped(out, t)

    def mean(self) -> float:
        return float(np.mean(self.values))

    def mean_is_finite(self) -> bool:
        return True  # finitely many finite atoms, even if np.mean overflows

    def psi_moment(self, yf: YoungFunction, k: float) -> float:
        """Mean of Psi(k * value) under this law."""
        if not k > 0.0:
            raise ValueError("scale k must be positive")
        return float(np.mean(yf.value(k * self.values)))

    def psi_moment_finite(self, yf, k):
        _growth(yf)
        return True

    def label(self) -> str:
        return f"discrete_uniform(n={self.n})"


def law_from_dict(d: dict) -> ParametricLaw:
    """Build a law from its JSON form; unknown keys are rejected."""
    return from_spec(d, "law")
