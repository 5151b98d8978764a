"""Monte Carlo convergence experiments for distortion risk measures.

The harness draws iid samples through the quantile transform with a
counter-based generator (Philox keyed by the seed, so a longer run with the
same seed extends the shorter one sample for sample), estimates the risk
measure on nested prefixes of one stream, and compares against a reference
value obtained by deterministic quadrature of q * f'.

Runs are gated by the analytic hypotheses:

* mode ``"m-psi"`` requires the law to lie in the closure class of Psi
  (mean Psi(k xi) finite for every k > 0);
* mode ``"l-psi-ando"`` requires only some k > 0; the compactness side is
  automatic for distortion scenario sets, whose densities are convexly
  dominated by the bounded f'.

A refusal always corresponds to a genuinely infinite integral (either the
Choquet integral itself or a moment integral mean Psi(k xi) at the witness
scale), which the quadrature divergence flag can cross-check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._spec import _expect_keys, _is_count, _json_number
from .distortion import DistortionFunction, choquet_quadrature, distortion_from_dict
from .laws import (
    L_PSI,
    M_PSI,
    DiscreteUniform,
    Exponential,
    ParametricLaw,
    law_from_dict,
)
from .quadrature import _split_breakpoints, dyadic_unit_integral
from .young import PowerYoung, YoungFunction, young_from_dict

__all__ = [
    "ConvergenceTrace",
    "ExperimentConfig",
    "GateRefusal",
    "check_gate",
    "psi_lln_check",
    "psi_moment_target",
    "reference_value",
    "run_convergence",
    "run_experiment",
    "sample",
    "summarize_traces",
    "write_trace_csv",
]

MODES = ("m-psi", "l-psi-ando")


class GateRefusal(Exception):
    """A run was refused because an analytic hypothesis fails.

    ``reason`` is one of ``"infinite_choquet_integral"``, ``"not_m_psi"``,
    ``"not_l_psi"`` or ``"moment_infinite"``; ``witness_k`` (when set) is a
    scale at which mean Psi(k xi) is genuinely infinite.
    """

    def __init__(self, message: str, *, reason: str, witness_k: float | None = None):
        super().__init__(message)
        self.reason = reason
        self.witness_k = witness_k


def sample(law: ParametricLaw, n: int, seed: int) -> np.ndarray:
    """n quantile-transformed draws from a Philox stream keyed by ``seed``.

    Prefix stable: sample(law, m, seed)[:n] == sample(law, n, seed) for
    m >= n, bit for bit.
    """
    if not _is_count(n):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not _is_count(seed, least=0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    return law.quantile(gen.random(int(n)))


def reference_value(
    law: ParametricLaw,
    f: DistortionFunction,
    *,
    rel_tol: float = 1e-8,
    max_level: int = 200,
) -> float:
    """Choquet integral of the law under f, by quadrature of q * f'.

    Discrete laws reduce to the exact finite sum. Laws without a finite mean
    are refused outright: every distortion here has f' >= 1 near u = 1 (from
    convexity with f(1) = 1), so their Choquet integral is infinite.
    """
    if not law.mean_is_finite():
        raise GateRefusal(
            f"infinite Choquet integral: {law.label()} has no finite mean and "
            "the distortion density is bounded away from zero near u = 1",
            reason="infinite_choquet_integral",
        )
    return choquet_quadrature(law, f, rel_tol=rel_tol, max_level=max_level)


def psi_moment_target(
    law: ParametricLaw,
    yf: YoungFunction,
    k: float,
    *,
    rel_tol: float = 1e-8,
    max_level: int = 200,
) -> float:
    """mean Psi(k xi) under the law, by quadrature of Psi(k q(u))."""
    if not k > 0.0:
        raise ValueError("scale k must be positive")
    if isinstance(law, DiscreteUniform):
        return law.psi_moment(yf, k)
    left_breaks, tail_breaks = _split_breakpoints(law.quantile_breakpoints())

    def left(u):
        return yf.value(k * np.asarray(law.quantile(u), dtype=float))

    def tail(t):
        return yf.value(k * np.asarray(law.tail_quantile(t), dtype=float))

    return dyadic_unit_integral(
        left,
        tail,
        rel_tol=rel_tol,
        left_breakpoints=left_breaks,
        tail_breakpoints=tail_breaks,
        max_level=max_level,
    )


def check_gate(
    law: ParametricLaw, f: DistortionFunction, young: YoungFunction, mode: str
) -> None:
    """Raise ``GateRefusal`` unless the hypotheses for ``mode`` hold."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not law.mean_is_finite():
        raise GateRefusal(
            f"infinite Choquet integral: {law.label()} has no finite mean",
            reason="infinite_choquet_integral",
        )
    cls = law.psi_class(young)
    witness = law.rate if isinstance(law, Exponential) else 1.0
    if mode == "m-psi" and cls != M_PSI:
        raise GateRefusal(
            f"{law.label()} fails the every-scale moment condition for "
            f"{young.family}: mean Psi(k xi) is infinite at k = {witness:g}",
            reason="not_m_psi",
            witness_k=witness,
        )
    if mode == "l-psi-ando" and cls not in (M_PSI, L_PSI):
        raise GateRefusal(
            f"{law.label()} has no scale k > 0 with finite mean Psi(k xi) for "
            f"{young.family}",
            reason="not_l_psi",
            witness_k=witness,
        )


@dataclass(frozen=True)
class ConvergenceTrace:
    """One seed's estimates along a nested sample-size schedule."""

    schedule: tuple[int, ...]
    estimates: tuple[float, ...]
    reference: float
    abs_errors: tuple[float, ...]
    seed: int
    law: str
    functional: str
    mode: str


def _integer_entries(values, key: str) -> tuple[int, ...]:
    """Entries as ints; booleans and non-integral numbers are refused."""
    out = []
    for i, v in enumerate(values):
        integral = isinstance(v, (int, np.integer)) or (
            isinstance(v, (float, np.floating)) and float(v).is_integer()
        )
        if isinstance(v, bool) or not integral:
            raise ValueError(f"{key} entry {v!r} at index {i} is not an integer")
        out.append(int(v))
    return tuple(out)


def _check_schedule(schedule) -> tuple[int, ...]:
    sched = _integer_entries(schedule, "schedule")
    if len(sched) == 0 or sched[0] < 1 or any(b <= a for a, b in zip(sched, sched[1:])):
        raise ValueError("schedule must be strictly increasing positive integers")
    return sched


def run_convergence(
    law: ParametricLaw,
    f: DistortionFunction,
    schedule,
    seed: int,
    *,
    mode: str = "m-psi",
    young: YoungFunction | None = None,
    rel_tol: float = 1e-8,
) -> ConvergenceTrace:
    """Estimate the Choquet risk on nested prefixes of one sample stream, the
    setting of the almost-sure statement."""
    young = PowerYoung(2.0) if young is None else young
    sched = _check_schedule(schedule)
    check_gate(law, f, young, mode)
    ref = reference_value(law, f, rel_tol=rel_tol)
    draws = sample(law, sched[-1], seed)
    estimates = [float(np.dot(np.sort(draws[:N]), f.increments(N))) for N in sched]
    errors = tuple(abs(e - ref) for e in estimates)
    return ConvergenceTrace(
        schedule=sched,
        estimates=tuple(estimates),
        reference=ref,
        abs_errors=errors,
        seed=int(seed),
        law=law.label(),
        functional=f.label(),
        mode=mode,
    )


def psi_lln_check(
    law: ParametricLaw,
    yf: YoungFunction,
    k: float,
    schedule,
    seed: int,
    *,
    rel_tol: float = 1e-8,
) -> ConvergenceTrace:
    """Running averages of Psi(k xi_i) against the analytic moment target."""
    sched = _check_schedule(schedule)
    if not law.psi_moment_finite(yf, k):
        raise GateRefusal(
            f"mean Psi(k xi) is infinite for {law.label()} with {yf.family} at k = {k:g}",
            reason="moment_infinite",
            witness_k=float(k),
        )
    target = psi_moment_target(law, yf, k, rel_tol=rel_tol)
    draws = sample(law, sched[-1], seed)
    cums = np.cumsum(yf.value(k * draws))
    estimates = tuple(float(cums[N - 1] / N) for N in sched)
    return ConvergenceTrace(
        schedule=sched,
        estimates=estimates,
        reference=target,
        abs_errors=tuple(abs(e - target) for e in estimates),
        seed=int(seed),
        law=law.label(),
        functional=f"psi_moment({yf.family},k={k:g})",
        mode="psi-lln",
    )


@dataclass(frozen=True)
class ExperimentConfig:
    law: ParametricLaw
    distortion: DistortionFunction
    schedule: tuple[int, ...]
    seeds: tuple[int, ...]
    mode: str
    young: YoungFunction = field(default_factory=lambda: PowerYoung(2.0))
    tolerance: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "schedule", _check_schedule(self.schedule))
        seeds = _integer_entries(self.seeds, "seeds")
        if len(seeds) == 0 or any(s < 0 for s in seeds) or len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be distinct nonnegative integers")
        object.__setattr__(self, "seeds", seeds)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        tolerance = _json_number(self.tolerance, "tolerance")
        if not (0.0 < tolerance < 1.0):
            raise ValueError("tolerance must lie in (0, 1)")
        object.__setattr__(self, "tolerance", tolerance)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError("experiment config must be a JSON object")
        required = {"law", "distortion", "schedule", "seeds", "mode"}
        _expect_keys(d, required, "experiment config", optional={"young", "tolerance"})
        young = young_from_dict(d["young"]) if "young" in d else PowerYoung(2.0)
        return cls(
            law=law_from_dict(d["law"]),
            distortion=distortion_from_dict(d["distortion"]),
            schedule=tuple(d["schedule"]),
            seeds=tuple(d["seeds"]),
            mode=str(d["mode"]),
            young=young,
            tolerance=d.get("tolerance", 1e-8),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def run_experiment(config: ExperimentConfig) -> list[ConvergenceTrace]:
    """One trace per configured seed. Seeds are independent Philox streams,
    so the traces do not depend on evaluation order."""
    return [
        run_convergence(
            config.law,
            config.distortion,
            config.schedule,
            seed,
            mode=config.mode,
            young=config.young,
            rel_tol=config.tolerance,
        )
        for seed in config.seeds
    ]


def summarize_traces(traces: list[ConvergenceTrace]) -> dict:
    """Cross-seed summary of the final-N errors."""
    if not traces:
        raise ValueError("need at least one trace")
    ref = traces[0].reference
    finals = np.asarray([t.abs_errors[-1] for t in traces])
    summary = {
        "law": traces[0].law,
        "functional": traces[0].functional,
        "mode": traces[0].mode,
        "schedule": list(traces[0].schedule),
        "seeds": [t.seed for t in traces],
        "reference": ref,
        "final_abs_errors": [float(e) for e in finals],
        "median_final_abs_error": float(np.median(finals)),
        "max_final_abs_error": float(np.max(finals)),
    }
    if ref != 0.0:
        summary["median_final_rel_error"] = float(np.median(finals / abs(ref)))
        summary["max_final_rel_error"] = float(np.max(finals / abs(ref)))
    return summary


def write_trace_csv(trace: ConvergenceTrace, path) -> None:
    """Write the trace as CSV with 17-significant-digit values."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("N,estimate,reference,abs_error,seed\n")
        for N, est, err in zip(trace.schedule, trace.estimates, trace.abs_errors):
            fh.write(
                f"{N},{est:.17g},{trace.reference:.17g},{err:.17g},{trace.seed}\n"
            )
