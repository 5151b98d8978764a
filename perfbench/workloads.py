"""The three benchmark workloads: seeded inputs, a fixed op cycle, and checks.

Every workload is a list of ops run in a fixed order, one cycle after
another. An op is a zero-argument callable that calls into the program
through module attributes looked up at call time, so that the traced run can
replace those attributes with timing wrappers.

The checks are built apart from the program: closed forms, numpy and scipy
recomputations from the same inputs, and independent majorization tests.
They run on the outputs of one whole cycle; every later cycle must reproduce
those outputs bit for bit (see ``fingerprint``).
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("converge", "reference", "duality")

# Ops that fail on every run because of a known program fault, by workload:
# label -> exception class name. Counted as failed, never as wrong.
KNOWN_FAULTS = {
    "reference": {
        f"reference_value pareto(tail={a:g}) {d}": "QuadratureDivergenceError"
        for a in (1.05, 1.1)
        for d in ("es", "power2")
    },
}


@dataclasses.dataclass
class Workload:
    name: str
    labels: list
    calls: list
    check: object  # callable(outputs) -> list of problem strings


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """Inputs and op cycle of workload ``name``; the same seed gives the same inputs."""
    return {"converge": _converge, "reference": _reference, "duality": _duality}[name](
        seed, out_dir
    )


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag])))


def fingerprint(value):
    """Exact, hashable summary of an op output (bit patterns, not rounded)."""
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return ("array", arr.shape, arr.dtype.str, hashlib.blake2b(arr).hexdigest())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return repr(value)


# ---------------------------------------------------------------------------
# independent reference maths

def _es(alpha):
    return lambda t: np.clip((np.asarray(t, dtype=float) - (1.0 - alpha)) / alpha, 0.0, 1.0)


def _pow(gamma):
    return lambda t: np.asarray(t, dtype=float) ** gamma


def _weights(f, n: int) -> np.ndarray:
    vals = f(np.arange(n + 1) / n)
    vals[-1] = 1.0
    return np.diff(vals)


def _young_phi(family: str, p: float = 0.0):
    """Phi of a Young family, written out from its definition."""
    if family == "power":
        return lambda x: np.abs(x) ** p / p
    if family == "exp_minus":
        return lambda x: np.expm1(np.abs(x)) - np.abs(x)
    return lambda x: (1.0 + np.abs(x)) * np.log1p(np.abs(x)) - np.abs(x)


def _majorizes(h, f, tol=1e-12) -> bool:
    """h in the core of f: mean 1 and the k smallest atoms carry mass >= f(k/n)."""
    h = np.asarray(h, dtype=float)
    n = h.shape[-1]
    prefix = np.cumsum(np.sort(h, axis=-1), axis=-1) / n
    fk = f(np.arange(1, n + 1) / n)
    fk[-1] = 1.0
    return bool(
        np.all(np.abs(h.mean(axis=-1) - 1.0) <= tol) and np.all(prefix >= fk - tol)
    )


def _close(a, b, rel, what, problems):
    if not abs(a - b) <= rel * max(abs(a), abs(b)):
        problems.append(f"{what}: {a!r} vs {b!r} (rel tol {rel:g})")


# ---------------------------------------------------------------------------
# converge

CONVERGE_SCHEDULE = (10**3, 10**4, 10**5, 10**6)


def _converge(seed: int, out_dir: Path) -> Workload:
    from orlicz_risk import distortion, harness, laws

    # (name, law, distortion, mode, reference, independent estimator, error cap)
    configs = [
        ("exp_es5", laws.Exponential(1.0), distortion.ExpectedShortfall(0.05), "m-psi",
         1.0 - math.log(0.05), _top_mean(0.05), 5e-3),
        ("pareto3_pow2", laws.Pareto(3.0), distortion.PowerDistortion(2.0), "l-psi-ando",
         1.8, _power2_lstat, 2e-2),
    ]
    # --seed picks a block of 11 stream seeds; seed 0 gives the acceptance seeds 0-10
    streams = [11 * seed + k for k in range(11)]
    out_dir.mkdir(parents=True, exist_ok=True)
    labels, calls, meta = [], [], []
    for s in streams:
        for name, law, f, mode, *_ in configs:
            path = out_dir / f"trace_{name}_seed{s}.csv"
            labels.append(f"converge {name} seed{s}")
            calls.append(_converge_op(harness, law, f, mode, s, path))
            meta.append((name, s, path))

    def check(outputs):
        problems = []
        for cfg in configs:
            name, law, _, _, ref, estimator, cap = cfg
            finals = []
            for (cname, s, path), (trace, exc) in zip(meta, outputs):
                if cname != name or exc is not None:
                    continue
                what = f"converge {name} seed{s}"
                _close(trace.reference, ref, 1e-8, f"{what} reference", problems)
                draws = _draws(law, s, CONVERGE_SCHEDULE[-1])
                for N, est in zip(CONVERGE_SCHEDULE, trace.estimates):
                    _close(est, estimator(draws[:N]), 1e-12, f"{what} estimate N={N}", problems)
                if tuple(trace.schedule) != CONVERGE_SCHEDULE:
                    problems.append(f"{what}: schedule {trace.schedule}")
                short = harness.sample(law, 10**5, s)
                if not np.array_equal(short, harness.sample(law, 10**6, s)[: 10**5]):
                    problems.append(f"{what}: sample is not prefix stable")
                if _read_trace_csv(path) != [
                    (N, e, trace.reference, a, s)
                    for N, e, a in zip(trace.schedule, trace.estimates, trace.abs_errors)
                ]:
                    problems.append(f"{what}: trace CSV does not read back to the trace")
                finals.append(abs(trace.estimates[-1] - ref) / ref)
            if finals and not float(np.median(finals)) < cap:
                problems.append(
                    f"converge {name}: median final rel error {np.median(finals):.3e} >= {cap:g}"
                )
        return problems

    return Workload("converge", labels, calls, check)


def _converge_op(harness, law, f, mode, s, path):
    def op():
        trace = harness.run_convergence(law, f, CONVERGE_SCHEDULE, s, mode=mode)
        harness.write_trace_csv(trace, path)
        return trace

    return op


def _draws(law, seed: int, n: int) -> np.ndarray:
    u = np.random.Generator(np.random.Philox(key=seed)).random(n)
    if law.family == "exponential":
        return -np.log1p(-u) / law.rate
    return law.scale * (1.0 - u) ** (-1.0 / law.tail)


def _top_mean(alpha):
    def est(x):
        k = round(alpha * x.size)
        return float(np.mean(np.partition(x, x.size - k)[x.size - k:]))

    return est


def _power2_lstat(x):
    n = x.size
    k = np.arange(1, n + 1, dtype=float)
    return float(np.dot(np.sort(x), (2.0 * k - 1.0) / (float(n) * n)))


def _read_trace_csv(path):
    rows = Path(path).read_text(encoding="utf-8").splitlines()
    if rows[0] != "N,estimate,reference,abs_error,seed":
        return None
    out = []
    for row in rows[1:]:
        N, est, ref, err, s = row.split(",")
        out.append((int(N), float(est), float(ref), float(err), int(s)))
    return out


# ---------------------------------------------------------------------------
# reference

def _reference(seed: int, out_dir: Path) -> Workload:
    from orlicz_risk import distortion, harness, laws, young

    # A seeded scale per law moves every value while keeping the quadrature's
    # work the same (the stopping rule is relative).
    c = np.exp(_rng(seed, 2).uniform(math.log(0.8), math.log(1.25), size=8))
    specs = [
        ("uniform", laws.Uniform(0.0, c[0]), {"scale": c[0]}),
        ("exponential", laws.Exponential(1.0 / c[1]), {"scale": c[1]}),
        ("pareto(tail=3)", laws.Pareto(3.0, c[2]), {"scale": c[2], "a": 3.0}),
        ("pareto(tail=1.5)", laws.Pareto(1.5, c[3]), {"scale": c[3], "a": 1.5}),
        ("pareto(tail=1.2)", laws.Pareto(1.2, c[4]), {"scale": c[4], "a": 1.2}),
        ("lognormal(sigma=1)", laws.Lognormal(math.log(c[5]), 1.0), {"scale": c[5], "s": 1.0}),
        ("lognormal(sigma=2)", laws.Lognormal(math.log(c[6]), 2.0), {"scale": c[6], "s": 2.0}),
        ("lognormal(sigma=4)", laws.Lognormal(math.log(c[7]), 4.0), {"scale": c[7], "s": 4.0}),
    ]
    # The known fault: finite targets the quadrature refuses. Fixed inputs.
    specs_fault = [
        (f"pareto(tail={a:g})", laws.Pareto(a, 1.0), {"scale": 1.0, "a": a}) for a in (1.05, 1.1)
    ]
    es, pow2 = distortion.ExpectedShortfall(0.05), distortion.PowerDistortion(2.0)
    labels, calls, cases = [], [], []
    for name, law, par in specs + specs_fault:
        for dname, f in (("es", es), ("power2", pow2)):
            labels.append(f"reference_value {name} {dname}")
            calls.append(lambda law=law, f=f: harness.reference_value(law, f, rel_tol=1e-8))
            cases.append((name, par, dname, 1e-8))
    psi_laws = [s for s in specs if s[0] not in ("pareto(tail=1.5)", "pareto(tail=1.2)",
                                                 "lognormal(sigma=4)")]
    for yname, yf, chosen in (("psi_power2", young.PowerYoung(2.0), psi_laws),
                              ("psi_log_plus", young.LogPlusYoung(), specs)):
        for name, law, par in chosen:
            labels.append(f"psi_moment_target {name} {yname[4:]}")
            calls.append(lambda law=law, yf=yf: harness.psi_moment_target(law, yf, 1.0, rel_tol=1e-8))
            cases.append((name, par, yname, 1e-8))

    def check(outputs):
        problems = []
        for label, (name, par, what, rel_tol), (value, exc) in zip(labels, cases, outputs):
            if exc is not None:
                continue
            closed = _closed_form(name.split("(")[0], par, what)
            if closed is not None:
                _close(value, closed, rel_tol, f"{label} closed form", problems)
            quad = _quad_value(name.split("(")[0], par, what)
            if quad is not None:
                _close(value, quad, 1e-6, f"{label} scipy quad", problems)
        return problems

    return Workload("reference", labels, calls, check)


def _phi_std(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _closed_form(family, par, what):
    """Population value in closed form, or None where there is none."""
    if what == "psi_log_plus":
        return None
    c, alpha = par["scale"], 0.05
    if family == "uniform":
        es, pw, m2 = c * (1 - alpha / 2), 2 * c / 3, c * c / 3
    elif family == "exponential":
        es, pw, m2 = (1 - math.log(alpha)) * c, 1.5 * c, 2 * c * c
    elif family == "pareto":
        a = par["a"]
        es = c * alpha ** (-1 / a) * a / (a - 1)
        pw = 2 * a * a * c / ((a - 1) * (2 * a - 1))
        m2 = a * c * c / (a - 2) if a > 2 else math.inf
    else:
        from statistics import NormalDist

        s = par["s"]
        mean = c * math.exp(s * s / 2)
        es = mean * _phi_std(s - NormalDist().inv_cdf(1 - alpha)) / alpha
        pw = 2 * mean * _phi_std(s / math.sqrt(2))
        m2 = c * c * math.exp(2 * s * s)
    return {"es": es, "power2": pw, "psi_power2": m2 / 2}[what]


def _survival(family, par):
    """Survival function S(x) = P(X > x) of the law and its kinks."""
    c = par["scale"]
    if family == "uniform":
        return lambda x: max(0.0, 1.0 - x / c), [c]
    if family == "exponential":
        return lambda x: math.exp(-x / c), []
    if family == "pareto":
        return lambda x: 1.0 if x <= c else (x / c) ** -par["a"], [c]
    s = par["s"]
    return lambda x: 1.0 if x <= 0 else 0.5 * math.erfc(math.log(x / c) / (s * math.sqrt(2.0))), []


def _var(family, par, alpha):
    c = par["scale"]
    if family == "uniform":
        return c * (1 - alpha)
    if family == "exponential":
        return -math.log(alpha) * c
    if family == "pareto":
        return c * alpha ** (-1 / par["a"])
    from statistics import NormalDist

    return c * math.exp(par["s"] * NormalDist().inv_cdf(1 - alpha))


def _quad_value(family, par, what):
    """The same population value as an integral of the survival function S.

    ES = VaR + E(X - VaR)+ / alpha; E max(X1, X2) = int S (2 - S); the psi
    moments are int Phi'(x) S(x) dx. Integrated in y = log x by QUADPACK.
    """
    if family == "pareto" and par["a"] < 1.15:
        return None  # a tail this slow is beyond QUADPACK's extrapolation
    from scipy.integrate import quad

    S, kinks = _survival(family, par)
    lo = 0.0
    if what == "es":
        lo = _var(family, par, 0.05)
        g = lambda x: S(x) / 0.05  # noqa: E731
    elif what == "power2":
        g = lambda x: S(x) * (2.0 - S(x))  # noqa: E731
    elif what == "psi_power2":
        g = lambda x: x * S(x)  # noqa: E731
    else:
        g = lambda x: math.log1p(x) * S(x)  # noqa: E731

    def h(y):
        return 0.0 if y > 700.0 else g(math.exp(y)) * math.exp(y)

    start = math.log(lo) if lo > 0 else -math.inf
    edges = [start] + sorted(y for y in {0.0, *map(math.log, kinks)} if y > start) + [math.inf]
    return lo + sum(
        quad(h, a, b, epsabs=0.0, epsrel=1e-10, limit=400)[0] for a, b in zip(edges, edges[1:])
    )


# ---------------------------------------------------------------------------
# duality

DUALITY_ATOMS = 10**5


def _duality(seed: int, out_dir: Path) -> Workload:
    from orlicz_risk import distortion, orlicz, young

    rng = _rng(seed, 3)
    xe = rng.exponential(size=DUALITY_ATOMS)
    xl = np.exp(rng.standard_normal(DUALITY_ATOMS))
    families = [
        ("power2", young.PowerYoung(2.0), ("power", 2.0), ("power", 2.0)),
        ("power3", young.PowerYoung(3.0), ("power", 3.0), ("power", 1.5)),
        ("exp_minus", young.ExpMinusYoung(), ("exp_minus", 0.0), ("log_plus", 0.0)),
        ("log_plus", young.LogPlusYoung(), ("log_plus", 0.0), ("exp_minus", 0.0)),
    ]
    es, pow2 = distortion.ExpectedShortfall(0.25), distortion.PowerDistortion(2.0)
    dists = (("es25", es, _es(0.25)), ("power2", pow2, _pow(2.0)))
    ryff_n, core_n = 8, 20
    # ando_profile input: the 8! distinct rearrangements of 8 * power increments
    base = ryff_n * _weights(_pow(2.0), ryff_n)
    densities = np.array(list(itertools.permutations(base.tolist())))
    core_cases = []
    for dname, f, fi in dists:
        ext = core_n * _weights(fi, core_n)
        perm = rng.permutation(core_n)
        t, s = rng.uniform(0.1, 0.9), rng.uniform(1.05, 1.5)
        core_cases.append((dname, f, fi, "member", (1 - t) * ext[perm] + t))
        core_cases.append((dname, f, fi, "spread", 1.0 + s * (ext[perm] - 1.0)))
    brute_xi = rng.standard_normal(ryff_n)

    labels, calls, kinds = [], [], []

    def add(label, call, kind):
        labels.append(label)
        calls.append(call)
        kinds.append(kind)

    for fname, yf, fam, _ in families:
        for xname, x in (("exponential", xe), ("lognormal", xl)):
            add(f"luxemburg_norm {xname} {fname}",
                lambda x=x, yf=yf: orlicz.luxemburg_norm(x, yf), ("norm", x, fam, fname, xname))
    for fname, yf, fam, cfam in families:
        add(f"pairing {fname}", lambda yf=yf: orlicz.pairing(xe, xl, yf), ("pair", fam, cfam, fname))
    for dname, f, fi in dists:
        add(f"ryff_scenarios n={ryff_n} {dname}",
            lambda f=f: distortion.ryff_scenarios(f, ryff_n), ("ryff", fi))
    for fname, yf, fam, _ in families[0:3:2]:
        add(f"ando_profile power2 densities {fname}",
            lambda yf=yf: orlicz.ando_profile(densities, yf), ("ando", fam))
    for dname, f, fi, kind, h in core_cases:
        add(f"core_membership n={core_n} {dname} {kind}",
            lambda h=h, f=f: distortion.core_membership(h, f), ("core", h, fi, kind))
    for dname, f, fi in dists:
        add(f"bruteforce_choquet n={ryff_n} {dname}",
            lambda f=f: distortion.bruteforce_choquet(brute_xi, f), ("brute", fi))

    def check(outputs):
        problems = []
        norms = {}
        for label, kind, (value, exc) in zip(labels, kinds, outputs):
            if exc is None and kind[0] == "norm":
                norms[(kind[4], kind[3])] = value
        for label, kind, (value, exc) in zip(labels, kinds, outputs):
            if exc is not None:
                continue
            if kind[0] == "norm":
                _check_norm(label, value, kind[1], kind[2], problems)
            elif kind[0] == "pair":
                _check_pairing(label, value, xe, xl, kind, norms, problems)
            elif kind[0] == "ryff":
                _check_ryff(label, value.densities, kind[1], ryff_n, problems)
            elif kind[0] == "ando":
                _check_ando(label, value, densities, kind[1], problems)
            elif kind[0] == "core":
                expected = _majorizes(kind[1], kind[2])
                if value is not expected or expected is not (kind[3] == "member"):
                    problems.append(f"{label}: {value!r}, independent check says {expected!r}")
            elif kind[0] == "brute":
                lstat = float(np.dot(np.sort(brute_xi), _weights(kind[1], ryff_n)))
                if not abs(value - lstat) <= 1e-12 * max(1.0, float(np.abs(brute_xi).sum())):
                    problems.append(f"{label}: {value!r} vs sorted L-statistic {lstat!r}")
        return problems

    return Workload("duality", labels, calls, check)


_NORM_TOL = 1e-10  # luxemburg_norm's default tolerance, used by every duality op


def _norm_closed(x, p):
    """Luxemburg norm for Phi = |x|^p / p: (mean |x|^p / p)^(1/p)."""
    return float(np.mean(np.abs(x) ** p) / p) ** (1 / p)


def _check_norm(label, value, x, fam, problems):
    phi = _young_phi(*fam)
    if fam[0] == "power":
        closed = _norm_closed(x, fam[1])
        _close(value, closed, 1.01 * _NORM_TOL, f"{label} power closed form", problems)
    if not float(np.mean(phi(x / value))) <= 1.0 + 1e-12:
        problems.append(f"{label}: mean Phi(x / norm) > 1 (infeasible side)")
    with np.errstate(over="ignore"):
        if not float(np.mean(phi(x / (value * (1 - 2 * _NORM_TOL))))) > 1.0:
            problems.append(f"{label}: norm is not tight to its tolerance")


def _check_pairing(label, value, xe, xl, kind, norms, problems):
    inner, bound = value
    _close(inner, float(np.mean(xe * xl)), 1e-12, f"{label} inner product", problems)
    if not abs(inner) <= bound:
        problems.append(f"{label}: |mean(xy)| = {abs(inner)!r} exceeds bound {bound!r}")
    _, fam, cfam, fname = kind
    if fam[0] == "power":
        expected = 2 * _norm_closed(xe, fam[1]) * _norm_closed(xl, cfam[1])
        _close(bound, expected, 3 * _NORM_TOL, f"{label} bound", problems)
    else:
        conj = "log_plus" if fname == "exp_minus" else "exp_minus"
        if ("exponential", fname) in norms and ("lognormal", conj) in norms:
            expected = 2 * norms[("exponential", fname)] * norms[("lognormal", conj)]
            _close(bound, expected, 1e-15, f"{label} bound vs the norm ops", problems)


def _check_ryff(label, dens, fi, n, problems):
    base = np.sort(n * _weights(fi, n))
    _, mult = np.unique(base, return_counts=True)
    count = math.factorial(n) // math.prod(math.factorial(int(m)) for m in mult)
    if dens.shape != (count, n):
        problems.append(f"{label}: shape {dens.shape}, expected ({count}, {n})")
        return
    if np.unique(dens, axis=0).shape[0] != count:
        problems.append(f"{label}: rows are not distinct")
    if not np.allclose(np.sort(dens, axis=1), base, rtol=0.0, atol=1e-12):
        problems.append(f"{label}: a row is not a rearrangement of n * increments")
    if not _majorizes(dens, fi):
        problems.append(f"{label}: a row fails the majorization (core) check")


def _check_ando(label, profile, dens, fam, problems):
    phi = _young_phi(*fam)
    lams = np.asarray(profile.lambdas)
    vals = np.asarray(profile.values)
    if not np.array_equal(lams, [1.0, 10.0, 100.0, 1000.0, 10000.0]):
        problems.append(f"{label}: lambdas {lams.tolist()}")
        return
    for lam, v in zip(lams, vals):
        expected = lam * float(np.max(np.mean(phi(dens / lam), axis=1)))
        _close(v, expected, 1e-12, f"{label} value at lambda={lam:g}", problems)
    if np.any(np.diff(vals) > 1e-12 * vals[:-1]):
        problems.append(f"{label}: lambda * mean Phi(h / lambda) increases in lambda")
