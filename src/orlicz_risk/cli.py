"""Command line harness.

Subcommands: conjugate, norm, estimate, converge, ando, brutecheck. Numbers
are printed with 17 significant digits and all file outputs are deterministic,
so rerunning a command reproduces its artifacts byte for byte. ``ando`` takes
any n: it profiles the Ryff densities through their one sorted row.

Exit codes: 0 success, 2 input/validation error, 3 mathematical refusal
(analytic gate failure or divergent target integral). A refusal writes a
``refused: ...`` line and then one JSON line ``{"reason": ..., "witness_k":
...}`` to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ._spec import _is_count
from .distortion import bruteforce_choquet, choquet_empirical, distortion_from_dict
from .harness import (
    ExperimentConfig,
    GateRefusal,
    run_experiment,
    summarize_traces,
    write_trace_csv,
)
from .orlicz import ando_profile, luxemburg_norm
from .quadrature import QuadratureDivergenceError
from .quantiles import load_sample_csv
from .young import young_from_dict

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_arg(text: str, what: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from None


def _count_arg(value: int, option: str) -> int:
    if not _is_count(value):
        raise ValueError(f"{option} must be at least 1, got {value}")
    return value


def _cmd_conjugate(args) -> int:
    _count_arg(args.points, "--points")
    yf = young_from_dict(_json_arg(args.young, "young function"))
    conj = yf.conjugate()
    xs = np.linspace(args.x_min, args.x_max, args.points)
    print("x,phi,Phi,psi,Psi")
    for x in xs:
        print(
            f"{_fmt(x)},{_fmt(yf.phi(x))},{_fmt(yf.value(x))},"
            f"{_fmt(conj.phi(x))},{_fmt(conj.value(x))}"
        )
    return EXIT_OK


def _cmd_norm(args) -> int:
    yf = young_from_dict(_json_arg(args.young, "young function"))
    values = load_sample_csv(args.csv)
    tol = 1e-10 if args.tol is None else args.tol
    print(_fmt(luxemburg_norm(values, yf, tol=tol)))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    f = distortion_from_dict(_json_arg(args.distortion, "distortion"))
    values = load_sample_csv(args.csv)
    est = choquet_empirical(values, f)
    record = {
        "estimate": est,
        "n": int(values.size),
        "distortion": f.to_dict(),
        "csv": str(args.csv),
    }
    print(_fmt(est))
    print(json.dumps(record, sort_keys=True))
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "estimate.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(record, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return EXIT_OK


def _cmd_converge(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = ExperimentConfig.from_dict(json.load(fh))
    traces = run_experiment(config)
    summary = summarize_traces(traces)
    out = Path("converge_out" if args.out is None else args.out)
    out.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        write_trace_csv(trace, out / f"trace_seed{trace.seed}.csv")
    with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"reference {_fmt(summary['reference'])}")
    print(f"median_final_abs_error {_fmt(summary['median_final_abs_error'])}")
    print(f"max_final_abs_error {_fmt(summary['max_final_abs_error'])}")
    print(f"wrote {len(traces)} trace file(s) and summary.json to {out}")
    return EXIT_OK


def _cmd_ando(args) -> int:
    yf = young_from_dict(_json_arg(args.young, "young function"))
    f = distortion_from_dict(_json_arg(args.distortion, "distortion"))
    n = _count_arg(args.n, "--n")
    try:
        lambdas = tuple(float(s) for s in args.lambdas.split(","))
    except ValueError:
        raise ValueError(f"--lambdas must be comma-separated numbers, got {args.lambdas!r}") from None
    tol = 1e-6 if args.tol is None else args.tol
    # the Ryff set's profile: every rearrangement of the row sorts to the same row
    profile = ando_profile(n * f.increments(n), yf, lambdas, tol=tol)
    print("lambda,value")
    for lam, val in zip(profile.lambdas, profile.values):
        print(f"{_fmt(lam)},{_fmt(val)}")
    print(f"converged,{str(profile.converged).lower()}")
    return EXIT_OK


def _cmd_brutecheck(args) -> int:
    f = distortion_from_dict(_json_arg(args.distortion, "distortion"))
    if _count_arg(args.n, "--n") > 7:
        raise ValueError("brutecheck is limited to n <= 7")
    _count_arg(args.trials, "--trials")
    gen = np.random.Generator(np.random.Philox(key=int(args.seed)))
    worst = 0.0
    for _ in range(args.trials):
        xi = gen.standard_normal(args.n)
        worst = max(worst, abs(bruteforce_choquet(xi, f) - choquet_empirical(xi, f)))
    passed = worst < 1e-12
    print(f"max_discrepancy,{_fmt(worst)}")
    print(f"result,{'pass' if passed else 'fail'}")
    return EXIT_OK if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-risk",
        description="Distortion risk measures on Orlicz spaces: conjugation "
        "tables, Luxemburg norms, Choquet estimates and convergence runs.",
    )
    # The parent parser's action objects are shared by every subparser, so a
    # set_defaults on one subcommand would change these defaults for all of
    # them. Keep None here and resolve per command instead.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output directory for file artifacts")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    common.add_argument(
        "--tol", type=float, default=None, help="numeric tolerance (command specific default)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conjugate", parents=[common], help="tabulate a Young pair")
    p.add_argument("--young", required=True, help="young function spec (JSON)")
    p.add_argument("--x-min", type=float, default=0.25)
    p.add_argument("--x-max", type=float, default=4.0)
    p.add_argument("--points", type=int, default=16)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("norm", parents=[common], help="Luxemburg norm of a CSV sample")
    p.add_argument("--csv", required=True, help="single-column sample file")
    p.add_argument("--young", required=True, help="young function spec (JSON)")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("estimate", parents=[common], help="Choquet estimate of a CSV sample")
    p.add_argument("--csv", required=True, help="single-column sample file")
    p.add_argument("--distortion", required=True, help="distortion spec (JSON)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("converge", parents=[common], help="run a convergence experiment")
    p.add_argument("config", help="experiment config (JSON file)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("ando", parents=[common], help="Ryff densities' compactness profile, any n")
    p.add_argument("--young", required=True, help="young function spec (JSON)")
    p.add_argument("--distortion", required=True, help="distortion spec (JSON)")
    p.add_argument("--n", type=int, default=4, help="atom count")
    p.add_argument("--lambdas", default="1,10,100,1000,10000", help="comma-separated schedule")
    p.set_defaults(func=_cmd_ando)

    p = sub.add_parser("brutecheck", parents=[common], help="estimator vs permutation brute force")
    p.add_argument("--n", type=int, required=True, help="atom count (<= 7)")
    p.add_argument("--distortion", required=True, help="distortion spec (JSON)")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_brutecheck)

    return parser


def _refused(message: str, reason: str, witness_k=None) -> int:
    """The human line, then one JSON line with the machine-readable reason."""
    print(f"refused: {message}", file=sys.stderr)
    print(json.dumps({"reason": reason, "witness_k": witness_k}), file=sys.stderr)
    return EXIT_REFUSED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GateRefusal as exc:
        return _refused(str(exc), exc.reason, exc.witness_k)
    except QuadratureDivergenceError as exc:
        return _refused(f"divergent target integral ({exc})", "divergent_target_integral")
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
