"""Benchmark of orlicz_risk: converge, reference and duality workloads.

    python3 perfbench/run.py --workload converge --seed 0 --seconds 34 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout; the program is imported from ``src/``. Each
workload runs in its own fresh single-threaded interpreter as a closed loop
with one caller. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones from a separate traced process. The last line of stdout is
one JSON object: correct, attempted, failed and metrics. See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from workloads import KNOWN_FAULTS, WORKLOADS  # noqa: E402

SETUP_STARTS = 7  # fresh interpreters timed for setup_s, after one discarded start
IMPORT_STARTS = 5  # fresh interpreters under -X importtime
DEADLINE_S = 170.0
SLOW_SHARE = 0.25  # ops_per_s and op_ms_p50 come from the slowest quarter of timed cycles

TIMED_SPANS = [  # inclusive time per op
    "harness.sample", "laws.quantile", "quantiles.merge_sorted", "distortion.increments",
    "harness.write_trace_csv", "harness.reference_value", "young.value",
    "distortion.ryff_scenarios", "distortion.core_membership", "distortion.bruteforce_choquet",
]
SELF_SPANS = [  # self time per op: the span minus its child spans
    "harness.run_convergence", "quadrature.dyadic_unit_integral",
    "orlicz.luxemburg_norm", "orlicz.ando_profile",
]
FAULT_LAYERS = ["harness", "laws", "distortion", "young", "orlicz"]


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark ran past its time limit")
        return left


def child_env() -> dict:
    """Environment of every child: the program from src/, one thread, allocator defaults."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("MALLOC_") and k not in ("GLIBC_TUNABLES", "PYTHONPATH")
    }
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(deadline, workload, seed, mode, seconds=0.0, cycles=1) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", repr(seconds), "--cycles", str(cycles)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=deadline.left(), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(deadline, workload, seed) -> float:
    """Wall time from starting a fresh interpreter until the worker is ready to run ops."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", "setup"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=deadline.left())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup worker for {workload} failed")
    return elapsed


def import_times_ms(deadline) -> dict:
    """Cumulative import times of orlicz_risk.cli and scipy.special, medians over fresh starts."""
    samples = {"orlicz_risk.cli": [], "scipy.special": []}
    for _ in range(IMPORT_STARTS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import orlicz_risk.cli"],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=deadline.left(), check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError("importing orlicz_risk.cli failed")
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                found[parts[2].strip()] = int(parts[1]) / 1000.0
        for name, values in samples.items():
            values.append(found.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def tail(latencies_ms):
    """(percentile, value, samples): the sample with exactly ten samples beyond it.

    That is the highest percentile with at least ten samples beyond it. Below
    forty samples it would be no tail, and the median is reported instead.
    """
    n = len(latencies_ms)
    ordered = sorted(latencies_ms)
    if n < 40:
        return 50.0, statistics.median(ordered), n
    return 100.0 * (n - 10) / n, ordered[n - 11], n


def slowest_cycles(res):
    """Indices of the slowest quarter of the timed cycles, by busy time.

    The host's speed has a steady floor with fast bursts when the machines
    it shares with idle; the bursts come and go over seconds to minutes and
    set most of the run-to-run spread of a whole-run mean. Ranking whole
    cycles, which all run the same ops, and keeping the slowest quarter
    reports the floor. A change that speeds every op moves it in full.
    """
    busy = res["cycle_busy_s"]
    keep = max(1, math.ceil(SLOW_SHARE * len(busy)))
    return sorted(range(len(busy)), key=busy.__getitem__)[-keep:]


def problems_of(workload, res) -> list:
    """Wrong outputs, plus any failed op other than the named program fault."""
    known = KNOWN_FAULTS.get(workload, {})
    unexpected = [f"{label}: raised {exc}" for label, exc in res["failures"].items()
                  if known.get(label) != exc]
    return res["problems"] + unexpected


def end_to_end(args, deadline):
    time_setup(deadline, args.workload, args.seed)  # discarded: fills the bytecode cache
    setups = [time_setup(deadline, args.workload, args.seed) for _ in range(SETUP_STARTS)]
    res = run_worker(deadline, args.workload, args.seed, "timed", seconds=args.seconds)
    lat = [s * 1e3 for cycle in res["cycle_latencies_s"] for s in cycle]
    p, tail_ms, n = tail(lat)
    slow = slowest_cycles(res)
    slow_lat = [s * 1e3 for i in slow for s in res["cycle_latencies_s"][i]]
    slow_busy = sum(res["cycle_busy_s"][i] for i in slow)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(slow_lat) / slow_busy, "ops/s"),
        "op_ms_p50": (statistics.median(slow_lat), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = [
        f"setup_s: median of {SETUP_STARTS} fresh interpreters "
        f"({min(setups):.4f}..{max(setups):.4f} s)",
        f"op_ms_tail is p{p:.2f} of {n} successful ops; {res['cycles']} cycles of "
        f"{res['ops_per_cycle']} ops",
        f"ops_per_s and op_ms_p50 over the slowest {len(slow)} cycles "
        f"({len(slow_lat)} successful ops); over all cycles they read "
        f"{(res['attempted'] - res['failed']) / res['busy_s']:.6g} ops/s and "
        f"{statistics.median(lat):.6g} ms",
    ]
    return res, metrics, notes


def per_layer(args, deadline):
    imports = import_times_ms(deadline)
    base = run_worker(deadline, args.workload, args.seed, "timed", seconds=args.seconds / 3)
    res = run_worker(deadline, args.workload, args.seed, "traced", cycles=base["cycles"])
    metrics, notes = layer_metrics(res, base, imports)
    notes.append(f"{res['cycles']} traced cycles of {res['ops_per_cycle']} ops each; "
                 f"untraced baseline from a separate process")
    if base["problems"]:
        res["problems"] = base["problems"] + res["problems"]
    return res, metrics, notes


def layer_metrics(res, base, imports):
    spans = res["spans"]
    ops = res["attempted"]
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "self_faults": 0, "elems": 0}

    def get(name):
        return spans.get(name, empty)

    metrics = {}
    for name in TIMED_SPANS:
        metrics[f"{name}_ms"] = (get(name)["incl_s"] * 1e3 / ops, "ms")
    for name in SELF_SPANS:
        metrics[f"{name}_self_ms"] = (get(name)["self_s"] * 1e3 / ops, "ms")
    metrics["laws.quantile_calls"] = (get("laws.quantile")["calls"] / ops, "count")
    metrics["young.value_calls"] = (get("young.value")["calls"] / ops, "count")
    metrics["young.value_elems"] = (get("young.value")["elems"] / ops, "count")
    for layer in FAULT_LAYERS:
        faults = sum(s["self_faults"] for k, s in spans.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.minor_faults"] = (faults / ops, "count")
    metrics["process.minor_faults_per_op"] = (base["minor_faults"] / base["attempted"], "count")
    metrics["cli.import_ms"] = (imports["orlicz_risk.cli"], "ms")
    metrics["laws.scipy_special_import_ms"] = (imports["scipy.special"], "ms")
    traced_ms = res["busy_s"] * 1e3 / ops
    untraced_ms = base["busy_s"] * 1e3 / base["attempted"]
    layer_self_ms = sum(s["self_s"] for k, s in spans.items() if k != "op") * 1e3 / ops
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    notes = [
        f"layer self times sum to {layer_self_ms:.4f} ms/op, and "
        f"{get('op')['self_s'] * 1e3 / ops:.4f} ms/op is in no layer span; "
        f"traced op {traced_ms:.4f} ms, untraced op {untraced_ms:.4f} ms, "
        f"tracing overhead {traced_ms - untraced_ms:.4f} ms/op",
        "spans (per op): name calls incl_ms self_ms self_faults",
    ]
    for name in sorted(spans, key=lambda k: -spans[k]["self_s"]):
        s = spans[name]
        notes.append(f"  {name:34s} {s['calls'] / ops:10.2f} {s['incl_s'] * 1e3 / ops:10.4f} "
                     f"{s['self_s'] * 1e3 / ops:10.4f} {s['self_faults'] / ops:10.1f}")
    return metrics, notes


def report(res, metrics, notes, workload) -> dict:
    problems = problems_of(workload, res)
    for note in notes:
        print(note)
    for label, exc in sorted(res["failures"].items()):
        print(f"failed op (every cycle): {label}: {exc}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def selfcheck(deadline) -> int:
    """Every workload for one cycle with all checks on, plus one traced cycle."""
    declared = None
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        declared = {m["name"] for m in json.loads(bench.read_text())["per_layer"]}
    ok = True
    for workload in WORKLOADS:
        res = run_worker(deadline, workload, 0, "traced", cycles=1)
        metrics, _ = layer_metrics(res, res, {"orlicz_risk.cli": 0.0, "scipy.special": 0.0})
        problems = problems_of(workload, res)
        unattributed = res["spans"]["op"]["self_s"] / res["busy_s"]
        if unattributed > 0.05:
            problems.append(f"{unattributed:.1%} of the traced op time is in no layer span")
        if declared is not None and declared != set(metrics):
            problems.append(f"per-layer metrics differ from BENCHMARK.json: "
                            f"{sorted(declared ^ set(metrics))}")
        print(f"{workload}: {res['attempted']} ops, {res['failed']} failed "
              f"({', '.join(sorted(res['failures'])) or 'none'}), "
              f"{'ok' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  PROBLEM {problem}")
        ok = ok and not problems
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload briefly with all checks and exit")
    args = ap.parse_args(argv)
    if not (SRC / "orlicz_risk" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'orlicz_risk'} is missing", file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    deadline = Deadline(DEADLINE_S)
    if args.selfcheck:
        return selfcheck(deadline)
    if args.workload is None:
        ap.error("--workload is required")
    measure = per_layer if args.trace else end_to_end
    res, metrics, notes = measure(args, deadline)
    result = report(res, metrics, notes, args.workload)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    line = json.dumps(result)
    (out / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
