"""One workload in one fresh interpreter; started by run.py, never by hand.

Modes:
  setup      import orlicz_risk.cli, build the inputs, print "ready", exit
  timed      one warm-up cycle, then whole cycles until --seconds have passed
  traced     one warm-up cycle, then --cycles whole cycles under the tracer

The warm-up cycle's outputs are checked independently after the timed
cycles; each timed op must reproduce its warm-up output bit for bit. Prints
one JSON object on stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def _run_op(call):
    try:
        return call(), None
    except Exception as exc:  # an op that raises is counted as failed
        return None, type(exc).__name__


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cycles", type=int, default=1)
    args = ap.parse_args(argv)

    import orlicz_risk.cli  # noqa: F401  (set-up includes the CLI's import, as users pay it)
    import workloads

    scratch = OUT / f"{args.workload}-{os.getpid()}"
    wl = workloads.build(args.workload, args.seed, scratch)
    if args.mode == "setup":
        print("ready", flush=True)
        shutil.rmtree(scratch, ignore_errors=True)
        return 0

    warm = [_run_op(call) for call in wl.calls]
    expected = [
        workloads.fingerprint(value) if exc is None else exc for value, exc in warm
    ]

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, cycle_busy, failures, mismatches = [], [], {}, set()
    attempted = failed = cycles = 0
    busy = 0.0
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    while True:
        latencies.append([])
        cycle_start = busy
        for i, call in enumerate(wl.calls):
            span = tracer.begin_op(attempted) if tracer else None
            t0 = time.perf_counter()
            value, exc = _run_op(call)
            t1 = time.perf_counter()
            if tracer:
                tracer.end(span)
            attempted += 1
            busy += t1 - t0
            if exc is None:
                latencies[-1].append(t1 - t0)
                got = workloads.fingerprint(value)
            else:
                failed += 1
                failures[wl.labels[i]] = exc
                got = exc
            if got != expected[i]:
                mismatches.add(wl.labels[i])
            del value
        cycle_busy.append(busy - cycle_start)
        cycles += 1
        if args.mode == "timed":
            if time.perf_counter() - start >= args.seconds:
                break
        elif cycles >= args.cycles:
            break
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "workload": args.workload,
        "mode": args.mode,
        "ops_per_cycle": len(wl.calls),
        "cycles": cycles,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "busy_s": busy,
        "cycle_busy_s": cycle_busy,
        "cycle_latencies_s": latencies,
        "minor_faults": faults,
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer:
        tracer.uninstall()
        result["spans"] = tracer.summary()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans_{args.workload}.csv")  # latest traced run only: tens of MB
    problems = [f"{label}: output differs from its warm-up output" for label in sorted(mismatches)]
    problems += wl.check(warm)
    result["problems"] = problems
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
