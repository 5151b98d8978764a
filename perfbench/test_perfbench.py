"""Tests of the benchmark itself: the self-check passes, the checks catch
wrong outputs, and without the program the benchmark refuses to report.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def _cycle(wl):
    outputs = []
    for call in wl.calls:
        try:
            outputs.append((call(), None))
        except Exception as exc:
            outputs.append((None, type(exc).__name__))
    return outputs


def test_selfcheck_runs_every_workload_clean():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--selfcheck"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in workloads.WORKLOADS:
        assert any(line.startswith(f"{name}:") and line.endswith("ok")
                   for line in proc.stdout.splitlines())


@pytest.mark.parametrize("name,label,corrupt", [
    ("reference", "reference_value lognormal(sigma=4) es", lambda v: v * (1 + 1e-7)),
    ("reference", "psi_moment_target pareto(tail=1.2) log_plus", lambda v: v * (1 + 1e-5)),
    ("duality", "luxemburg_norm lognormal power3", lambda v: v * (1 + 1e-9)),
    ("duality", "luxemburg_norm exponential exp_minus", lambda v: v * (1 - 1e-9)),
    ("duality", "pairing log_plus", lambda v: (v[0], v[1] * (1 + 1e-9))),
    ("duality", "core_membership n=20 power2 spread", lambda v: not v),
    ("duality", "bruteforce_choquet n=8 es25", lambda v: v + 1e-9),
    ("duality", "ryff_scenarios n=8 power2",
     lambda v: dataclasses.replace(v, densities=v.densities[1:])),
])
def test_checks_reject_a_wrong_output(tmp_path, name, label, corrupt):
    wl = workloads.build(name, 0, tmp_path)
    outputs = _cycle(wl)
    assert wl.check(outputs) == []
    i = wl.labels.index(label)
    outputs[i] = (corrupt(outputs[i][0]), None)
    assert any(p.startswith(label) for p in wl.check(outputs))


def test_converge_check_rejects_a_wrong_estimate(tmp_path):
    wl = workloads.build("converge", 0, tmp_path)
    i = wl.labels.index("converge pareto3_pow2 seed4")
    outputs = [(None, "skipped")] * len(wl.calls)
    trace = wl.calls[i]()
    assert wl.check(_only(outputs, i, trace)) == []
    est = list(trace.estimates)
    est[2] *= 1 + 1e-10
    assert wl.check(_only(outputs, i, dataclasses.replace(trace, estimates=tuple(est))))


def _only(outputs, i, value):
    out = list(outputs)
    out[i] = (value, None)
    return out


def test_without_the_program_it_exits_nonzero_and_reports_nothing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
