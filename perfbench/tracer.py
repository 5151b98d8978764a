"""Spans around the program's public functions and methods, for the traced run.

``Tracer.install`` replaces each listed function in every ``orlicz_risk``
module that binds it, and each listed method on every class of its module
that defines it, with a wrapper that records a span: name, start, end,
parent, op index and the process's minor-fault count at both ends. Spans
live in flat arrays in memory and are written out once, at the end.

A listed function that the program no longer has is skipped, so its metrics
read 0 instead of stopping the run.
"""
from __future__ import annotations

import functools
import resource
import sys
import time
from array import array

import numpy as np

# (module, function) pairs; the span is named "<module>.<function>"
FUNCTIONS = [
    ("harness", "run_convergence"),
    ("harness", "sample"),
    ("harness", "reference_value"),
    ("harness", "psi_moment_target"),
    ("harness", "write_trace_csv"),
    ("quantiles", "merge_sorted"),
    ("distortion", "choquet_quadrature"),
    ("distortion", "ryff_scenarios"),
    ("distortion", "core_membership"),
    ("distortion", "bruteforce_choquet"),
    ("quadrature", "dyadic_unit_integral"),
    ("orlicz", "luxemburg_norm"),
    ("orlicz", "pairing"),
    ("orlicz", "ando_profile"),
]
# (module, method names, span name): wrapped on every class of the module
# that defines one of the methods itself
METHODS = [
    ("laws", ("quantile", "tail_quantile"), "laws.quantile"),
    ("distortion", ("increments",), "distortion.increments"),
    ("young", ("value",), "young.value"),
]
COUNT_ELEMENTS = {"young.value"}  # spans that also record the argument's size

ROOT = "op"


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.f0 = array("q")
        self.f1 = array("q")
        self.elems = array("q")
        self._stack = []
        self._op = -1
        self._restore = []

    def begin(self, name_id: int, elems: int = 0) -> int:
        i = len(self.t0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.elems.append(elems)
        self._stack.append(i)
        self.t1.append(0.0)
        self.f1.append(0)
        self.f0.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        self.t0.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.t1[i] = time.perf_counter()
        self.f1[i] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self._stack.pop()

    def begin_op(self, index: int) -> int:
        self._op = index
        return self.begin(0)

    def _wrap(self, fn, span: str):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._ids[span]
        count = span in COUNT_ELEMENTS
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(name_id, int(np.size(args[-1])) if count and args else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                end(i)

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "orlicz_risk"]
        for mod_name, fn_name in FUNCTIONS:
            home = sys.modules.get(f"orlicz_risk.{mod_name}")
            fn = getattr(home, fn_name, None)
            if not callable(fn):
                continue
            traced = self._wrap(fn, f"{mod_name}.{fn_name}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, traced)
        for mod_name, methods, span in METHODS:
            home = sys.modules.get(f"orlicz_risk.{mod_name}")
            for cls in list(vars(home).values()) if home else []:
                if not (isinstance(cls, type) and cls.__module__ == home.__name__):
                    continue
                for meth in methods:
                    fn = cls.__dict__.get(meth)
                    if callable(fn):
                        self._restore.append((cls, meth, fn))
                        setattr(cls, meth, self._wrap(fn, span))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, self faults, elements.

        Inclusive time counts only spans with no ancestor of the same name;
        self time and self faults are a span's own minus its direct children's.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        faults = np.frombuffer(self.f1, dtype=np.int64) - np.frombuffer(self.f0, dtype=np.int64)
        has_parent = parent >= 0
        child_dur = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        child_faults = np.bincount(
            parent[has_parent], weights=faults[has_parent], minlength=dur.size
        )
        outer = np.ones(dur.size, dtype=bool)
        for i in range(dur.size):  # spans are stored parents first
            j = parent[i]
            while j >= 0:
                if name[j] == name[i]:
                    outer[i] = False
                    break
                j = parent[j]
        elems = np.frombuffer(self.elems, dtype=np.int64)
        out = {}
        for k, span in enumerate(self.names):
            sel = name == k
            out[span] = {
                "calls": int(sel.sum()),
                "incl_s": float(dur[sel & outer].sum()),
                "self_s": float((dur - child_dur)[sel].sum()),
                "self_faults": int((faults - child_faults)[sel].sum()),
                "elems": int(elems[sel].sum()),
            }
        return out

    def write(self, path) -> None:
        """All spans as CSV: name, parent index, op index, start, end, faults, elements."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,op,start_s,end_s,minflt_start,minflt_end,elems\n")
            for i in range(len(self.t0)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},{self.op[i]},"
                    f"{self.t0[i]!r},{self.t1[i]!r},{self.f0[i]},{self.f1[i]},{self.elems[i]}\n"
                )
