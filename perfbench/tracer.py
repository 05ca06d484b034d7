"""Outside-in span tracer for the traced benchmark run.

`Tracer.install` replaces the listed public functions of `fockbound` with
timing wrappers in every `fockbound.*` namespace that binds them (so
`bounds.d_gamma` and `gaussian.delta_plus`, imported by name, are traced
too), wraps `FockOperator.__matmul__`, and wraps four `numpy.linalg`
routines as *kernel* spans.  A kernel span is recorded under its parent but
its time stays in the parent's self time.  Nothing under `src/` changes.

Spans live in memory as `[name, kind, parent, start, end, rss0_kb, rss1_kb]`
(parent is an index into the list, -1 for a root) and are written out once,
after the traced batch.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import defaultdict

LAYER_FUNCTIONS = {
    "fock": ("make_space", "op_a", "op_adag", "verify_car"),
    "quadratics": ("d_gamma", "delta", "delta_plus", "check_commutator",
                   "check_grading"),
    "spectral": ("loewner_leq", "schatten_norm"),
    "bounds": ("verify_bound", "rhs_operator"),
    "gaussian": ("gaussian_report", "pair_coefficients", "omega_determinant"),
    "converse": ("sharpness_sweep", "schatten_recovery_check"),
    "cli": ("render",),
}
KERNELS = ("eigvalsh", "norm", "svd", "eigh")
QUADRATIC_OPERATORS = ("quadratics.d_gamma", "quadratics.delta", "quadratics.delta_plus")

NAME, KIND, PARENT, START, END, RSS0, RSS1 = range(7)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, kind: str = "layer"):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, kind, stack[-1], 0.0, 0.0, _maxrss_kb(), 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                rec[RSS1] = _maxrss_kb()

        return traced

    def install(self) -> None:
        import numpy as np

        import fockbound  # noqa: F401  (binds every submodule)
        from fockbound import fock

        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "fockbound" or key.startswith("fockbound.")]
        for module, names in LAYER_FUNCTIONS.items():
            owner = sys.modules[f"fockbound.{module}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapped = self.wrap(f"{module}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)
        fock.FockOperator.__matmul__ = self.wrap(
            "fock.FockOperator.matmul", fock.FockOperator.__matmul__)
        for kname in KERNELS:
            setattr(np.linalg, kname, self.wrap(
                f"numpy.linalg.{kname}", getattr(np.linalg, kname), kind="kernel"))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def summarize(spans: list, wall_s: float) -> dict:
    """Per-span-name self time, call count and kernel time, plus coverage.

    Self time is a span's duration minus the durations of its direct
    non-kernel children; single-threaded calls nest strictly, so children
    never overlap.  Coverage is the summed self time of all non-kernel spans
    over the traced wall time.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[KIND] != "kernel" and rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    kernel_s: dict = defaultdict(float)  # (parent name, kernel name) -> seconds
    rss_growth_kb: dict = defaultdict(int)
    for i, rec in enumerate(spans):
        duration = rec[END] - rec[START]
        if rec[KIND] == "kernel":
            parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
            kernel_s[(parent, rec[NAME])] += duration
            continue
        self_s[rec[NAME]] += duration - child_time[i]
        calls[rec[NAME]] += 1
        rss_growth_kb[rec[NAME]] += rec[RSS1] - rec[RSS0]
    return {
        "self_s": self_s,
        "calls": calls,
        "kernel_s": kernel_s,
        "rss_growth_kb": rss_growth_kb,
        "coverage": sum(self_s.values()) / wall_s,
    }
