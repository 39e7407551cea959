"""Layer tracing from outside the package: wrap public functions at the
bindings their callers use, and keep spans in memory.

Each wrapped call records a span (job id, span id, parent span id, name,
start, end).  A span's self time is its duration minus the time of the
wrapped calls directly inside it.  Some layers also report work counts read
from the call's arguments and result (iterations, entries assembled,
indices evaluated).  Nothing here is imported by the untraced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

import numpy as np


def _unconverged(args, kwargs, result):
    return {"unconverged": 0 if result[1] else 1}


def _power_iteration(args, kwargs, result):
    m = args[0]
    it = int(result[2])
    rows, cols = m.shape
    return {"iterations": it, "bytes_computed": it * 2 * rows * cols * np.asarray(m).dtype.itemsize}


def _hankel_entries(args, kwargs, result):
    return {"entries": len(args[1]) * len(args[2])}


def _gram_entries(args, kwargs, result):
    return {"entries": (int(args[1]) + 1) ** 2}


def _indices(args, kwargs, result):
    return {"indices": int(np.size(args[1]))}


#: (metric name, module holding the binding, attribute path, work counter).
#: A name defined in one module but called through another module's import
#: is wrapped at that import, under the name its callers see it by.
TARGETS = (
    ("operators.section_matrix", "operators", "section_matrix", None),
    ("operators.top_singular_value", "operators", "top_singular_value", _unconverged),
    ("operators.tail_section_norm", "operators", "tail_section_norm", None),
    ("operators.hankel_apply", "operators", "hankel_apply", None),
    ("operators.cesaro_apply", "operators", "cesaro_apply", None),
    ("_accel.weighted_hankel", "_accel", "weighted_hankel", _hankel_entries),
    ("_accel.weighted_triangular", "_accel", "weighted_triangular", None),
    ("_accel.gram", "_accel", "gram", _gram_entries),
    ("_accel.hankel_dot", "_accel", "hankel_dot", None),
    ("_accel.power_iteration", "_accel", "power_iteration", _power_iteration),
    ("carleson.x_norm", "carleson", "x_norm", None),
    ("carleson.finite_test_carleson_norm", "carleson", "finite_test_carleson_norm", None),
    ("carleson.restricted_carleson_norm", "carleson", "restricted_carleson_norm", None),
    ("carleson.classify_hankel_general", "carleson", "classify_hankel_general", None),
    ("carleson.top_singular_value", "carleson", "top_singular_value", _unconverged),
    ("measures.MeasureSpec.moments", "measures", "MeasureSpec.moments", _indices),
    ("measures.MeasureSpec.moment", "measures", "MeasureSpec.moment", None),
    ("measures.classify_measure", "measures", "classify_measure", None),
    ("symbols.SymbolSeq.values", "symbols", "SymbolSeq.values", _indices),
    ("symbols.SymbolSeq.tail_remainder", "symbols", "SymbolSeq.tail_remainder", None),
    ("criteria.widom_profile", "criteria", "widom_profile", None),
    ("criteria.classify", "criteria", "classify", None),
    ("criteria.rkt_probe", "criteria", "rkt_probe", None),
    ("criteria.double_sum_ratio", "criteria", "double_sum_ratio", None),
    ("criteria.dirichlet_membership", "criteria", "dirichlet_membership", None),
    ("stochastic.random_tail_experiment", "stochastic", "random_tail_experiment", None),
    ("stochastic.sample_symbol", "stochastic", "sample_symbol", None),
    ("stochastic.fourth_moment_mc", "stochastic", "fourth_moment_mc", None),
    ("coeffspace.normalized_kernel_coeffs", "criteria", "normalized_kernel_coeffs", None),
    ("coeffspace.space_norm", "criteria", "space_norm", None),
    ("_rng.uniforms", "_rng", "uniforms", None),
    ("_rng.rademacher", "_rng", "rademacher", None),
    ("cli.run", "cli", "run", None),
    ("cli.serialize", "cli", "serialize", None),
)

#: work counts each target reports besides calls, total_s and self_s
COUNTS = {
    "operators.top_singular_value": ("unconverged",),
    "carleson.top_singular_value": ("unconverged",),
    "_accel.power_iteration": ("iterations", "bytes_computed"),
    "_accel.weighted_hankel": ("entries",),
    "_accel.gram": ("entries",),
    "measures.MeasureSpec.moments": ("indices",),
    "symbols.SymbolSeq.values": ("indices",),
}


class Tracer:
    """Installs wrappers on TARGETS; collects spans and per-name totals."""

    def __init__(self):
        self.job = None
        self.spans = []  # (job, span id, parent id, name, start, end)
        self.stats = {}
        self.missing = []
        self._stack = []  # open spans: [span id, name, child time]
        self._saved = []  # (owner, attr, original)

    def install(self) -> None:
        for name, module, path, counter in TARGETS:
            try:
                owner = importlib.import_module(f"dirspace.{module}")
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))
            self.stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, **{c: 0 for c in COUNTS.get(name, ())}}

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)  # reserve the id; filled on exit
            frame = [span_id, name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (self.job, span_id, parent, name, start, end)
                duration = end - start
                st = self.stats[name]
                st["calls"] += 1
                st["self_s"] += duration - frame[2]
                if not any(f[1] == name for f in self._stack):  # outermost of a recursion
                    st["total_s"] += duration
                if self._stack:
                    self._stack[-1][2] += duration
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    st[key] += value
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Spans as JSON lines: job, id, parent, name, start_s, end_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for job, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps([job, span_id, parent, name, start, end]) + "\n")
