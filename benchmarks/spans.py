"""Spans around the program's public calls, recorded from outside it.

``Tracer.install`` wraps each entry of ``TARGETS`` wherever the program's
modules bind it, so calls made inside the program are recorded too, with
their parent span.  A span's self time is its duration minus the time its
child spans cover.  Spans stay in memory until the op ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute or Class.attribute, extra counts from (args, result))
TARGETS = [
    ("liealg.builtin_algebra", "spencerbench.liealg", "builtin_algebra", None),
    ("liealg.jacobi_residual", "spencerbench.liealg", "jacobi_residual", None),
    ("liealg.antisymmetry_residual", "spencerbench.liealg", "antisymmetry_residual", None),
    ("liealg.algebra_from_json", "spencerbench.liealg", "algebra_from_json", None),
    ("spencer.delta_matrix", "spencerbench.spencer", "delta_matrix",
     lambda args, result: {"spencer.delta_matrix.nnz": len(result.entries)}),
    ("spencer.nilpotency_report", "spencerbench.spencer", "nilpotency_report", None),
    ("spencer.signed_leibniz_welldefinedness", "spencerbench.spencer",
     "signed_leibniz_welldefinedness", None),
    ("mirror.intertwining_check", "spencerbench.mirror", "intertwining_check", None),
    ("mirror.induced_tensor_map", "spencerbench.mirror", "induced_tensor_map", None),
    ("linalg.rank", "spencerbench.linalg", "OperatorMatrix.rank",
     lambda args, result: {"linalg.rank.cells": args[0].rows * args[0].cols}),
    ("linalg.rank_bareiss", "spencerbench.linalg", "OperatorMatrix.rank_bareiss", None),
    ("linalg.kernel_basis", "spencerbench.linalg", "OperatorMatrix.kernel_basis", None),
    ("linalg.in_column_span", "spencerbench.linalg", "in_column_span", None),
    ("linalg.matmul", "spencerbench.linalg", "OperatorMatrix.__matmul__", None),
    ("cohomology.dga_from_json", "spencerbench.cohomology", "DGAModel.from_json", None),
    ("cohomology.build_complex", "spencerbench.cohomology", "build_complex", None),
    ("cohomology.d_squared_residual", "spencerbench.cohomology", "d_squared_residual", None),
    ("cohomology.cohomology_report", "spencerbench.cohomology", "cohomology_report", None),
    ("cohomology.kunneth_diagnostic", "spencerbench.cohomology", "kunneth_diagnostic", None),
    ("cohomology.cup_product", "spencerbench.cohomology", "cup_product", None),
    ("cohomology.mirror_invariance_check", "spencerbench.cohomology",
     "mirror_invariance_check", None),
    ("bundle.bundle_from_json", "spencerbench.bundle", "bundle_from_json", None),
    ("bundle.transversality_report", "spencerbench.bundle", "transversality_report",
     lambda args, result: {"bundle.sites": math.prod(args[0].shape)}),
    ("bundle.cartan_residual", "spencerbench.bundle", "cartan_residual", None),
    ("bundle.compatibility_functional_terms", "spencerbench.bundle",
     "compatibility_functional_terms", None),
    ("bundle.equivariance_residual", "spencerbench.bundle", "equivariance_residual", None),
    ("cli.emit", "spencerbench.cli", "_emit", None),
]


class Tracer:
    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []  # [name, start, end, parent index, op id, self seconds]
        self.counts = {}
        self.missing = []
        self._stack = []  # [span index, seconds covered by children]

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, None])
        self._stack.append([index, 0.0])
        try:
            yield
        finally:
            _, covered = self._stack.pop()
            record = self.spans[index]
            record[2] = time.perf_counter()
            duration = record[2] - record[1]
            record[5] = duration - covered
            if self._stack:
                self._stack[-1][1] += duration

    def add_count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.add_count(name + ".calls", 1)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.add_count(key, value)
            return result
        return wrapper

    def install(self):
        """Wrap every target in every program module that binds it."""
        modules = {name: importlib.import_module(name)
                   for name in sorted({module for _, module, _, _ in TARGETS})}
        for name, module, path, counter in TARGETS:
            owner = modules[module]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, counter)))
            elif owner_path:
                setattr(owner, attr, self._wrap(name, raw, counter))
            else:
                wrapped = self._wrap(name, raw, counter)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "spencerbench":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)


def self_times(spans):
    """Total self seconds per span name."""
    out = {}
    for name, _, _, _, _, own in spans:
        out[name] = out.get(name, 0.0) + own
    return out
