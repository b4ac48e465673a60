"""Per-layer tracing installed from outside the program.

`Tracer.install` wraps the public functions that make up each layer and
patches every `trivalent` module namespace that holds a reference to
them, so calls made inside the package go through the wrappers too.
Each wrapper counts calls and keeps total and self time, where self time
is total time minus the time of traced calls made beneath it.  Numbers
are kept in memory; `metrics()` reads them out once the run ends.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

import numpy as np

#: metric name -> (module, attribute) of each wrapped callable
LAYERS = {
    "diagrams.glue": [("trivalent.diagrams", "glue")],
    "diagrams.permutation_diagram": [("trivalent.diagrams", "permutation_diagram")],
    "diagrams.canonical_form": [("trivalent.diagrams", "canonical_form")],
    "enumeration.enumerate_fixed_diagrams": [
        ("trivalent.enumeration", "enumerate_fixed_diagrams")],
    "algebras.build": [("trivalent.algebras", name) for name in (
        "abelian", "so3_eps", "so_n_rational", "sl2_killing", "sl_n_trace",
        "gl_n_trace", "tensor_from_json_dict")],
    "evaluation.partition_function": [
        ("trivalent.evaluation", "partition_function"),
        ("trivalent.evaluation", "open_partition_function")],
    "relations.delta_sum": [("trivalent.relations", "delta_sum")],
    "relations.connection_matrix": [("trivalent.relations", "connection_matrix")],
    "relations.rank": [("trivalent.relations", "rank")],
    "cli.main": [("trivalent.cli", "main")],
}

#: methods patched on their class
METHODS = {
    "evaluation.evaluate": [("trivalent.evaluation", "TensorBacked", "evaluate"),
                            ("trivalent.evaluation", "TableBacked", "evaluate")],
}

#: the per-layer metrics reported, with their units
PER_LAYER = [
    ("diagrams.glue.calls", "count"),
    ("diagrams.glue.self_s", "s"),
    ("diagrams.permutation_diagram.calls", "count"),
    ("diagrams.permutation_diagram.self_s", "s"),
    ("diagrams.canonical_form.calls", "count"),
    ("diagrams.canonical_form.self_s", "s"),
    ("enumeration.enumerate_fixed_diagrams.self_s", "s"),
    ("algebras.build.self_s", "s"),
    ("evaluation.evaluate.calls", "count"),
    ("evaluation.evaluate.self_s", "s"),
    ("evaluation.partition_function.calls", "count"),
    ("evaluation.partition_function.self_s", "s"),
    ("evaluation.contractions_per_evaluate", "ratio"),
    ("evaluation.tensordot.calls", "count"),
    ("evaluation.tensordot.self_s", "s"),
    ("evaluation.tensordot.mults", "count"),
    ("evaluation.peak_entries", "count"),
    ("relations.delta_sum.self_s", "s"),
    ("relations.connection_matrix.self_s", "s"),
    ("relations.rank.self_s", "s"),
    ("cli.main.self_s", "s"),
]


class Tracer:
    def __init__(self):
        self.stats = {}          # name -> [calls, total_s, self_s]
        self._stack = []         # child time accumulated under each open call
        self._undo = []
        self.mults = 0
        self.peak_entries = 0
        self._evaluating = 0     # open partition_function calls

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        scope = name == "evaluation.partition_function"

        def traced(*args, **kwargs):
            stack.append(0.0)
            self._evaluating += scope
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._evaluating -= scope
                dt = perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt

        return traced

    def _tensordot(self, fn):
        """Counts only contractions made by an evaluation, not by algebra checks."""
        traced = self._wrap("evaluation.tensordot", fn)

        def counted(a, b, axes=2):
            if not self._evaluating:
                return fn(a, b, axes)
            a, b = np.asarray(a), np.asarray(b)
            if isinstance(axes, int):
                summed = a.shape[a.ndim - axes:] if axes else ()
            else:
                ax = axes[0]
                summed = [a.shape[i] for i in ([ax] if isinstance(ax, int) else ax)]
            out = traced(a, b, axes)
            self.mults += out.size * math.prod(summed)
            self.peak_entries = max(self.peak_entries, out.size)
            return out

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "trivalent" or name.startswith("trivalent.")]
        for metric, targets in LAYERS.items():
            for mod_name, attr in targets:
                fn = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(metric, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, key, wrapper)
        for metric, targets in METHODS.items():
            for mod_name, cls_name, attr in targets:
                cls = getattr(sys.modules[mod_name], cls_name)
                self._set(cls, attr, self._wrap(metric, getattr(cls, attr)))
        self._set(np, "tensordot", self._tensordot(np.tensordot))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self):
        def get(name, field):
            calls, total, own = self.stats.get(name, (0, 0.0, 0.0))
            return {"calls": calls, "total_s": total, "self_s": own}[field]

        out = {}
        for name, unit in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if name == "evaluation.contractions_per_evaluate":
                evals = get("evaluation.evaluate", "calls")
                value = (get("evaluation.partition_function", "calls") / evals
                         if evals else 0.0)
            elif name == "evaluation.tensordot.mults":
                value = self.mults
            elif name == "evaluation.peak_entries":
                value = self.peak_entries
            else:
                value = get(layer, field)
            out[name] = {"value": value, "unit": unit}
        return out

    def table(self):
        """Every traced layer with calls, total and self time."""
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())}
