"""Span tracer that wraps mubkit's public functions from outside.

Installing the tracer replaces each traced function with a wrapper that
records a span (name, start, end, parent span, op id).  Functions are
rebound wherever a module holds them: in the defining module, in every
module that imported them with ``from .x import y``, and in module-level
dicts such as ``verify.SUITES``.  ``PhaseMatrix`` methods are wrapped on
the class; ``ExactPhase`` construction is only counted, because it runs
millions of times per op and a span each would swamp the measurement.

Spans are kept in flat arrays in memory and written out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> (module, function names); None means every public
# function the module defines
FUNCTION_SPANS = {
    "phases.trace_pair": ("phases", ["trace_pair"]),
    "qdft.build": ("qdft", ["fra_matrix", "hra_matrix", "dra_matrix"]),
    "qdft.gauss_sum": ("qdft", ["gauss_sum", "trace_fra"]),
    "qdft.transform": ("qdft", ["forward", "inverse", "parseval_check"]),
    "weyl.build": ("weyl", ["x_matrix", "z_matrix", "pr_matrix", "vra_matrix",
                            "vra_band_matrix", "u_ab", "pauli_element_matrix",
                            "t_matrix"]),
    "weyl.check": ("weyl", None),
    "mub.build": ("mub", ["mub_prime", "mub_three", "mub_dim4", "commuting_classes"]),
    "mub.check": ("mub", None),
    "quon": ("quon", None),
    "wigner": ("wigner", None),
    "verify.weyl": ("verify", ["verify_weyl"]),
    "verify.qdft": ("verify", ["verify_qdft"]),
    "verify.su2": ("verify", ["verify_su2"]),
    "verify.mub": ("verify", ["verify_mub"]),
    "verify.wigner": ("verify", ["verify_wigner"]),
    "cli.handler": ("cli", ["cmd_matrix", "cmd_mub", "cmd_verify", "cmd_gauss",
                            "cmd_transform", "cmd_fbar"]),
    "cli.render": ("cli", ["render_document"]),
}

METHOD_SPANS = {
    "phases.from_exponents": "from_exponents",
    "phases.matmul": "__matmul__",
    "phases.pow": "__pow__",
    "phases.trace": "trace",
    "phases.to_complex": "to_complex",
}


def _public_functions(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


class Tracer:
    """Records spans and counters between :meth:`install` and :meth:`uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self.op_id = -1
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span the benchmark itself opens."""
        return self.wrap(name, fn)(*args)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import mubkit.cli  # noqa: F401  (loads every traced module)
        from mubkit.phases import ExactPhase, PhaseMatrix

        replacements = {}
        for span, (mod_name, names) in FUNCTION_SPANS.items():
            module = sys.modules[f"mubkit.{mod_name}"]
            for fname in names or _public_functions(module):
                fn = getattr(module, fname)
                if fn in replacements:  # listed under a more specific span
                    continue
                replacements[fn] = self.wrap(span, fn, self._result_hook(span))

        for module_name, module in list(sys.modules.items()):
            if module_name != "mubkit" and not module_name.startswith("mubkit."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._set(module, attr, replacements[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in replacements:
                            self._set_item(value, key, replacements[item])

        for span, attr in METHOD_SPANS.items():
            raw = vars(PhaseMatrix)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(span, raw.__func__))
            else:
                wrapped = self.wrap(span, raw, self._result_hook(span))
            self._set(PhaseMatrix, attr, wrapped)

        counters = self.counters
        init = vars(ExactPhase)["__init__"]

        def counted_init(obj, turns):
            counters["phases.exact_phase.created"] += 1
            init(obj, turns)

        self._set(ExactPhase, "__init__", counted_init)

    def _result_hook(self, span: str):
        counters = self.counters
        if span == "phases.matmul":
            def hook(result):
                if isinstance(result, np.ndarray):
                    counters["phases.matmul.dense_fallbacks"] += 1
            return hook
        if span == "cli.render":
            def hook(result):
                counters["cli.output_bytes"] += len(result.encode())
            return hook
        if span.startswith("verify."):
            def hook(result):
                counters["verify.checks"] += len(result)
            return hook
        return None

    def _set(self, owner, attr, value) -> None:
        self._undo.append((setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value) -> None:
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, key, old = self._undo.pop()
            restore(owner, key, old)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start), "end": np.array(self.end),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op, dtype=np.int32)}

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) and self seconds.

        Self time is the span's duration minus the durations of its
        direct children; spans of one thread nest, so children never
        overlap each other.
        """
        if not self.start:
            return {}
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_total = np.bincount(a["name"], weights=self_s, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(self_total[i])} for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())
