"""Spans around igabem's public functions, recorded from outside the program.

``Tracer.install`` replaces each public function under the name its callers
use (the names imported into ``igabem.experiments``, ``igabem.estimators``
and ``igabem.operators``, plus the methods of ``Curve``) by a wrapper that
records one span per call: name, parent span, start, end, and a count or
value read from the arguments or the result.  ``uninstall`` restores the
originals.  Spans stay in memory; ``write_spans`` stores them when the run ends.

A span is named after the module that defines the function, so
``rational_basis`` reached through ``operators`` and through ``estimators``
reports as ``splines.rational_basis``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


def _n_points(pos: int, key: str):
    def count(args, kwargs, result):
        ts = args[pos] if len(args) > pos else kwargs[key]
        return int(np.size(ts)), None
    return count


def _element_pairs(args, kwargs, result):
    n = args[0].knots.n_elements
    return n * (n + 1) // 2, None


def _condition(args, kwargs, result):
    return None, float(result[1])


def _new_elements(args, kwargs, result):
    before = {tuple(e) for e in args[0].curve.knots.elements.tolist()}
    after = result.curve.knots.elements.tolist()
    return sum(tuple(e) not in before for e in after), float(len(after))


# (module attribute, span name, count) per traced module
_MODULE_TARGETS = {
    "experiments": [
        ("reference_energy", "experiments.reference_energy", None),
        ("initial_state", "adaptivity.initial_state", None),
        ("galerkin_matrix", "operators.galerkin_matrix", _element_pairs),
        ("galerkin_rhs", "operators.galerkin_rhs", None),
        ("collocation_matrix", "operators.collocation_matrix", None),
        ("dirichlet_rhs", "operators.dirichlet_rhs", _n_points(2, "params")),
        ("solve_linear", "solve.solve_linear", _condition),
        ("energy_error_galerkin", "solve.energy_error_galerkin", None),
        ("energy_error_collocation", "solve.energy_error_collocation", None),
        ("aitken", "solve.aitken", None),
        ("sample_residual", "estimators.sample_residual", None),
        ("faermann_indicators", "estimators.faermann_indicators", None),
        ("residual_indicators", "estimators.residual_indicators", None),
        ("dorfler_marking", "adaptivity.dorfler_marking", None),
        ("refine", "adaptivity.refine", _new_elements),
        ("uniform_refine", "adaptivity.refine", _new_elements),
    ],
    "estimators": [
        ("single_layer_values", "operators.single_layer_values",
         _n_points(2, "params")),
        ("rational_basis", "splines.rational_basis", _n_points(2, "ts")),
        ("gauss_unit", "quadrature.gauss_unit", None),
        ("graded_unit", "quadrature.graded_unit", None),
    ],
    "operators": [
        ("rational_basis", "splines.rational_basis", _n_points(2, "ts")),
        ("gauss_unit", "quadrature.gauss_unit", None),
        ("gauss_log", "quadrature.gauss_log", None),
        ("graded_unit", "quadrature.graded_unit", None),
    ],
}

_CURVE_METHODS = [
    ("frame", _n_points(1, "ts")),
    ("point", None),
    ("tangent", None),
    ("speed", None),
    ("normal", None),
    ("param_delta", None),
    ("corner_params", None),
    ("refined", None),
]


# the count a span records, by span name, and the metric it is reported as
COUNT_NAMES = {
    "operators.galerkin_matrix": "operators.galerkin_matrix.pairs",
    "operators.dirichlet_rhs": "operators.dirichlet_rhs.points",
    "operators.single_layer_values": "operators.single_layer_values.points",
    "splines.rational_basis": "splines.rational_basis.points",
    "geometry.frame": "geometry.frame.points",
}


class Tracer:
    """Records spans of wrapped calls while installed."""

    def __init__(self):
        # one list per span: name, parent index (-1 at top), start, end,
        # count, value
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[4], span[5] = count(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, count) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, count))

    def install(self) -> None:
        import igabem.estimators
        import igabem.experiments
        import igabem.operators
        from igabem.geometry import Curve

        modules = {"experiments": igabem.experiments,
                   "estimators": igabem.estimators,
                   "operators": igabem.operators}
        for key, targets in _MODULE_TARGETS.items():
            for attr, name, count in targets:
                self._patch(modules[key], attr, name, count)
        for attr, count in _CURVE_METHODS:
            self._patch(Curve, attr, f"geometry.{attr}", count)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def write_spans(path, rounds: dict[int, list[list]]) -> None:
    """One JSON line per span: round, name, parent, start, end, count, value.
    Parents index the spans of the same round."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in rounds.items():
            for span in spans:
                fh.write(json.dumps([k] + span) + "\n")


def summarize(spans: list[list]) -> dict[str, float]:
    """Self time per span name (``<name>.s``), time including the spans it
    calls (``<name>.total_s``), summed counts, the largest
    condition estimate, the share of new elements per refinement, and the
    self time of ``operators.dirichlet_rhs`` split by the calling span."""
    child = np.zeros(len(spans))
    for name, parent, t0, t1, n, v in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    cond_max = 0.0
    new_el = total_el = 0.0
    for k, (name, parent, t0, t1, n, v) in enumerate(spans):
        own = t1 - t0 - child[k]
        self_s[name] += own
        total_s[name] += t1 - t0
        if name == "operators.dirichlet_rhs":
            caller = spans[parent][0].split(".")[-1] if parent >= 0 else "top"
            self_s[f"operators.dirichlet_rhs.in_{caller}"] += own
        if name in COUNT_NAMES:
            counts[COUNT_NAMES[name]] += n
        if name == "solve.solve_linear":
            cond_max = max(cond_max, v)
        elif name == "adaptivity.refine":
            new_el += n
            total_el += v
    out = {f"{name}.s": t for name, t in self_s.items()}
    out.update({f"{name}.total_s": t for name, t in total_s.items()})
    out.update(counts)
    out["solve.solve_linear.cond_max"] = cond_max
    out["adaptivity.elements_new_share"] = new_el / total_el if total_el else 0.0
    return out
