"""Spans around calls into the package's layers, and the per-layer metrics.

The benchmark does not change the package.  In a traced run it replaces the
package's public functions (and the few arithmetic methods named in
``METHODS``) with wrappers that record one span per call: name, duration,
the enclosing span, the request it belongs to, and whether the request or
its oracle made the call.  Spans stay in memory and are reduced to the
``per_layer`` metrics of BENCHMARK.json when the run ends.

A call made while a span of the same group is open is not recorded: that
avoids counting recursion twice, and it makes the three truncated-series
operations one group, so ``biseries_mul_s`` holds only the products
``symcurve`` asks for, not the ones inside ``__pow__`` or ``geometric_sum``.
Outside the timed call (while an input is drawn or an oracle checks an
answer) only the outermost calls are recorded.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("exactalg", "sl2rep", "classifier", "symcurve", "lefschetz", "cli")

_SERIES = "exactalg.series"


def _terms(poly) -> int:
    return sum(1 for _ in poly.terms())


def _laurent_products(args, result) -> int:
    """Term products done by the schoolbook product of two Laurent polys."""
    return _terms(args[0]) * _terms(args[1])


def _series_cells(args, result) -> int:
    """Integer cells (t-degree, x-degree) in a returned truncated series."""
    if result is None:
        return 0
    return sum(len(result.coefficient(t)) for t in range(result.tcap + 1))


def _module_size(args, result) -> tuple[int, int]:
    """(nonzeros of X, Y and H; largest weight space) of the checked module."""
    m = args[0]
    nnz = sum(len(op.row_items(i)) for op in (m.X, m.Y, m.H) for i in range(m.dim))
    return nnz, max(Counter(m.basis_weights).values())


def _top_degree(args, result) -> int:
    return args[0].top_degree


# (class path, method, group, count hook); absent ones are skipped, so the
# benchmark keeps running when a later version drops one of them.
METHODS = (
    ("exactalg.LaurentPoly", "__mul__", None, _laurent_products),
    ("exactalg.TruncatedBiseries", "__mul__", _SERIES, _series_cells),
    ("exactalg.TruncatedBiseries", "__pow__", _SERIES, _series_cells),
)

GROUPS = {"exactalg.geometric_sum": _SERIES}

NOTES = {
    "exactalg.geometric_sum": _series_cells,
    "sl2rep.factor_tensor_of_irreps": _top_degree,
    "lefschetz.verify_brackets": _module_size,
}


class Span:
    __slots__ = ("name", "group", "parent", "request", "phase", "seconds",
                 "child_seconds", "error", "note")

    def __init__(self, name, group, parent, request, phase):
        self.name = name
        self.group = group
        self.parent = parent
        self.request = request
        self.phase = phase
        self.seconds = 0.0
        self.child_seconds = 0.0
        self.error = None
        self.note = None


class Tracer:
    """Records spans of calls into the package; one per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self.phase = "request"
        self._stack: list[Span] = []

    def wrap(self, name, fn, group=None, note=None):
        group = group or name
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and (stack[-1].group == group or self.phase != "request"):
                return fn(*args, **kwargs)
            span = Span(name, group, stack[-1] if stack else None,
                        self.request, self.phase)
            stack.append(span)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.seconds = perf_counter() - start
                stack.pop()
                if span.parent is not None:
                    span.parent.child_seconds += span.seconds
                spans.append(span)
                if note is not None:
                    span.note = note(args, result)

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the layers, wherever it is bound."""
        modules = [getattr(package, layer) for layer in LAYERS]
        namespaces = [vars(m) for m in modules] + [vars(package)]
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not callable(obj)
                        or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, obj, GROUPS.get(name), NOTES.get(name))
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is obj:
                            ns[key] = wrapped
        for path, method, group, note in METHODS:
            layer, _, cls_name = path.partition(".")
            cls = getattr(getattr(package, layer), cls_name, None)
            if cls is not None and method in vars(cls):
                setattr(cls, method, self.wrap(f"{path}.{method}",
                                               vars(cls)[method], group, note))


def per_layer(spans, labels, answers) -> dict[str, float]:
    """Reduce spans to the per-layer metrics.

    ``labels`` maps a request index to its ladder-rung label; ``answers``
    holds the (kind, answer) of every traced request.  Only spans made by a
    request count, except that ``symcurve.closed_s`` also counts the calls
    the betti oracle makes: at this version no request calls ``betti_closed``
    outside the CLI, and the closed form is the reference route.
    """
    def total(name, phase="request", pick=lambda s: True):
        return sum(s.seconds for s in spans
                   if s.name == name and (phase is None or s.phase == phase)
                   and pick(s))

    def notes(name):
        return [s.note for s in spans
                if s.name == name and s.phase == "request" and s.note is not None]

    def rung_ms(name, label):
        return 1000 * total(name, pick=lambda s: labels.get(s.request) == label)

    factor = "sl2rep.factor_tensor_of_irreps"
    tops = notes(factor)
    seen: set[int] = set()
    repeats = 0
    for top in tops:
        repeats += top in seen
        seen.add(top)
    sizes = notes("lefschetz.verify_brackets")
    series_ops = ("exactalg.geometric_sum", "exactalg.TruncatedBiseries.__mul__",
                  "exactalg.TruncatedBiseries.__pow__")
    mains = [s for s in spans if s.name == "cli.main" and s.phase == "request"]
    return {
        "exactalg.laurent_mul_s": total("exactalg.LaurentPoly.__mul__"),
        "exactalg.laurent_terms": sum(notes("exactalg.LaurentPoly.__mul__")),
        "exactalg.geometric_sum_s": total("exactalg.geometric_sum"),
        "exactalg.biseries_mul_s": total("exactalg.TruncatedBiseries.__mul__"),
        "exactalg.biseries_pow_s": total("exactalg.TruncatedBiseries.__pow__"),
        "exactalg.series_cells": sum(sum(notes(op)) for op in series_ops),
        "sl2rep.factor_s": total(factor),
        "sl2rep.factor_calls": len(tops),
        "sl2rep.reject_s": total(factor, pick=lambda s: s.error == "FactorizationError"),
        "sl2rep.repeat_top_share": repeats / len(tops) if tops else 0.0,
        "sl2rep.factor_ms.top24": rung_ms(factor, "top24"),
        "sl2rep.factor_ms.top32": rung_ms(factor, "top32"),
        "sl2rep.factor_ms.top40": rung_ms(factor, "top40"),
        "classifier.classify_s": total("classifier.classify"),
        "classifier.character_s": total("classifier.cohomology_character"),
        "symcurve.series_s": total("symcurve.poincare_via_series"),
        "symcurve.closed_s": total("symcurve.betti_closed", phase=None),
        "symcurve.series_ms.n40": rung_ms("symcurve.poincare_via_series", "n40"),
        "symcurve.series_ms.n80": rung_ms("symcurve.poincare_via_series", "n80"),
        "symcurve.series_ms.n120": rung_ms("symcurve.poincare_via_series", "n120"),
        "lefschetz.build_s": total("lefschetz.build_cohomology_module")
        + total("lefschetz.tensor_modules"),
        "lefschetz.brackets_s": total("lefschetz.verify_brackets"),
        "lefschetz.hw_mult_s": total("lefschetz.highest_weight_multiplicities"),
        "lefschetz.irreducible_s": total("lefschetz.is_irreducible"),
        "lefschetz.nnz": sum(nnz for nnz, _ in sizes),
        "lefschetz.max_block": max((block for _, block in sizes), default=0),
        "cli.main_s": sum(s.seconds for s in mains),
        "cli.self_s": sum(s.seconds - s.child_seconds for s in mains),
        "cli.stdout_bytes": sum(len(answer[1].encode()) for kind, answer in answers
                                if kind == "cli" and answer is not None),
    }
