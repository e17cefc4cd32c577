"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces every binding of each public regfactor function
and method, in module namespaces, class dictionaries and dispatch tables
such as ``cli._COMMANDS``, with one timing wrapper per function.  Names
re-imported with ``from .x import y`` therefore report under the module
that defines them.  Spans (name, start, end, parent, operation id) are kept
in flat arrays while the workload runs and written out after it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
from array import array
from collections import defaultdict
from math import comb
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "roots", "diagram", "weyl", "minors", "invariants", "poly", "linalg", "verify")

# Leaf helpers that cost less than a wrapper would add; their time stays in
# the caller's self time.
UNWRAPPED = {
    "roots.prec_key",
    "roots.compare_prec",
    "roots.root_sum",
    "roots.check_root",
    "poly.bracket_single",
    "poly.evaluate",  # module alias that only forwards to Polynomial.evaluate
    "weyl.Permutation.on_root",
    "weyl.Permutation.sends_positive",
    "diagram.Diagram.symbol",
    "diagram.Diagram.step",
    "minors.CharMatrix.entry",
    "poly.LambdaPolynomial.coefficient",
    "poly.Polynomial.variables",
}

# Dunder methods traced in addition to the public names (``__rmul__`` is
# the same function as ``__mul__`` and shares its wrapper).
DUNDERS = {"poly.LambdaPolynomial.__mul__"}

# Per-layer metrics whose span name differs from the metric name.
ALIASES = {
    "poly.lambda_mul": "poly.LambdaPolynomial.__mul__",
    "poly.evaluate": "poly.Polynomial.evaluate",
}

TIMED = (
    "roots.close_ideal", "diagram.build_diagram", "diagram.crosscheck_symbols",
    "minors.minor_lambda", "minors.is_extremal", "minors.enumerate_extremal",
    "poly.lambda_mul", "poly.poisson_bracket_generator", "poly.evaluate",
    "poly.jacobian_rank", "linalg.rank", "linalg.in_span", "linalg.nullspace",
    "verify.check_invariance", "verify.coadjoint_act", "verify.skew_rank_stats",
    "verify.oracle_invariants",
)
CALLED = (
    "diagram.build_diagram", "weyl.reflections_through", "minors.minor_lambda",
    "invariants.invariant_for", "poly.lambda_mul", "poly.poisson_bracket_generator",
    "poly.evaluate", "linalg.rank", "linalg.nullspace", "verify.coadjoint_act",
)
COUNTERS = (
    "minors.minor_lambda.size_sum", "minors.enumerate_extremal.specs",
    "minors.enumerate_extremal.found", "poly.polynomials_built", "poly.evaluate.terms",
    "linalg.cells", "verify.oracle.monomials",
)
SELF = tuple(f"{m}.self_s" for m in MODULES) + ("verify.full_report.self_s",)


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.s": "s" for name in TIMED}
    units.update({f"{name}.calls": "count" for name in CALLED})
    units.update({name: "count" for name in COUNTERS})
    units.update({name: "s" for name in SELF})
    return units


def _bound(fn):
    signature = inspect.signature(fn)

    def arguments(args, kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        return call.arguments

    return arguments


def _scan_counts(fn):
    arguments = _bound(fn)

    def count(counts, args, kwargs, result):
        call = arguments(args, kwargs)
        n = call["ideal"].n
        top = n if call["max_size"] is None else min(call["max_size"], n)
        counts["minors.enumerate_extremal.specs"] += sum(comb(n, s) ** 2 for s in range(1, top + 1))
        counts["minors.enumerate_extremal.found"] += len(result)

    return count


def _oracle_counts(fn):
    arguments = _bound(fn)

    def count(counts, args, kwargs, result):
        call = arguments(args, kwargs)
        variables = len(call["ideal"].free_roots())
        degree = call["max_degree"]
        counts["verify.oracle.monomials"] += comb(variables + degree, degree) - 1 if variables else 0

    return count


def _minor_counts(fn):
    def count(counts, args, kwargs, result):
        counts["minors.minor_lambda.size_sum"] += args[1].size

    return count


def _evaluate_counts(fn):
    def count(counts, args, kwargs, result):
        counts["poly.evaluate.terms"] += len(args[0].terms)

    return count


# Work counters recorded at the same boundary as the span, built per function.
COUNTED = {
    "minors.minor_lambda": _minor_counts,
    "minors.enumerate_extremal": _scan_counts,
    "poly.Polynomial.evaluate": _evaluate_counts,
    "verify.oracle_invariants": _oracle_counts,
}


def _cells(span: str, args) -> int:
    """rows x cols of the matrix handed to a linalg entry point."""
    if span == "linalg.in_span":
        return (len(args[0]) + 1) * len(args[1])
    if span == "linalg.nullspace":
        return len(args[0]) * args[1]
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


class Tracer:
    """Span store and the wrappers that fill it; ``clock`` times the spans."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("I")
        self.stack = [-1]
        self.op_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.round_counts: list[dict] = []

    def _wrap(self, fn, span: str):
        name_id = self.name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        counter = COUNTED[span](fn) if span in COUNTED else None
        linalg_entry = span.startswith("linalg.")
        t = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t.span_name)
            parent = t.stack[-1]
            t.span_name.append(name_id)
            t.parent.append(parent)
            t.op.append(t.op_id)
            t.end.append(0.0)
            t.stack.append(idx)
            if linalg_entry and (parent < 0 or not t.names[t.span_name[parent]].startswith("linalg.")):
                t.counts["linalg.cells"] += _cells(span, args)
            t.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t.end[idx] = clock()
                t.stack.pop()
            if counter:
                counter(t.counts, args, kwargs, result)
            return result

        return traced

    def _count_init(self, init):
        counts = self.counts

        @functools.wraps(init)
        def counted_init(*args, **kwargs):
            counts["poly.polynomials_built"] += 1
            return init(*args, **kwargs)

        return counted_init

    def install(self, package) -> None:
        """Wrap the public functions and methods of every traced module."""
        modules = [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    span = f"{short}.{name}"
                    if not name.startswith("_") and span not in UNWRAPPED:
                        wrappers[id(obj)] = self._wrap(obj, span)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj, f"{short}.{name}")
        for namespace in [vars(package)] + [vars(m) for m in modules]:
            for name, obj in list(namespace.items()):
                if id(obj) in wrappers:
                    namespace[name] = wrappers[id(obj)]
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if id(value) in wrappers:
                            obj[key] = wrappers[id(value)]

    def _install_class(self, cls, prefix: str) -> None:
        """Wrap the public methods and the DUNDERS; aliases such as
        ``__rmul__ = __mul__`` share one wrapper.  Classmethod constructors
        stay unwrapped: ``poly.polynomials_built`` counts what they build."""
        if prefix == "poly.Polynomial":
            cls.__init__ = self._count_init(cls.__init__)
        done: dict[int, object] = {}
        for name, raw in list(vars(cls).items()):
            if not inspect.isfunction(raw):
                continue
            span = f"{prefix}.{raw.__name__}"
            if (name.startswith("_") and span not in DUNDERS) or span in UNWRAPPED:
                continue
            if id(raw) not in done:
                done[id(raw)] = self._wrap(raw, span)
            setattr(cls, name, done[id(raw)])

    def end_round(self) -> None:
        self.round_counts.append(dict(self.counts))
        self.counts.clear()

    def layer_metrics(self, ops_per_round: int) -> tuple[dict, float]:
        """Per-round values of every per-layer metric, as medians over rounds,
        and the median round's traced time (the base for layer shares)."""
        rounds = len(self.round_counts)
        names = self.names
        module_of = [name.split(".")[0] for name in names]
        canon = {v: k for k, v in ALIASES.items()}
        per_round = [defaultdict(float) for _ in range(rounds)]
        child = [0.0] * len(self.span_name)
        for idx in range(len(self.span_name) - 1, -1, -1):
            parent = self.parent[idx]
            duration = self.end[idx] - self.start[idx]
            acc = per_round[self.op[idx] // ops_per_round]
            if parent >= 0:
                child[parent] += duration
            else:
                acc["round_s"] += duration
            name = names[self.span_name[idx]]
            key = canon.get(name, name)
            acc[f"{module_of[self.span_name[idx]]}.self_s"] += duration - child[idx]
            acc[f"{key}.calls"] += 1
            if name == "verify.full_report":
                acc["verify.full_report.self_s"] += duration - child[idx]
            ancestor = parent
            while ancestor >= 0 and self.span_name[ancestor] != self.span_name[idx]:
                ancestor = self.parent[ancestor]
            if ancestor < 0:
                acc[f"{key}.s"] += duration
        for acc, counts in zip(per_round, self.round_counts):
            acc.update(counts)
        metrics = {
            name: statistics.median(acc.get(name, 0) for acc in per_round)
            for name in metric_units()
        }
        return metrics, statistics.median(acc["round_s"] for acc in per_round)

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_s\tend_s\tparent\top\n")
            names = self.names
            for idx in range(len(self.span_name)):
                out.write(f"{names[self.span_name[idx]]}\t{self.start[idx]:.7f}\t"
                          f"{self.end[idx]:.7f}\t{self.parent[idx]}\t{self.op[idx]}\n")
