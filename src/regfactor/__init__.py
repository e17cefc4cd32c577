"""Exact coadjoint invariants of regular factors of the unitriangular
Lie algebra: diagrams, permutations, characteristic minors, and a full
verification harness in exact integer arithmetic.

Every library module is a lazy module: importing the package registers it
in ``sys.modules`` and its code runs on its first attribute access.  A
process that writes no bytecode compiles only the modules it uses, and the
public names below load their module when they are first read.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Public name table: module -> the names it exports.
_EXPORTS = {
    "diagram": ("Diagram", "DiagramCounts", "Symbol", "build_diagram", "crosscheck_symbols"),
    "errors": ("BudgetError", "ConstructionError", "InputError", "RegFactorError"),
    "invariants": ("InvariantRecord", "all_invariants", "invariant_for",
                   "triangular_decomposition"),
    "minors": ("MinorSpec", "enumerate_extremal", "is_extremal", "minor_degree", "minor_top",
               "shift_spec"),
    "poly": ("Polynomial", "bracket_single"),
    "roots": ("RegularIdeal", "Root", "close_ideal", "positive_roots", "prec_key"),
    "verify": ("CheckResult", "DualPoint", "GroupElement", "SkewStats", "VerificationReport",
               "check_invariance", "coadjoint_act", "full_report", "skew_rank_stats"),
    "oracle": ("oracle_invariants",),
    "weyl": ("CrossData", "Permutation", "SegmentData", "column_max_permutation",
             "cross_data", "inversions", "reflection_product", "segment_data"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def _register(module: str):
    """Put a lazy ``regfactor.<module>`` in ``sys.modules``."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


# linalg exports no public name; oracle and verify read it as a module.
for _module in ("linalg", *_EXPORTS):
    globals()[_module] = _register(_module)
del _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
