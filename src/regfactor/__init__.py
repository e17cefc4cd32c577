"""Exact coadjoint invariants of regular factors of the unitriangular
Lie algebra: diagrams, permutations, characteristic minors, and a full
verification harness in exact integer arithmetic."""

from .diagram import (
    Diagram,
    DiagramCounts,
    Symbol,
    build_diagram,
    crosscheck_symbols,
)
from .errors import BudgetError, ConstructionError, InputError, RegFactorError
from .invariants import (
    InvariantRecord,
    all_invariants,
    invariant_for,
    triangular_decomposition,
)
from .minors import (
    MinorSpec,
    enumerate_extremal,
    is_extremal,
    minor_degree,
    minor_top,
    shift_spec,
)
from .oracle import oracle_invariants
from .poly import Polynomial, bracket_single
from .roots import (
    RegularIdeal,
    Root,
    close_ideal,
    positive_roots,
    prec_key,
)
from .verify import (
    CheckResult,
    DualPoint,
    GroupElement,
    SkewStats,
    VerificationReport,
    check_invariance,
    coadjoint_act,
    full_report,
    skew_rank_stats,
)
from .weyl import (
    CrossData,
    Permutation,
    SegmentData,
    column_max_permutation,
    cross_data,
    inversions,
    reflection_product,
    segment_data,
)

__version__ = "0.1.0"

__all__ = [
    "Diagram", "DiagramCounts", "Symbol", "build_diagram", "crosscheck_symbols",
    "BudgetError", "ConstructionError", "InputError", "RegFactorError",
    "InvariantRecord", "all_invariants", "invariant_for", "triangular_decomposition",
    "MinorSpec", "enumerate_extremal", "is_extremal", "minor_degree", "minor_top",
    "shift_spec",
    "Polynomial", "bracket_single",
    "RegularIdeal", "Root", "close_ideal", "positive_roots", "prec_key",
    "CheckResult", "DualPoint", "GroupElement", "SkewStats", "VerificationReport",
    "check_invariance", "coadjoint_act", "full_report", "oracle_invariants",
    "skew_rank_stats",
    "CrossData", "Permutation", "SegmentData", "column_max_permutation", "cross_data",
    "inversions", "reflection_product", "segment_data",
]
