"""Per-cross invariants: the characteristic minor attached to each cross of
the diagram, its degree, and its highest coefficient.

Each cross (k,t) selects columns J (the j <= t whose image under the
reflection product through the cross stays at or above h) and rows I:
in case 1 the images of J, in case 2 the segment [h,t] together with the
rows above t whose image falls below h.  The highest coefficient of the
resulting minor is an invariant of the coadjoint action; taken over all
crosses these invariants are triangular in the cross variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import weyl
from .diagram import Diagram, build_diagram
from .errors import ConstructionError
from .minors import CharMatrix, MinorSpec, characteristic_matrix, is_extremal, minor_top
from .poly import Polynomial
from .roots import RegularIdeal, Root


def minor_support(n: int, crosses: Sequence[Root], xi: Root) -> MinorSpec:
    """Rows and columns of the characteristic minor attached to a cross."""
    k, t = xi
    h, case = weyl.case_of(n, crosses, xi)
    cols = weyl.minor_columns(n, crosses, xi)
    if cols != tuple(range(min(cols), t + 1)):
        raise ConstructionError(f"columns of {xi} are not a segment ending at {t}: {cols}")
    w_xi = weyl.reflections_through(n, crosses, xi)
    if case == 1:
        rows = tuple(sorted(w_xi(j) for j in cols))
    else:
        extra = [i for i in range(t + 1, n + 1) if w_xi(i) < h]
        rows = tuple(list(range(h, t + 1)) + extra)
    if len(rows) != len(cols):
        raise ConstructionError(f"row and column counts differ for {xi}: {rows} vs {cols}")
    return MinorSpec(rows, cols)


@dataclass(frozen=True)
class InvariantRecord:
    """Everything computed for one cross: minor support, degree, and
    invariant (the minor's highest coefficient)."""

    xi: Root
    case: int
    h: int
    spec: MinorSpec
    degree: int
    invariant: Polynomial
    d_star: Optional[int]
    extremal: bool

    @property
    def rows(self) -> tuple[int, ...]:
        return self.spec.rows

    @property
    def cols(self) -> tuple[int, ...]:
        return self.spec.cols

    def to_json(self) -> dict:
        return {
            "xi": list(self.xi),
            "case": self.case,
            "h": self.h,
            "rows": list(self.rows),
            "cols": list(self.cols),
            "degree": self.degree,
            "d_star": self.d_star,
            "P": str(self.invariant),
            "extremal": self.extremal,
        }


def invariant_for(
    ideal: RegularIdeal,
    crosses: Sequence[Root],
    xi: Root,
    matrix: Optional[CharMatrix] = None,
) -> InvariantRecord:
    """Assemble the record for one cross, checking every structural
    expectation along the way (raises ConstructionError on violation)."""
    n = ideal.n
    h, case = weyl.case_of(n, crosses, xi)
    spec = minor_support(n, crosses, xi)
    if matrix is None:
        matrix = characteristic_matrix(ideal)
    degree, top = minor_top(matrix, spec)
    if degree < 0:
        raise ConstructionError(f"characteristic minor of {xi} vanishes")
    invariant = top.normalize_sign()
    d_star: Optional[int] = None
    if case == 1:
        if degree != 0:
            raise ConstructionError(f"case-1 minor of {xi} has degree {degree}")
    else:
        data = weyl.segment_data(ideal, crosses, xi, spec.cols)
        d_star = data.d_star
        if degree != d_star:
            raise ConstructionError(
                f"minor of {xi} has degree {degree}, segment data predicts {d_star}"
            )
    if not is_extremal(matrix, spec, degree):
        raise ConstructionError(f"characteristic minor of {xi} is not extremal")
    return InvariantRecord(
        xi=tuple(xi),
        case=case,
        h=h,
        spec=spec,
        degree=degree,
        invariant=invariant,
        d_star=d_star,
        extremal=True,
    )


def all_invariants(
    ideal: RegularIdeal, diagram: Optional[Diagram] = None
) -> list[InvariantRecord]:
    """One record per cross of the diagram, in decreasing cross order.
    ``diagram`` may pass in the ideal's already built diagram."""
    if diagram is None:
        diagram = build_diagram(ideal)
    matrix = characteristic_matrix(ideal)
    return [
        invariant_for(ideal, diagram.crosses, xi, matrix) for xi in diagram.crosses
    ]


def triangular_decomposition(record: InvariantRecord) -> tuple[Polynomial, Polynomial]:
    """Split the invariant as y_xi * Q + R with Q nonzero and Q, R free of
    y_xi and built only from columns left of the cross or from deeper rows
    of its own column."""
    k, t = record.xi
    xi = (k, t)
    q_terms: dict = {}
    r_terms: dict = {}
    for mono, coef in record.invariant.terms.items():
        exponent = next((e for r, e in mono if r == xi), 0)
        if exponent == 0:
            r_terms[mono] = coef
        elif exponent == 1:
            reduced = tuple(pair for pair in mono if pair[0] != xi)
            q_terms[reduced] = coef
        else:
            raise ConstructionError(
                f"invariant of {xi} has degree {exponent} in its own variable"
            )
    q, r = Polynomial(q_terms), Polynomial(r_terms)
    if q.is_zero:
        raise ConstructionError(f"invariant of {xi} does not involve its own variable")
    for part in (q, r):
        for (i, j) in part.variables():
            if j < t or (j == t and i > k):
                continue
            raise ConstructionError(
                f"decomposition of {xi} uses out-of-range variable y[{i},{j}]"
            )
    return q, r
