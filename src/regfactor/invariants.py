"""Per-cross invariants: the characteristic minor attached to each cross of
the diagram, its degree, and its highest coefficient.

Each cross selects the columns and rows of its minor (``weyl.CrossData``).
The highest coefficient of the resulting minor is an invariant of the
coadjoint action; taken over all crosses these invariants are triangular
in the cross variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import weyl
from .diagram import Diagram, build_diagram
from .errors import ConstructionError, InputError
from .minors import MinorSpec, is_extremal, minor_top
from .poly import Polynomial
from .roots import RegularIdeal, Root


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


def _record(
    ideal: RegularIdeal, crosses: Sequence[Root], data: weyl.CrossData
) -> InvariantRecord:
    """Assemble the record for one cross, checking every structural
    expectation along the way (raises ConstructionError on violation)."""
    xi = data.xi
    spec = MinorSpec(data.rows, data.cols)
    degree, top = minor_top(ideal, spec)
    if degree < 0:
        raise ConstructionError(f"characteristic minor of {xi} vanishes")
    invariant = top.normalize_sign()
    d_star: Optional[int] = None
    if data.case == 1:
        if degree != 0:
            raise ConstructionError(f"case-1 minor of {xi} has degree {degree}")
    else:
        d_star = weyl.segment_data(ideal, crosses, data).d_star
        if degree != d_star:
            raise ConstructionError(
                f"minor of {xi} has degree {degree}, segment data predicts {d_star}"
            )
    if not is_extremal(ideal, spec, degree):
        raise ConstructionError(f"characteristic minor of {xi} is not extremal")
    return InvariantRecord(
        xi=xi,
        case=data.case,
        h=data.h,
        spec=spec,
        degree=degree,
        invariant=invariant,
        d_star=d_star,
        extremal=True,
    )


def invariant_for(ideal: RegularIdeal, crosses: Sequence[Root], xi: Root) -> InvariantRecord:
    """The record of one cross ``xi`` of ``crosses`` (raises InputError when
    it is not one, ConstructionError on a structural violation)."""
    for data in weyl.cross_data(ideal.n, crosses):
        if data.xi == tuple(xi):
            return _record(ideal, crosses, data)
    raise InputError(f"{xi} is not a cross of the diagram")


def all_invariants(
    ideal: RegularIdeal, diagram: Optional[Diagram] = None
) -> list[InvariantRecord]:
    """One record per cross of the diagram, in decreasing cross order.
    ``diagram`` may pass in the ideal's already built diagram."""
    if diagram is None:
        diagram = build_diagram(ideal)
    return [
        _record(ideal, diagram.crosses, data)
        for data in weyl.cross_data(ideal.n, diagram.crosses)
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
