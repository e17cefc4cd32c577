"""Characteristic matrix of a regular factor and its minors.

The formal matrix carries a root variable on every strictly lower cell
outside the ideal, zero on ideal cells and on or above the diagonal; the
characteristic version subtracts the auxiliary variable on the diagonal.
The matrix itself is never built: every minor function takes the ideal, and
``_row_cells`` reads the selected cells off it.  A minor is extremal when
its degree strictly drops under every one-step row-down and column-left
shift.

Every nonzero off-diagonal cell carries its own variable, so distinct
permutations give distinct monomials and a minor has no cancellation.  Its
degree in the auxiliary variable is the largest number of diagonal cells in
a perfect matching of its support, and its highest coefficient is the
signed sum over exactly those matchings, every coefficient +-1 (the
matching view of generic determinants: Edmonds 1967; Murota, Matrices and
Matroids).  ``minor_degree`` and ``minor_top`` read both off integer passes
over column masks; no function expands the whole minor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal, Optional

from .errors import DEFAULT_BUDGET, BudgetError, InputError, require_count, require_ints
from .poly import Polynomial
from .roots import RegularIdeal, Root, prec_key


@dataclass(frozen=True)
class MinorSpec:
    """Row and column sets of a minor, kept ascending and of equal size."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        rows, cols = tuple(self.rows), tuple(self.cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        require_ints(rows + cols, "rows and columns must be integers: {} {}", rows, cols)
        if len(rows) != len(cols):
            raise InputError(f"row and column counts differ: {rows} vs {cols}")
        for seq, kind in ((rows, "rows"), (cols, "cols")):
            if any(a >= b for a, b in zip(seq, seq[1:])) or any(x < 1 for x in seq):
                raise InputError(f"{kind} must be strictly ascending and positive: {seq}")

    @property
    def size(self) -> int:
        return len(self.rows)

    def to_json(self) -> dict:
        return {"rows": list(self.rows), "cols": list(self.cols)}


def _check_fits(ideal: RegularIdeal, spec: MinorSpec) -> None:
    n = ideal.n
    if spec.rows and (spec.rows[-1] > n or spec.cols[-1] > n):
        raise InputError(f"minor {spec} does not fit a {n}x{n} matrix")


def _row_cells(ideal: RegularIdeal, spec: MinorSpec) -> list[list[tuple[int, Optional[Root]]]]:
    """Nonzero cells of the minor, row by row, as (column index, root); the
    root is None on a diagonal cell."""
    _check_fits(ideal, spec)
    return [
        [
            (c, None if i == j else (i, j))
            for c, j in enumerate(spec.cols)
            if i == j or (i > j and (i, j) not in ideal)
        ]
        for i in spec.rows
    ]


def _tail_degrees(cells: list[list[tuple[int, Optional[Root]]]]) -> dict[int, int]:
    """Backward pass: for every column set that the last rows of the minor
    can fill exactly, the most diagonal cells such a filling uses.  The rows
    a mask belongs to follow from its popcount, so one dict holds all."""
    tail = {0: 0}
    layer = tail
    for row in reversed(cells):
        nxt: dict[int, int] = {}
        for mask, best in layer.items():
            for c, root in row:
                if mask >> c & 1:
                    continue
                key = mask | 1 << c
                value = best + (root is None)
                if nxt.get(key, -1) < value:
                    nxt[key] = value
        if not nxt:
            break
        tail.update(nxt)
        layer = nxt
    return tail


def minor_degree(ideal: RegularIdeal, spec: MinorSpec) -> int:
    """Degree of the minor in the auxiliary variable; -1 for a zero minor."""
    return _tail_degrees(_row_cells(ideal, spec)).get((1 << spec.size) - 1, -1)


def minor_top(ideal: RegularIdeal, spec: MinorSpec) -> tuple[int, Polynomial]:
    """Degree of the minor and its highest coefficient in the auxiliary
    variable, a polynomial in the root variables; (-1, 0) for a zero minor.

    Forward pass over rows: a partial matching survives only while the
    backward pass says its remaining rows can still reach the degree, so
    every kept term ends in the highest coefficient.
    """
    cells = _row_cells(ideal, spec)
    tail = _tail_degrees(cells)
    full = (1 << len(cells)) - 1
    degree = tail.get(full, -1)
    if degree < 0:
        return -1, Polynomial.zero()
    # Each diagonal cell holds -lambda: its sign is folded in up front.
    layer: dict[int, list[tuple[tuple, int]]] = {0: [((), -1 if degree % 2 else 1)]}
    for row in cells:
        nxt: dict[int, list[tuple[tuple, int]]] = {}
        for mask, terms in layer.items():
            rest = tail[full ^ mask]
            for c, root in row:
                if mask >> c & 1:
                    continue
                key = mask | 1 << c
                if tail.get(full ^ key) != rest - (root is None):
                    continue
                # Parity of already-used columns to the right of c.
                flip = -1 if (mask >> (c + 1)).bit_count() & 1 else 1
                cell = () if root is None else (root,)
                nxt.setdefault(key, []).extend(
                    (roots + cell, sign * flip) for roots, sign in terms
                )
        layer = nxt
    return degree, Polynomial(
        {tuple((r, 1) for r in sorted(roots, key=prec_key)): sign for roots, sign in layer[full]}
    )


Direction = Literal["down", "left"]


def shift_spec(spec: MinorSpec, i: int, direction: Direction) -> Optional[MinorSpec]:
    """One-step shift: replace row i by i+1 (down) when i is a row and i+1
    is not, or column i+1 by i (left) when i+1 is a column and i is not.
    Returns None in all other cases."""
    require_count(i, "shift index", 1)
    if direction not in ("down", "left"):
        raise InputError(f"unknown shift direction {direction!r}")
    shifted = _shift(spec, i, direction)
    return None if shifted is None else MinorSpec(shifted.rows, shifted.cols)


def _shift(spec: MinorSpec, i: int, direction: Direction) -> Optional[MinorSpec]:
    """``shift_spec`` without its checks.  Moving a row or column onto a free
    neighbour keeps a valid spec valid, so ``MinorSpec``'s checks are skipped."""
    rows, cols = spec.rows, spec.cols
    if direction == "down":
        if i not in rows or i + 1 in rows:
            return None
        rows = tuple([i + 1 if r == i else r for r in rows])
    elif i + 1 in cols and i not in cols:
        cols = tuple([i if c == i + 1 else c for c in cols])
    else:
        return None
    shifted = object.__new__(MinorSpec)
    shifted.__dict__.update(rows=rows, cols=cols)
    return shifted


def is_extremal(ideal: RegularIdeal, spec: MinorSpec, degree: Optional[int] = None) -> bool:
    """Whether the minor's degree strictly drops under every shift.

    Vanishing or impossible shifts count as a drop; a zero minor itself is
    rejected as input.  ``degree`` may pass in the minor's known degree.
    The shifts come from ``_shift``, without ``shift_spec``'s checks.
    """
    if degree is None:
        degree = minor_degree(ideal, spec)
    if degree < 0:
        raise InputError(f"minor {spec} is zero; extremality is undefined")
    for i in range(1, ideal.n):
        for direction in ("down", "left"):
            shifted = _shift(spec, i, direction)
            if shifted is not None and minor_degree(ideal, shifted) >= degree:
                return False
    return True


def enumerate_extremal(
    ideal: RegularIdeal,
    max_size: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> list[MinorSpec]:
    """All extremal minors with a nonconstant highest coefficient, up to the
    given size, in canonical (size, rows, cols) order.

    Each candidate's degree comes from ``minor_degree`` and is passed on to
    ``is_extremal``.  Minors of full diagonal degree are skipped: their
    highest coefficient is a scalar and carries no invariant.  Raises
    InputError, before any work, unless ``budget`` is an int of at least 0
    and ``max_size`` None or an int of at least 1; and BudgetError (partial
    results attached, flagged invalid) when the scan would examine more
    candidate specs than ``budget``.
    """
    require_count(budget, "budget", 0)
    if max_size is not None:
        require_count(max_size, "max_size", 1)
    n = ideal.n
    max_size = n if max_size is None else min(max_size, n)
    results: list[MinorSpec] = []
    examined = 0
    for size in range(1, max_size + 1):
        for rows in itertools.combinations(range(1, n + 1), size):
            for cols in itertools.combinations(range(1, n + 1), size):
                examined += 1
                if examined > budget:
                    raise BudgetError(
                        f"extremal scan exceeded budget of {budget} specs",
                        partial=results,
                    )
                spec = MinorSpec(rows, cols)
                degree = minor_degree(ideal, spec)
                if degree < 0 or degree == size:
                    continue
                if is_extremal(ideal, spec, degree):
                    results.append(spec)
    return results
