"""Exact linear algebra on integer matrices: the elimination kernel behind
the oracle and the report's ranks.

Rank and kernel both run on one fraction-free elimination (Bareiss 1968)
over the integers.  The kernel takes the full Gauss-Jordan reduction; rank
runs only its forward pass, which clears the rows below each pivot and
already counts the pivots.  The module reads only rows the library built
itself, lists of ``n_cols`` ints, and checks none of them.
"""

from __future__ import annotations

from math import gcd


def _eliminate(m: list[list[int]], n_cols: int, reduce: bool = True) -> list[int]:
    """Reduce ``m`` in place and return its pivot columns.

    Every step replaces each other row by (pivot * row - factor * pivot row)
    divided by the previous pivot, a division that is exact.  A row with a
    zero factor only scales by pivot / previous pivot, and is left as it is
    when that ratio is -1: every stored row is then plus or minus its
    Bareiss value, which keeps each later division exact.  At the end the
    rows are the nonzero ones only, each signed so that every pivot entry
    equals the last pivot d, and the other pivot columns are zero: ``m`` is
    d times the reduced row echelon form.

    With ``reduce`` false only the rows below each pivot are touched, the
    forward pass: the pivot columns are the same, since the rows above a
    pivot never take part in finding a later one, and ``m`` is left in
    echelon form only, with rows and signs as the pass left them.
    """
    pivots: list[int] = []
    prev = 1
    for c in range(n_cols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        top = m[r]
        pivot = top[c]
        for i in range(0 if reduce else r + 1, len(m)):
            row = m[i]
            factor = row[c]
            if i == r:
                continue
            if factor:
                m[i] = [(pivot * a - factor * b) // prev for a, b in zip(row, top)]
            elif pivot != prev and pivot != -prev:
                m[i] = [pivot * a // prev for a in row]
        m[r + 1:] = [row for row in m[r + 1:] if any(row)]
        prev = pivot
        pivots.append(c)
    del m[len(pivots):]
    if not reduce:
        return pivots
    for r, c in enumerate(pivots):
        if m[r][c] != prev:
            m[r] = [-a for a in m[r]]
    return pivots


def _rank(m: list[list[int]], n_cols: int) -> int:
    """Rank of ``m``: the pivot count of the forward elimination pass alone,
    with no clearing above the pivots.  ``m`` is changed in place."""
    return len(_eliminate(m, n_cols, reduce=False))


def _kernel(m: list[list[int]], n_cols: int) -> list[list[int]]:
    """Basis of the right kernel of ``m``, one vector per free column.

    Each vector is the one the reduced row echelon form gives for its free
    column (1 there, zero at the other free columns), scaled by a positive
    factor to coprime integers.  ``n_cols`` is passed so that an empty
    equation list still knows the ambient dimension.  ``m`` is reduced in
    place."""
    pivots = _eliminate(m, n_cols)
    d = m[0][pivots[0]] if pivots else 1
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        vec = [0] * n_cols
        vec[free] = d
        for row, col in zip(m, pivots):
            vec[col] = -row[free]
        g = gcd(*vec) if d > 0 else -gcd(*vec)
        basis.append([x // g for x in vec])
    return basis

