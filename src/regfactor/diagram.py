"""Symbol diagrams of regular factors.

The strictly lower triangle of an n-by-n grid is filled in steps.  Step 0
marks every root of the ideal with a bullet.  Each later step puts a cross
on the greatest empty cell (k,t) and then, for every a strictly between t
and k, a minus on (k,a) paired with a plus on (a,t), but only when both
cells of the pair are still empty.  Crosses count the functionally
independent invariants; plus and minus cells count the maximal orbit
dimension.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

from .errors import ConstructionError, require_ints
from .roots import RegularIdeal, Root, positive_roots
from .weyl import _reflection_product


class Symbol(enum.Enum):
    BULLET = "bullet"
    CROSS = "cross"
    PLUS = "plus"
    MINUS = "minus"


_CHAR = {Symbol.BULLET: "B", Symbol.CROSS: "X", Symbol.PLUS: "+", Symbol.MINUS: "-"}


class DiagramCounts(NamedTuple):
    crosses: int
    plus_minus: int
    bullets: int


@dataclass(frozen=True)
class Diagram:
    """A completed diagram: every positive root carries a symbol and the
    index of the step that placed it (bullets carry step 0)."""

    n: int
    cells: Mapping[Root, tuple[Symbol, int]]
    crosses: tuple[Root, ...]

    def symbol(self, root: Root) -> Symbol:
        return self.cells[tuple(root)][0]

    @property
    def step_count(self) -> int:
        return len(self.crosses)

    def counts(self) -> DiagramCounts:
        crosses = plus_minus = bullets = 0
        for symbol, _ in self.cells.values():
            if symbol is Symbol.CROSS:
                crosses += 1
            elif symbol is Symbol.BULLET:
                bullets += 1
            else:
                plus_minus += 1
        return DiagramCounts(crosses, plus_minus, bullets)

    def render(self, upto_step: Optional[int] = None) -> str:
        """Text grid; cells on or above the diagonal, and cells not yet
        filled after ``upto_step``, print as dots."""
        if upto_step is not None:
            require_ints((upto_step,), "upto_step must be an integer, got {!r}", upto_step)
        lines = []
        for i in range(1, self.n + 1):
            row = []
            for j in range(1, self.n + 1):
                cell = self.cells.get((i, j))
                if cell is None or (upto_step is not None and cell[1] > upto_step):
                    row.append(".")
                else:
                    row.append(_CHAR[cell[0]])
            lines.append("".join(row))
        return "\n".join(lines)

    def to_json(self) -> dict:
        cells = [
            {"root": [i, j], "symbol": self.cells[(i, j)][0].value, "step": self.cells[(i, j)][1]}
            for i in range(1, self.n + 1)
            for j in range(1, i)
        ]
        crosses, plus_minus, bullets = self.counts()
        return {
            "n": self.n,
            "cells": cells,
            "crosses": [list(r) for r in self.crosses],
            "counts": {"crosses": crosses, "plus_minus": plus_minus, "bullets": bullets},
        }


def build_diagram(ideal: RegularIdeal) -> Diagram:
    """Fill the grid for ``ideal`` and return the finished diagram."""
    order = positive_roots(ideal.n)
    cells: dict[Root, tuple[Symbol, int]] = {
        root: (Symbol.BULLET, 0) for root in ideal.roots
    }
    crosses: list[Root] = []
    step = 0
    while True:
        empty = next((r for r in order if r not in cells), None)
        if empty is None:
            break
        step += 1
        k, t = empty
        cells[empty] = (Symbol.CROSS, step)
        crosses.append(empty)
        for a in range(t + 1, k):
            row_cell, col_cell = (k, a), (a, t)
            if row_cell not in cells and col_cell not in cells:
                cells[row_cell] = (Symbol.MINUS, step)
                cells[col_cell] = (Symbol.PLUS, step)
    return Diagram(ideal.n, cells, tuple(crosses))


def crosscheck_symbols(ideal: RegularIdeal, diagram: Optional[Diagram] = None) -> None:
    """Re-derive every cell's symbol from reflection products and check it
    against the built diagram; raises ConstructionError on the first
    disagreement.

    For a cell eta = (b,t), take the products over the crosses of columns up
    to t-1 and up to t: the cell is a minus iff the shorter product sends
    eta to a negative root, a bullet iff the longer product keeps it
    positive, and a plus or cross (decided by cross membership) iff the
    shorter keeps it positive while the longer negates it.
    """
    if diagram is None:
        diagram = build_diagram(ideal)
    n = ideal.n
    cross_set = set(diagram.crosses)
    products = [
        _reflection_product(n, [r for r in diagram.crosses if r[1] <= t]) for t in range(n)
    ]
    for eta in positive_roots(n):
        before = products[eta[1] - 1].sends_positive(eta)
        after = products[eta[1]].sends_positive(eta)
        if before and after:
            derived = Symbol.BULLET
        elif not before and not after:
            derived = Symbol.MINUS
        elif before:
            derived = Symbol.CROSS if eta in cross_set else Symbol.PLUS
        else:
            raise ConstructionError(
                f"cell {eta} flips from negative back to positive across column {eta[1]}"
            )
        if derived is not diagram.symbol(eta):
            raise ConstructionError(
                f"cell {eta}: reflection rule gives {derived.value}, "
                f"diagram has {diagram.symbol(eta).value}"
            )
