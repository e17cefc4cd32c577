"""Diagram construction, the reflection re-derivation of symbols, and the
count identities."""

import dataclasses
import re

import pytest

from regfactor import (
    ConstructionError,
    Symbol,
    build_diagram,
    close_ideal,
    crosscheck_symbols,
    positive_roots,
    prec_key,
)
from helpers import (
    N7_CROSSES,
    N7_GRID_STEPS,
    grid,
    n7_ideal,
    random_ideals,
)


def test_n7_reference_final_grid():
    diagram = build_diagram(n7_ideal())
    assert diagram.render() == grid(N7_GRID_STEPS[-1])
    assert diagram.crosses == N7_CROSSES


def test_n7_reference_step_trace():
    diagram = build_diagram(n7_ideal())
    assert diagram.step_count == 5
    for step, expected in enumerate(N7_GRID_STEPS):
        assert diagram.render(upto_step=step) == grid(expected), f"step {step}"


def test_n7_reference_counts():
    counts = build_diagram(n7_ideal()).counts()
    assert counts == (5, 12, 4)


def test_small_examples():
    d3 = build_diagram(close_ideal(3, []))
    assert d3.symbol((3, 1)) is Symbol.CROSS
    assert d3.symbol((3, 2)) is Symbol.MINUS
    assert d3.symbol((2, 1)) is Symbol.PLUS
    assert d3.crosses == ((3, 1),)
    assert d3.counts() == (1, 2, 0)

    d2 = build_diagram(close_ideal(2, [(2, 1)]))
    assert d2.symbol((2, 1)) is Symbol.BULLET
    assert d2.crosses == ()
    assert d2.counts() == (0, 0, 1)


def test_symbol_rule_examples():
    # a diagram that disagrees with the reflection rule at one cell is
    # caught there, and the message names the symbol the rule derives
    ideal = n7_ideal()
    diagram = build_diagram(ideal)
    crosscheck_symbols(ideal, diagram)
    derived = {(4, 2): Symbol.MINUS, (7, 2): Symbol.BULLET, (6, 4): Symbol.PLUS,
               (7, 4): Symbol.CROSS}
    for eta, symbol in derived.items():
        wrong = Symbol.PLUS if symbol is Symbol.MINUS else Symbol.MINUS
        bad = dataclasses.replace(diagram, cells={**diagram.cells, eta: (wrong, 1)})
        message = f"cell {eta}: reflection rule gives {symbol.value}, diagram has {wrong.value}"
        with pytest.raises(ConstructionError, match=re.escape(message)):
            crosscheck_symbols(ideal, bad)


def test_symbol_rule_agrees_everywhere():
    for ideal in random_ideals(30, seed=101):
        crosscheck_symbols(ideal)


def test_count_identities():
    for ideal in random_ideals(30, seed=102):
        diagram = build_diagram(ideal)
        crosses, plus_minus, bullets = diagram.counts()
        total = ideal.n * (ideal.n - 1) // 2
        assert crosses + plus_minus + bullets == total
        assert bullets == len(ideal.roots)
        assert crosses + plus_minus == ideal.dim
        plus = sum(
            1 for s, _ in diagram.cells.values() if s is Symbol.PLUS
        )
        minus = sum(
            1 for s, _ in diagram.cells.values() if s is Symbol.MINUS
        )
        assert plus == minus


def test_every_cell_filled_once_and_steps_bounded():
    for ideal in random_ideals(20, seed=103):
        diagram = build_diagram(ideal)
        assert set(diagram.cells) == set(positive_roots(ideal.n))
        for root, (symbol, step) in diagram.cells.items():
            if symbol is Symbol.BULLET:
                assert step == 0
                assert root in ideal
            else:
                assert 1 <= step <= diagram.step_count


def test_crosses_are_strictly_decreasing():
    for ideal in random_ideals(20, seed=104):
        crosses = build_diagram(ideal).crosses
        keys = [prec_key(r) for r in crosses]
        assert keys == sorted(keys)


def test_json_form():
    diagram = build_diagram(n7_ideal())
    doc = diagram.to_json()
    assert doc["n"] == 7
    assert doc["counts"] == {"crosses": 5, "plus_minus": 12, "bullets": 4}
    assert doc["crosses"] == [[4, 1], [6, 2], [7, 3], [7, 4], [5, 4]]
    assert len(doc["cells"]) == 21
    cell = next(c for c in doc["cells"] if c["root"] == [7, 4])
    assert cell == {"root": [7, 4], "symbol": "cross", "step": 4}
