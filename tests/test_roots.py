"""Root order, partial addition, and ideal closure."""

import ast
import itertools
import random
import re

import pytest

from regfactor import (
    InputError,
    RegularIdeal,
    close_ideal,
    positive_roots,
    prec_key,
)
from helpers import all_regular_ideals, ideal_doc, random_ideal, root_sum


def test_order_examples():
    # a smaller key is a greater root
    assert prec_key((7, 1)) < prec_key((6, 1))
    assert prec_key((2, 1)) < prec_key((7, 2))
    assert prec_key((5, 3)) == prec_key((5, 3))
    assert prec_key((6, 1)) > prec_key((7, 1))


def test_order_is_total_on_positive_roots():
    roots = positive_roots(6)
    # prec_key must sort them without ties, greatest first.
    keys = [prec_key(r) for r in roots]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)


def test_order_transitive_sample():
    roots = positive_roots(5)
    for a in roots:
        for b in roots:
            for c in roots:
                if prec_key(a) < prec_key(b) and prec_key(b) < prec_key(c):
                    assert prec_key(a) < prec_key(c)


def test_positive_roots_order_starts_in_first_column():
    assert positive_roots(4) == [
        (4, 1), (3, 1), (2, 1), (4, 2), (3, 2), (4, 3),
    ]


def test_root_sum_examples():
    assert root_sum((7, 6), (6, 2)) == (7, 2)
    assert root_sum((6, 2), (7, 6)) == (7, 2)
    assert root_sum((4, 1), (3, 2)) is None


def test_close_ideal_examples():
    assert close_ideal(7, [(5, 1), (7, 2)]).roots == frozenset(
        {(5, 1), (6, 1), (7, 1), (7, 2)}
    )
    assert close_ideal(4, []).roots == frozenset()
    assert close_ideal(4, [(2, 1)]).roots == frozenset({(2, 1), (3, 1), (4, 1)})


def test_close_ideal_idempotent_and_monotone():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 8)
        gens = [r for r in positive_roots(n) if rng.random() < 0.25]
        ideal = close_ideal(n, gens)
        assert close_ideal(n, sorted(ideal.roots)).roots == ideal.roots
        bigger = close_ideal(n, gens + [r for r in positive_roots(n) if rng.random() < 0.1])
        assert ideal.roots <= bigger.roots


def test_closure_invariant_recheck():
    rng = random.Random(11)
    for _ in range(25):
        ideal = random_ideal(rng)
        for a in ideal.roots:
            for b in positive_roots(ideal.n):
                total = root_sum(a, b)
                if total is not None:
                    assert total in ideal


def test_extreme_ideals_are_legal():
    assert close_ideal(4, positive_roots(4)).dim == 0
    assert close_ideal(4, []).dim == 6
    assert close_ideal(1, []).roots == frozenset()


def test_one_by_one_pipeline():
    from regfactor import all_invariants, build_diagram, full_report

    ideal = close_ideal(1, [])
    assert build_diagram(ideal).counts() == (0, 0, 0)
    assert all_invariants(ideal) == []
    assert full_report(ideal, trials=1).passed


def test_invalid_roots_rejected():
    with pytest.raises(InputError):
        close_ideal(4, [(1, 1)])
    with pytest.raises(InputError):
        close_ideal(4, [(2, 3)])
    with pytest.raises(InputError):
        close_ideal(4, [(5, 1)])
    with pytest.raises(InputError):
        close_ideal(4, [("a", 1)])
    # no silent coercion: floats, strings and bools are not integers
    for root in [(3.0, 1), (3.5, 1), ("3", "1"), (3, True), "31"]:
        with pytest.raises(InputError):
            close_ideal(4, [root])


def test_strict_mode():
    close_ideal(7, [(5, 1), (6, 1), (7, 1), (7, 2)], strict=True)
    with pytest.raises(InputError):
        close_ideal(7, [(5, 1), (7, 2)], strict=True)


def test_non_closed_constructor_rejected():
    with pytest.raises(InputError):
        RegularIdeal(7, frozenset({(5, 1)}))


@pytest.mark.parametrize("n", range(1, 6))
def test_constructor_accepts_exactly_the_regular_ideals(n):
    # Every subset of the positive roots: the closed ones are the ideals the
    # column-boundary construction lists, and each rejection cites a member
    # and a missing left or lower neighbour of it.
    roots = positive_roots(n)
    accepted = set()
    for size in range(len(roots) + 1):
        for subset in map(frozenset, itertools.combinations(roots, size)):
            try:
                accepted.add(RegularIdeal(n, subset).roots)
            except InputError as exc:
                found = re.fullmatch(r"root set is not closed: (\(.*\)) requires (\(.*\))", str(exc))
                (i, j), missing = map(ast.literal_eval, found.groups())
                assert (i, j) in subset and missing not in subset
                assert missing in {(i, j - 1), (i + 1, j)} & set(roots)
    assert accepted == {ideal.roots for ideal in all_regular_ideals(n)}


def test_free_roots_and_json_round_trip():
    ideal = close_ideal(7, [(5, 1), (7, 2)])
    free = ideal.free_roots()
    assert len(free) == ideal.dim == 17
    assert all(r not in ideal for r in free)
    keys = [prec_key(r) for r in free]
    assert keys == sorted(keys)
    doc = ideal_doc(ideal)
    again = close_ideal(doc["n"], doc["ideal_generators"])
    assert again.roots == ideal.roots
