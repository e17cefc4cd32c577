"""The brute-force oracle in ``regfactor.oracle``: the public
``oracle_invariants`` basis, its equation system, and the report's
containment path on it."""

import hashlib
from collections import Counter
from itertools import combinations_with_replacement
from math import prod

import pytest

from regfactor import (
    BudgetError,
    InputError,
    Polynomial,
    all_invariants,
    close_ideal,
    full_report,
    oracle_invariants,
)
from regfactor import linalg, oracle, poly, verify
from helpers import (
    all_regular_ideals,
    assert_int_coefficients,
    bracket_equations,
    forced_closure,
    in_poly_span,
    n7_ideal,
    one_entry_columns,
    poisson_bracket_generator,
    reference_oracle,
    weight_code,
    y,
)


def test_oracle_columns_lie_between_round_one_and_the_closure():
    # The support rounds keep a subset of what the one-entry equations
    # leave, and drop only monomials that the one-entry rule, iterated over
    # the full equation set, forces; ``_system`` keeps exactly the rest.
    # Each member carries its exponents and n times its position code, the
    # sum of (degree + 1)**k over its copies' positions k.
    cases = [(ideal, 4) for n in range(1, 6) for ideal in all_regular_ideals(n)]
    for ideal, degree in cases + [(n7_ideal(), 4)]:
        variables = ideal.free_roots()
        moves = poly._generator_moves(ideal)
        _, groups = oracle._columns(ideal, degree, moves)
        kept = []
        for members in groups.values():
            for support, slots, exps, code in members:
                combo = tuple(support[s] for s in slots)
                assert list(exps) == [combo.count(k) for k in support]
                assert code == ideal.n * sum((degree + 1) ** k for k in combo)
                kept.append(tuple(variables[k] for k in combo))
        monos, equations = bracket_equations(ideal, degree)
        closure = forced_closure(equations)
        assert len(kept) == len(set(kept))
        assert set(kept) <= monos - one_entry_columns(equations), sorted(ideal.roots)
        assert monos - set(kept) <= closure, sorted(ideal.roots)
        solved = {tuple(variables[k] for k in combo)
                  for columns, _ in oracle._system(ideal, degree, moves).values()
                  for combo in columns.values()}
        assert solved == monos - closure, sorted(ideal.roots)
    assert (len(kept), len(monos)) == (89, 5984)


def blocks_of(basis, max_degree):
    """Oracle blocks, keyed by weight code, from basis elements that each
    hold one torus weight."""
    grouped = {}
    for p in basis:
        (code,) = {weight_code(m, max_degree) for m in p.terms}
        grouped.setdefault(code, []).append(p)
    blocks = {}
    for code, polys in grouped.items():
        monos = list(dict.fromkeys(m for p in polys for m in p.terms))
        blocks[code] = (monos, [[p.terms.get(m, 0) for m in monos] for p in polys])
    return blocks


def system_of(basis, ideal, max_degree):
    """An oracle equation system whose kernel is the span of ``basis``, each
    element of one torus weight: per weight, the basis monomials as kept
    columns, and as rows the nullspace of the basis vectors over them."""
    position = {root: k for k, root in enumerate(ideal.free_roots())}
    system = {}
    for code, (monos, vectors) in blocks_of(basis, max_degree).items():
        kept = {c: tuple(position[r] for r, e in m for _ in range(e)) for c, m in enumerate(monos)}
        rows = linalg.nullspace(vectors, len(monos))
        system[code] = (kept, [{c: x for c, x in enumerate(row) if x} for row in rows])
    return system


def containment(monkeypatch, ideal, system, polys):
    """The report's containment answer for each of ``polys`` and the basis
    size: their compiled terms read against the equation ``system``, put in
    place of the one the oracle builds."""
    monkeypatch.setattr(oracle, "_system", lambda ideal, degree, moves: system)
    position = {root: k for k, root in enumerate(ideal.free_roots())}
    return oracle._containment(ideal, 1, {}, [verify._compile(p, position) for p in polys])


def test_invariant_in_span(monkeypatch):
    # oracle_containment tests the one invariant y[3,1] of the free n=3
    # factor against whatever equation system the oracle returns
    def outcome(basis):
        monkeypatch.setattr(oracle, "_system",
                            lambda ideal, degree, moves: system_of(basis, ideal, degree))
        check = full_report(close_ideal(3, []), trials=1).checks[-1]
        assert check.name == "oracle_containment"
        return check.status, check.detail

    # y[3,1] and y[2,1]y[3,2] share one torus weight: a block of two vectors.
    assert outcome([y(2, 1) * y(3, 2), y(3, 1) + y(2, 1) * y(3, 2)]) == (
        "pass", "1 invariants inside a basis of 2")
    assert outcome([y(3, 1) * y(2, 1), 2 * y(3, 1)])[0] == "pass"
    outside = ("fail", "invariant of (3, 1) is outside the oracle kernel")
    assert outcome([y(2, 1), y(3, 2)]) == outside
    assert outcome([y(3, 1) + y(2, 1) * y(3, 2)]) == outside
    assert outcome([]) == outside


def test_block_containment_matches_one_global_in_span():
    # The report's count path against one global in_span over the degree-3
    # basis of every ideal with n <= 6: the real records, sums of
    # neighbouring ones, which span two weights, each record with its first
    # term doubled (kept columns, off the kernel unless the record has one
    # term), and each record plus one monomial of a weight it holds that the
    # equations force to zero.
    gained = 0
    for n in range(1, 7):
        for ideal in all_regular_ideals(n):
            moves = poly._generator_moves(ideal)
            system = oracle._system(ideal, 3, moves)
            kept = {combo for columns, _ in system.values() for combo in columns.values()}
            forced = {}
            for degree in (1, 2, 3):
                for combo in combinations_with_replacement(range(len(ideal.free_roots())), degree):
                    if combo not in kept:
                        mono = prod(y(*ideal.free_roots()[k]) for k in combo)
                        (term,) = mono.terms
                        forced.setdefault(weight_code(term, 3), mono)
            records = [r.invariant for r in all_invariants(ideal)]
            polys = records + [a + b for a, b in zip(records, records[1:])]
            polys += [p + Polynomial(dict(p.sorted_terms()[:1])) for p in records]
            for p in records:
                extra = next((forced[w] for w in sorted({weight_code(m, 3) for m in p.terms})
                              if w in forced), None)
                if extra is not None and p.degree() <= 3:
                    polys.append(p + extra)
                    gained += 1
            position = {root: k for k, root in enumerate(ideal.free_roots())}
            found, _ = oracle._containment(ideal, 3, moves,
                                           [verify._compile(p, position) for p in polys])
            assert found == in_poly_span(oracle_invariants(ideal, 3), polys), sorted(ideal.roots)
    assert gained == 296


def test_block_containment_constructed_cases(monkeypatch):
    # y[3,1], y[2,1] and y[3,2] have three different torus weights.
    def both(basis, polys):
        ideal = close_ideal(3, [])
        found, _ = containment(monkeypatch, ideal, system_of(basis, ideal, 2), polys)
        assert found == in_poly_span(basis, polys)
        return found

    # A record split over two weights, one part outside: it fails.
    assert both([y(3, 1)], [y(3, 1) + y(2, 1), y(3, 1) + y(3, 2)]) == [False, False]
    assert both([y(3, 1), 2 * y(2, 1)], [y(3, 1) + y(2, 1), 3 * y(3, 1)]) == [True, True]
    # A weight whose block lacks one of the part's monomials.
    assert both([y(2, 1) * y(3, 2)], [y(3, 1), y(3, 1) + y(2, 1) * y(3, 2)]) == [False, False]
    assert both([], [y(3, 1)]) == [False]


def test_oracle_kernel_sizes_match_the_solved_blocks(monkeypatch):
    # kept columns less the rank of the rows, weight by weight, is the
    # number of kernel vectors oracle_invariants solves for in that weight:
    # its basis elements of that weight code.
    cases = [(ideal, d) for n in range(1, 7) for ideal in all_regular_ideals(n)
             for d in range(1, 5)]
    for ideal, degree in cases + [(n7_ideal(), 5)]:
        system = oracle._system(ideal, degree, poly._generator_moves(ideal))
        sizes = {w: containment(monkeypatch, ideal, {w: block}, [])[1]
                 for w, block in system.items()}
        monkeypatch.undo()
        solved = Counter(weight_code(next(iter(p.terms)), degree)
                         for p in oracle_invariants(ideal, degree))
        assert {w: k for w, k in sizes.items() if k} == solved, (sorted(ideal.roots), degree)
    assert sum(sizes.values()) == 90


def test_oracle_examples():
    assert oracle_invariants(close_ideal(3, []), 1) == [y(3, 1)]
    basis2 = oracle_invariants(close_ideal(2, []), 3)
    assert basis2 == [y(2, 1), y(2, 1) ** 2, y(2, 1) ** 3]
    basis4 = oracle_invariants(close_ideal(4, []), 2)
    corner2 = y(4, 1) * y(3, 2) - y(3, 1) * y(4, 2)
    assert y(4, 1) in basis4
    assert any(p in (corner2, -corner2) for p in basis4)


def test_oracle_budget_guard():
    with pytest.raises(BudgetError):
        oracle_invariants(close_ideal(6, []), 4, budget=100)
    with pytest.raises(InputError):
        oracle_invariants(close_ideal(3, []), 0)
    with pytest.raises(InputError):
        oracle_invariants(close_ideal(3, []), 2, budget=-1)
    assert oracle_invariants(close_ideal(2, []), 1, budget=1) == [y(2, 1)]


def test_oracle_matches_reference_elimination():
    for n in range(1, 7):
        for ideal in all_regular_ideals(n):
            basis = oracle_invariants(ideal, 3)
            assert basis == reference_oracle(ideal, 3)
            for p in basis:
                assert_int_coefficients(p)
    for n in range(1, 6):
        for ideal in all_regular_ideals(n):
            assert oracle_invariants(ideal, 4) == reference_oracle(ideal, 4), sorted(ideal.roots)
    # The ideals with n <= 7 whose degree-4 kernel has a weight component of
    # dimension above one, where the column order picks the basis: one at
    # n=6 and nine at n=7, found by a scan of every ideal.
    for n, generators in (
        (6, [(4, 1), (6, 3)]),
        (7, [(2, 1), (5, 2), (7, 4)]),
        (7, [(3, 1), (5, 2), (7, 4)]),
        (7, [(4, 1), (6, 3), (7, 6)]),
        (7, [(4, 1), (6, 3), (7, 5)]),
        (7, [(4, 1), (6, 3)]),
        (7, [(4, 1), (7, 4)]),
        (7, [(4, 1), (7, 3)]),
        (7, [(5, 2), (7, 4)]),
        (7, [(5, 1), (7, 4)]),
    ):
        ideal = close_ideal(n, generators)
        assert oracle_invariants(ideal, 4) == reference_oracle(ideal, 4), generators


def test_oracle_reference_basis_pinned():
    # sha256 of the basis strings, one per line, for the n=7 reference at
    # degrees 4 and 5
    for degree, size, expected in (
        (4, 49, "cc43a79920286631a81909c4b6bc40fb59af5d4c8937fd504ddd386aac1e4ebb"),
        (5, 90, "e21d5fb97bf68c04e91b6fc8f4b46fc18e68d7c481a7f08acc1a617ab00b8af4"),
    ):
        basis = oracle_invariants(n7_ideal(), degree)
        assert len(basis) == size
        digest = hashlib.sha256("\n".join(map(str, basis)).encode()).hexdigest()
        assert digest == expected, degree


def test_oracle_bases_of_every_ideal_pinned():
    # sha256 over every regular ideal in all_regular_ideals order of its
    # degree-4 basis strings, one per line, each ideal closed by a NUL byte
    for sizes, expected in (
        (range(1, 7), "83a1f17eb972678b04d870417fa9693bb93e4638a70d42118efbb2e64d54b94d"),
        ([7], "53f017422160716738fdc6e300b66c5eaebcd4e2926f55522f96c0801dc10bd8"),
    ):
        digest = hashlib.sha256()
        for n in sizes:
            for ideal in all_regular_ideals(n):
                basis = oracle_invariants(ideal, 4)
                digest.update("\n".join(map(str, basis)).encode() + b"\0")
        assert digest.hexdigest() == expected, list(sizes)


def test_oracle_census_of_the_reference():
    # The oracle row of the census on the n=7 reference, with the budget
    # lifted: the dimension of the invariants of degree at most d, d = 1..8.
    ideal = n7_ideal()
    sizes = [len(oracle_invariants(ideal, d, budget=10**7)) for d in range(1, 9)]
    assert sizes == [3, 10, 24, 49, 90, 154, 249, 385]
    check = full_report(ideal, max_degree=6, oracle_budget=10**6).checks[-1]
    assert (check.name, check.status) == ("oracle_containment", "pass")
    assert check.detail == "5 invariants inside a basis of 154"


def test_oracle_members_are_invariant():
    ideal = close_ideal(4, [(3, 1)])
    for p in oracle_invariants(ideal, 3):
        for i in range(1, 4):
            assert poisson_bracket_generator(i, p, ideal).is_zero


def test_oracle_elements_hold_one_torus_weight():
    # What lets containment run on the oracle's weight blocks alone; the
    # degree-3 code is one-to-one on the weights of degree at most 3.
    for n in range(1, 7):
        for ideal in all_regular_ideals(n):
            for p in oracle_invariants(ideal, 3):
                assert len({weight_code(m, 3) for m in p.terms}) == 1, (sorted(ideal.roots), str(p))


@pytest.mark.slow
def test_oracle_containment_reports_the_basis_size():
    # The "basis of N" of the report is the size of the oracle's basis.
    for n in range(1, 7):
        for ideal in all_regular_ideals(n):
            for degree in (2, 3, 4):
                check = full_report(ideal, trials=1, max_degree=degree).checks[-1]
                assert check.name == "oracle_containment" and check.status == "pass"
                if check.detail != "no low-degree invariants":
                    size = int(check.detail.rsplit(" ", 1)[1])
                    assert size == len(oracle_invariants(ideal, degree)), sorted(ideal.roots)
