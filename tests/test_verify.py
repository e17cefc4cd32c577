"""Coadjoint action, invariance trials, skew rank statistics and the
aggregate report; the oracle is in test_oracle."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from math import prod

import pytest

from regfactor import linalg, poly, verify
from regfactor import (
    Polynomial,
    ConstructionError,
    DualPoint,
    GroupElement,
    InputError,
    RegularIdeal,
    all_invariants,
    build_diagram,
    check_invariance,
    close_ideal,
    coadjoint_act,
    full_report,
    oracle_invariants,
    positive_roots,
    skew_rank_stats,
)
from helpers import (
    all_regular_ideals,
    derivative,
    dual_matrix,
    group_identity,
    group_inverse,
    group_product,
    jacobian_rank,
    n7_ideal,
    poisson_bracket_generator,
    prime_point,
    random_ideals,
    random_polynomial,
    reference_check_invariance,
    reference_coadjoint_act,
    reference_skew_rank_stats,
    y,
)


def test_identity_acts_trivially():
    ideal = n7_ideal()
    point = prime_point(ideal)
    assert coadjoint_act(group_identity(7), point).coords == point.coords


def test_corner_coordinate_is_fixed():
    ideal = close_ideal(3, [])
    rng = random.Random(0)
    for _ in range(10):
        g = GroupElement.random(3, rng)
        point = DualPoint.random(ideal, rng)
        moved = coadjoint_act(g, point)
        assert moved.coords[(3, 1)] == point.coords[(3, 1)]


def test_group_action_composes():
    ideal = n7_ideal()
    rng = random.Random(1)
    for _ in range(5):
        g = GroupElement.random(7, rng)
        h = GroupElement.random(7, rng)
        point = DualPoint.random(ideal, rng)
        assert coadjoint_act(group_product(g, h), point).coords == coadjoint_act(
            g, coadjoint_act(h, point)
        ).coords


def test_action_preserves_ideal_annihilation():
    # conjugation never leaks a value onto ideal-dual cells
    rng = random.Random(2)
    for ideal in random_ideals(15, seed=401):
        g = GroupElement.random(ideal.n, rng)
        point = DualPoint.random(ideal, rng)
        coadjoint_act(g, point)  # raises on violation


def test_group_element_validation_and_inverse():
    with pytest.raises(InputError):
        GroupElement(((1, 0), (2, 2)))
    for rows in (((1, 3), (0, 1)), ((1, 0, 0), (2, 1, 5), (0, 0, 1))):
        with pytest.raises(InputError, match="lower unitriangular"):
            GroupElement(rows)
    with pytest.raises(InputError, match="square"):
        GroupElement(((1, 0), (2, 1, 0)))
    for rows in (((1, 0), (2.5, 1)), ((True, 0), (1, True)), ((1, 0), ("2", 1)),
                 ((1, Fraction(0)), (2, 1)), ((1, 0), (Fraction(1, 2), 1))):
        with pytest.raises(InputError, match="^group element entries must be integers$"):
            GroupElement(rows)
    rng = random.Random(3)
    for n in (2, 5, 8):
        g = GroupElement.random(n, rng)
        assert group_product(g, group_inverse(g)) == group_identity(n)


def test_group_element_from_lists_is_an_immutable_value():
    rows = [[1, 0], [5, 1]]
    g = GroupElement(rows)
    rows[1][0] = 7
    assert g.rows == ((1, 0), (5, 1))
    assert g == GroupElement(((1, 0), (5, 1)))
    assert hash(g) == hash(GroupElement(((1, 0), (5, 1))))


@pytest.mark.parametrize("rows", [(), []])
def test_group_element_needs_at_least_one_row(rows):
    with pytest.raises(InputError, match="^n must be at least 1$"):
        GroupElement(rows)


def test_random_draws_follow_the_randint_stream():
    # A failing report prints its witness (trial, g, point), reproduced from
    # the seed alone; so each draw is pinned to successive randint(-9, 9)
    # calls, in row order below the diagonal and then down the free roots.
    for seed in (0, 1, 5, 2**31 - 1):
        for ideal in (close_ideal(2, []), close_ideal(4, [(4, 2)]), n7_ideal(),
                      close_ideal(8, [])):
            n = ideal.n
            rng, plain = random.Random(seed), random.Random(seed)
            g = GroupElement.random(n, rng)
            point = DualPoint.random(ideal, rng)
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i):
                    rows[i][j] = plain.randint(-9, 9)
            assert g.rows == tuple(map(tuple, rows))
            assert point.coords == {r: plain.randint(-9, 9) for r in ideal.free_roots()}
            assert rng.getstate() == plain.getstate()
    # _draws itself, which reads whole 32-bit words and asks for exactly the
    # values still missing: the same values and the same generator state.
    for seed in range(200):
        rng, plain = random.Random(seed), random.Random(seed)
        for count in (0, 1, 2, 19, 1000, 10000):
            drawn = verify._draws(rng, count)
            assert list(drawn) == [plain.randint(-9, 9) for _ in range(count)]
            assert rng.getstate() == plain.getstate()


@pytest.mark.parametrize("n", [-1, 0, True, False, 2.5, 3.0, "3", None])
def test_random_group_element_needs_a_positive_int(n):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InputError, match="^n must be"):
        GroupElement.random(n, rng)
    assert rng.getstate() == state  # nothing drawn
    assert GroupElement.random(1, rng).rows == ((1,),)


def test_coadjoint_act_matches_dense_reference():
    rng = random.Random(6)
    ideals = [i for n in range(1, 7) for i in all_regular_ideals(n)] + [n7_ideal()]
    for ideal in ideals:
        n = ideal.n
        for _ in range(4):
            g = GroupElement.random(n, rng)
            point = DualPoint.random(ideal, rng)
            assert coadjoint_act(g, point) == reference_coadjoint_act(g, point)
        # A zero below the diagonal in every row: coefficients the move skips.
        rows = [list(row) for row in GroupElement.random(n, rng).rows]
        for i in range(1, n):
            rows[i][rng.randrange(i)] = 0
        g = GroupElement(tuple(map(tuple, rows)))
        point = DualPoint.random(ideal, rng)
        assert coadjoint_act(g, point) == reference_coadjoint_act(g, point)


def test_bounded_move_matches_the_full_move():
    # _move_columns from column start[i] on in each row i gives the full
    # move's values on those cells, on blocks of 3 trials: with the starts
    # the trials take (each row's leftmost ideal cell or record variable)
    # on every regular ideal with n <= 6 and the n=7 reference, and with
    # seeded random starts, n among them (the row is skipped).
    rng = random.Random(28)
    ideals = [i for n in range(1, 7) for i in all_regular_ideals(n)] + [n7_ideal()]
    for ideal in ideals:
        n = ideal.n
        read = set(ideal.roots).union(*(r.invariant.variables() for r in all_invariants(ideal)))
        start = [min([k - 1 for k, t in read if t - 1 == i], default=n) for i in range(n)]
        for bound in (start, [rng.randint(i + 1, n) for i in range(n)]):
            g = [[[rng.randint(-9, 9) for _ in range(3)] for _ in range(i)] for i in range(n)]
            full: list[list] = [[None] * n for _ in range(n)]
            for k, t in ideal.free_roots():
                full[t - 1][k - 1] = [rng.randint(-9, 9) for _ in range(3)]
            bounded = [row[:] for row in full]
            verify._move_columns(g, full, range(1, n + 1))
            verify._move_columns(g, bounded, bound)
            for i in range(n):
                assert bounded[i][bound[i]:] == full[i][bound[i]:], (sorted(ideal.roots), bound)


def _unclosed_ideal(n: int, roots) -> RegularIdeal:
    # Built by hand past the closure check, so some moves leak onto its
    # ideal cells.
    ideal = object.__new__(RegularIdeal)
    object.__setattr__(ideal, "n", n)
    object.__setattr__(ideal, "roots", frozenset(roots))
    return ideal


def test_coadjoint_act_guards_ideal_cells():
    # {(2,1)} at n=3 is not closed, since (3,1) is missing, so the action
    # leaks onto its ideal cell.
    ideal = _unclosed_ideal(3, {(2, 1)})
    point = DualPoint(ideal, {(3, 1): 1, (3, 2): 1})
    g = GroupElement(((1, 0, 0), (0, 1, 0), (0, 1, 1)))
    for act in (coadjoint_act, reference_coadjoint_act):
        with pytest.raises(ConstructionError, match=r"ideal cell \(2,1\)$"):
            act(g, point)


def test_dual_point_validation():
    ideal = n7_ideal()
    with pytest.raises(InputError):
        DualPoint(ideal, {(2, 1): Fraction(1)})
    values = dict(prime_point(ideal).coords)
    for bad in (2.0, Fraction(2), True):
        values[(4, 1)] = bad
        with pytest.raises(InputError, match="^point coordinates must be integers$"):
            DualPoint(ideal, values)
    point = prime_point(ideal)
    matrix = dual_matrix(point)
    assert matrix[0][3] == point.coords[(4, 1)]  # row t=1, column k=4
    assert matrix[0][4] == 0  # (5,1) is an ideal cell
    assert all(matrix[i][j] == 0 for i in range(7) for j in range(i + 1))


def test_check_invariance_passes_reference():
    ideal = n7_ideal()
    report = check_invariance(all_invariants(ideal), ideal, trials=25, seed=5)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["poisson_annihilation", "coadjoint_trials"]


def test_check_invariance_flags_non_invariant_probe():
    ideal = close_ideal(3, [])
    record = all_invariants(ideal)[0]
    fake = dataclasses.replace(record, invariant=y(2, 1))
    report = check_invariance([fake], ideal, trials=10, seed=0)
    assert not report.passed
    failing = [c for c in report.checks if c.status == "fail"]
    assert failing and failing[0].witness is not None
    # The digest fixes the failing trial's index, g, point, before and after,
    # so any change to the trial draws or to the action shows here.
    doc = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "6e58a7bfba6f9b61b8ab531a8ef85fb5661bca14bb8d330852e3b72b03630673"
    )


def test_compiled_brackets_match_polynomial_brackets():
    # Random polynomials with powers up to 4 on every regular ideal with
    # n <= 5: each generator's residual from one pass over the compiled
    # terms is the bracket built in polynomial arithmetic, and the Poisson
    # witness of a probe is that bracket at the first nonzero generator.
    rng = random.Random(18)
    powers = nonzero = 0
    for n in range(2, 6):
        for ideal in all_regular_ideals(n):
            free = ideal.free_roots()
            if not free:
                continue
            position = {root: k for k, root in enumerate(free)}
            moves = poly._generator_moves(ideal)
            assert list(moves) == [i for i in range(1, n) if (i + 1, i) not in ideal]
            record = all_invariants(ideal)[0]
            for _ in range(4):
                p = random_polynomial(rng, free, max_terms=6, max_factors=4)
                powers += any(e >= 2 for mono in p.terms for _, e in mono)
                first = None
                for i in range(1, n):
                    expected = poisson_bracket_generator(i, p, ideal)
                    residual = verify._bracket(verify._compile(p, position), moves.get(i, {}))
                    found = Polynomial({poly._monomial([free[k] for k in spots]): c
                                        for spots, c in residual.items()})
                    assert found == expected, (sorted(ideal.roots), str(p), i)
                    if first is None and not expected.is_zero:
                        first = {"xi": list(record.xi), "generator": i, "residual": str(expected)}
                nonzero += first is not None
                probe = dataclasses.replace(record, invariant=p)
                check = check_invariance([probe], ideal, trials=1).checks[0]
                assert check.witness == first, (sorted(ideal.roots), str(p))
    assert powers > 100 and nonzero > 100


def test_compiled_jacobian_matches_polynomial_derivatives():
    # The records, random polynomials with powers, and squares, on every
    # regular ideal with n <= 5 and the n=7 reference: the gradient from one
    # pass over the compiled terms is every derivative built and evaluated
    # as a polynomial, and the rank of those rows is the reference Jacobian
    # rank, at the prime point and at seeded points.
    rng = random.Random(19)
    ideals = [i for n in range(1, 6) for i in all_regular_ideals(n)] + [n7_ideal()]
    for k, ideal in enumerate(ideals):
        free = ideal.free_roots()
        position = {root: p for p, root in enumerate(free)}
        polys = [r.invariant for r in all_invariants(ideal)]
        if free:
            polys += [random_polynomial(rng, free, max_factors=4) for _ in range(2)]
            polys += [p * p for p in polys[:2]]
        points = [prime_point(ideal)]
        points += [DualPoint.random(ideal, random.Random(k + t)) for t in range(3)]
        for point in points:
            x = [point.coords[root] for root in free]
            rows = [verify._gradient(verify._compile(p, position), x) for p in polys]
            for p, row in zip(polys, rows):
                assert row == [derivative(p, root).evaluate(point.coords) for root in free]
            assert linalg.rank(rows) == jacobian_rank(polys, point.coords), sorted(ideal.roots)


def _trials_doc(records, ideal, trials, seed):
    return check_invariance(records, ideal, trials=trials, seed=seed).checks[-1].to_json()


def test_trial_kernel_matches_public_objects():
    # The flat trial kernel against the same trials through GroupElement,
    # DualPoint, coadjoint_act and evaluate, on every regular ideal with
    # n <= 6.
    for n in range(1, 7):
        for k, ideal in enumerate(all_regular_ideals(n)):
            records = all_invariants(ideal)
            expected = reference_check_invariance(records, ideal, 100, k).to_json()
            assert _trials_doc(records, ideal, 100, k) == expected, sorted(ideal.roots)


@pytest.mark.slow
def test_trial_kernel_matches_public_objects_n7():
    for k, ideal in enumerate(all_regular_ideals(7)):
        records = all_invariants(ideal)
        expected = reference_check_invariance(records, ideal, 20, k).to_json()
        assert _trials_doc(records, ideal, 20, k) == expected, sorted(ideal.roots)


def test_trial_kernel_witness_matches_public_objects():
    # One record replaced by a single free variable, each free variable in
    # turn, on every ideal with n <= 5: the failing trial's index, g, point,
    # before and after must be what the public objects give.
    failures = 0
    for n in range(1, 6):
        for k, ideal in enumerate(all_regular_ideals(n)):
            records = all_invariants(ideal)
            for v, root in enumerate(ideal.free_roots()):
                probe = list(records)
                slot = v % len(probe)
                probe[slot] = dataclasses.replace(
                    probe[slot], invariant=Polynomial.variable(root))
                expected = reference_check_invariance(probe, ideal, 100, k + v).to_json()
                assert _trials_doc(probe, ideal, 100, k + v) == expected, (ideal.roots, root)
                failures += expected["status"] == "fail"
    assert failures == 110


def test_trial_blocks_match_public_objects(monkeypatch):
    # Blocks of 3 trials: both comparisons above at trial counts that end
    # inside, at and just past a block's end, and over many blocks.  A
    # single-variable probe almost always fails in the first block, so each
    # ideal with n <= 6 also gets probes y[r] times every coordinate the
    # action fixes; such a probe changes only where none of those is zero,
    # and some fail first past the first block.
    monkeypatch.setattr(verify, "_BLOCK", 3)
    late = 0
    for n in range(1, 7):
        for k, ideal in enumerate(all_regular_ideals(n)):
            records = all_invariants(ideal)
            free = ideal.free_roots()
            fixed = [r for r in free if all(
                poisson_bracket_generator(i, y(*r), ideal).is_zero for i in range(1, n))]
            probes = []
            for v, root in enumerate(free):
                if n <= 5:
                    probe = list(records)
                    slot = v % len(probe)
                    probe[slot] = dataclasses.replace(
                        probe[slot], invariant=Polynomial.variable(root))
                    probes.append((probe, k + v))
                if fixed and root not in fixed:
                    center = prod(map(Polynomial.variable, fixed), start=y(*root))
                    probes.append(([dataclasses.replace(records[0], invariant=center)], k + v))
            for trials in (1, 3, 4, 100):
                for probe, seed in [(records, k)] + probes:
                    expected = reference_check_invariance(probe, ideal, trials, seed).to_json()
                    assert _trials_doc(probe, ideal, trials, seed) == expected, (ideal.roots, seed)
                    late += expected.get("witness", {}).get("trial", 0) >= 3
    assert late > 0  # some witness lies past the first block


def test_trial_failure_order_matches_public_objects(monkeypatch):
    # Non-invariant probes on unclosed ideals ({(2,1)} at n=3 lacks (3,1)):
    # the first failing trial is a leak onto an ideal cell (raised, naming
    # the first leaking cell in ideal.roots order) or a changed value
    # (witness), the leak first at one trial, as when the trials run one by
    # one.
    monkeypatch.setattr(verify, "_BLOCK", 3)
    record = all_invariants(close_ideal(3, []))[0]
    probes = [dataclasses.replace(record, invariant=y(3, 2))]

    def outcome(trials_of, seed):
        try:
            return trials_of(seed).to_json()
        except ConstructionError as exc:
            return str(exc)

    seen = set()
    for ideal in (_unclosed_ideal(3, {(2, 1)}), _unclosed_ideal(4, {(2, 1), (4, 3)})):
        for seed in range(40):
            for trials in (1, 3, 4, 10):
                got = outcome(
                    lambda s: check_invariance(probes, ideal, trials, s).checks[-1], seed)
                assert got == outcome(lambda s: reference_check_invariance(
                    probes, ideal, trials, s, act=reference_coadjoint_act), seed), seed
                seen.add(got if isinstance(got, str) else "witness")
    # Both kinds of failure come first somewhere, and both cells are named.
    assert seen == {"witness", *(
        f"coadjoint action left a nonzero value on the ideal cell {cell}"
        for cell in ("(2,1)", "(4,3)"))}


@pytest.mark.slow
def test_long_trial_runs_keep_memory_bounded():
    # The trials run in blocks of verify._BLOCK = 128, so memory does not
    # grow with the trial count.  On the n=7 reference at 20,000 trials the
    # traced peak was 0.13 MB; with all 20,000 trials in one block it was
    # 11.6 MB (Python 3.11).
    import tracemalloc

    ideal = n7_ideal()
    records = all_invariants(ideal)
    tracemalloc.start()
    try:
        assert check_invariance(records, ideal, trials=20000, seed=1).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_check_invariance_guards_ideal_cells():
    # The trials keep coadjoint_act's guard: on the hand-built ideal {(2,1)}
    # at n=3, not closed, some move leaks onto the ideal cell.
    ideal = _unclosed_ideal(3, {(2, 1)})
    for trials in (check_invariance, reference_check_invariance):
        with pytest.raises(ConstructionError, match=r"ideal cell \(2,1\)$"):
            trials([], ideal, trials=10, seed=0)


@pytest.mark.parametrize("value", [True, 1.5, 2.0, "3", None])
def test_counts_and_seeds_must_be_ints(value):
    ideal = close_ideal(3, [])
    records = all_invariants(ideal)
    calls = [
        (lambda v: check_invariance(records, ideal, trials=v), "trials"),
        (lambda v: check_invariance(records, ideal, seed=v), "seed"),
        (lambda v: full_report(ideal, trials=v), "trials"),
        (lambda v: full_report(ideal, seed=v), "seed"),
        (lambda v: full_report(ideal, max_degree=v), "max_degree"),
        (lambda v: full_report(ideal, oracle_budget=v), "oracle_budget"),
        (lambda v: oracle_invariants(ideal, v), "max_degree"),
        (lambda v: oracle_invariants(ideal, 2, budget=v), "budget"),
    ]
    for call, name in calls:
        with pytest.raises(InputError, match=f"^{name} must be an integer, got "):
            call(value)


def test_full_report_rejects_no_trials_before_any_check(monkeypatch):
    import regfactor.verify as verify

    monkeypatch.setattr(verify, "build_diagram", None)  # any work would fail
    with pytest.raises(InputError, match="at least one trial"):
        full_report(close_ideal(3, []), trials=0)


def test_check_invariance_vacuous():
    ideal = close_ideal(2, [(2, 1)])
    assert check_invariance([], ideal, trials=1, seed=0).passed
    with pytest.raises(InputError):
        check_invariance([], ideal, trials=0, seed=0)
    # A record on a variable of the ideal has no value at a point.
    record = all_invariants(close_ideal(3, []))[0]
    fake = dataclasses.replace(record, invariant=y(3, 1))
    with pytest.raises(InputError):
        check_invariance([fake], close_ideal(3, [(3, 1)]), trials=1, seed=0)


def test_corrupted_coefficient_detected():
    ideal = n7_ideal()
    records = all_invariants(ideal)
    target = records[3]
    broken = target.invariant + y(7, 4)  # mutate one coefficient
    fake = dataclasses.replace(target, invariant=broken)
    report = check_invariance([fake], ideal, trials=20, seed=0)
    assert not report.passed


def test_skew_rank_examples():
    assert skew_rank_stats(n7_ideal()) == (12, 5)
    assert skew_rank_stats(close_ideal(3, [])) == (2, 1)
    assert skew_rank_stats(close_ideal(2, [(2, 1)])) == (0, 0)


def test_skew_rank_matches_diagram_random():
    for ideal in random_ideals(20, seed=402):
        counts = build_diagram(ideal).counts()
        stats = skew_rank_stats(ideal)
        assert stats.max_rank % 2 == 0
        assert stats.max_rank + stats.corank == ideal.dim
        assert stats.max_rank == counts.plus_minus
        assert stats.corank == counts.crosses


def _assert_skew_ranks_match_reference(n: int) -> None:
    # Every regular ideal with this n: the one rank is the reference rank of
    # the prime-point form and the diagram's plus/minus and cross counts.
    for ideal in all_regular_ideals(n):
        counts = build_diagram(ideal).counts()
        assert skew_rank_stats(ideal) == reference_skew_rank_stats(ideal) == (
            counts.plus_minus, counts.crosses
        ), sorted(ideal.roots)


def test_skew_rank_matches_reference_up_to_n6():
    for n in range(1, 7):
        _assert_skew_ranks_match_reference(n)


def test_skew_rank_matches_reference_n7():
    _assert_skew_ranks_match_reference(7)


@pytest.mark.slow
def test_skew_rank_matches_reference_n8():
    _assert_skew_ranks_match_reference(8)


def test_skew_rank_of_every_ideal_pinned():
    # sha256 over every regular ideal with n <= 7 in all_regular_ideals
    # order of its "max_rank corank" line, pinned from the maximum over the
    # prime point and 20 seeded points, which the one rank must reproduce
    digest = hashlib.sha256()
    for n in range(1, 8):
        for ideal in all_regular_ideals(n):
            stats = skew_rank_stats(ideal)
            digest.update(f"{stats.max_rank} {stats.corank}\n".encode())
    assert digest.hexdigest() == (
        "db80b58d25314259aaf83f59166507a4c45d6a1fec796a9a680531ff313b54c0"
    )


def test_skew_rank_ranks_one_point(monkeypatch):
    # One rank, at the distinct-prime point, whether or not it is full: 10
    # of the 14-dimensional form below (6,1), 12 of the 17-dimensional form
    # of the n=7 reference.
    calls = []
    rank = linalg._rank

    def counted(rows, n_cols):
        calls.append((len(rows), n_cols))
        return rank(rows, n_cols)

    monkeypatch.setattr(linalg, "_rank", counted)
    assert skew_rank_stats(close_ideal(6, [(6, 1)])) == (10, 4)
    assert calls == [(14, 14)]
    calls.clear()
    assert skew_rank_stats(n7_ideal()) == (12, 5)
    assert calls == [(17, 17)]


def test_full_report_builds_one_bracket_table_and_one_point(monkeypatch):
    # The report scans the structure constants once, for the skew form and
    # the generator moves alike, and builds the distinct-prime point once,
    # for the skew form and the Jacobian rows alike.
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(verify, "_bracket_table", counted("table", poly._bracket_table))
    monkeypatch.setattr(poly, "_bracket_table", counted("table", poly._bracket_table))
    monkeypatch.setattr(verify, "_primes", counted("point", verify._primes))
    for ideal in (n7_ideal(), close_ideal(5, [])):
        calls.clear()
        assert full_report(ideal, trials=2, max_degree=2).passed
        assert sorted(calls) == ["point", "table"]


def test_skew_rank_below_plus_minus_fails_the_report(monkeypatch):
    # A rank short of the plus/minus count fails the skew_rank line alone,
    # and the line carries no trials or seed: it samples nothing.
    monkeypatch.setattr(verify, "_skew_stats", lambda table, x: verify.SkewStats(10, 7))
    report = full_report(n7_ideal(), max_degree=2)
    assert not report.passed
    assert [line for line in report.lines() if not line.startswith("PASS")] == [
        "FAIL    skew_rank (max skew rank 10 differs from the plus/minus count 12)"
    ]
    entry = next(c for c in report.to_json()["checks"] if c["name"] == "skew_rank")
    assert entry == {
        "name": "skew_rank",
        "status": "fail",
        "detail": "max skew rank 10 differs from the plus/minus count 12",
    }


def test_full_reports_of_every_n6_ideal_pinned():
    # sha256 over every n=6 regular ideal in all_regular_ideals order of its
    # sorted-key JSON report at max_degree 2 with the ideal's index as
    # seed, each closed by a newline: the catalan-sweep workload's reports,
    # coadjoint trial draws and witnesses included.
    digest = hashlib.sha256()
    for k, ideal in enumerate(all_regular_ideals(6)):
        doc = full_report(ideal, seed=k, max_degree=2).to_json()
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == (
        "56b95a12e3c77e5dcdbb4b1d20fc687945b1a03c9c92689e865bf02c606625c2"
    )


@pytest.mark.slow
def test_full_reports_of_every_n7_ideal_pass():
    for ideal in all_regular_ideals(7):
        report = full_report(ideal)
        assert report.passed, (sorted(ideal.roots), report.lines())


@pytest.mark.slow
def test_full_reports_of_every_n8_ideal_pass():
    # Every check at default settings on all 1430 regular ideals with n=8.
    for ideal in all_regular_ideals(8):
        report = full_report(ideal)
        assert report.passed, (sorted(ideal.roots), report.lines())


def test_full_report_reference_passes():
    report = full_report(n7_ideal(), trials=25, seed=0)
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {
        "diagram_symbol_rule",
        "diagram_counts",
        "permutation_reflection_product",
        "permutation_length",
        "invariant_records",
        "poisson_annihilation",
        "coadjoint_trials",
        "skew_rank",
        "jacobian_rank",
        "oracle_containment",
    }


def test_full_report_free_factors_match_corner_minors():
    for n in (2, 3, 4, 5, 6):
        report = full_report(close_ideal(n, []), trials=10, seed=0)
        assert report.passed, report.lines()


def test_full_report_json_round_trip():
    report = full_report(close_ideal(3, []), trials=5, seed=0)
    doc = report.to_json()
    again = json.loads(json.dumps(doc))
    assert again == doc
    assert {entry["status"] for entry in doc["checks"]} <= {"pass", "fail", "skipped"}


def test_full_report_skips_oracle_over_budget():
    report = full_report(close_ideal(4, []), trials=2, seed=0, oracle_budget=3)
    entry = next(c for c in report.checks if c.name == "oracle_containment")
    assert entry.status == "skipped"
    assert report.passed  # skipped entries do not fail the report


def test_full_report_zero_factor():
    ideal = close_ideal(3, positive_roots(3))
    report = full_report(ideal, trials=2, seed=0)
    assert report.passed
