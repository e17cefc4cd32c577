"""Coadjoint action, invariance trials, skew rank statistics, the oracle,
and the aggregate report."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from regfactor import verify
from regfactor import (
    BudgetError,
    Polynomial,
    ConstructionError,
    DualPoint,
    GroupElement,
    InputError,
    RegularIdeal,
    all_invariants,
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
    assert_int_coefficients,
    group_identity,
    group_inverse,
    group_product,
    n7_ideal,
    one_entry_columns,
    random_ideals,
    reference_check_invariance,
    reference_coadjoint_act,
    reference_oracle,
    y,
)


def test_identity_acts_trivially():
    ideal = n7_ideal()
    point = DualPoint.prime_point(ideal)
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
    for rows in (((1, 3), (0, 1)), ((1, 0, 0), (2, 1, Fraction(1, 2)), (0, 0, 1))):
        with pytest.raises(InputError, match="lower unitriangular"):
            GroupElement(rows)
    with pytest.raises(InputError, match="square"):
        GroupElement(((1, 0), (2, 1, 0)))
    assert GroupElement(((1, Fraction(0)), (2, 1))).n == 2
    for rows in (((1, 0), (2.5, 1)), ((True, 0), (1, True)), ((1, 0), ("2", 1))):
        with pytest.raises(InputError, match="int or Fraction"):
            GroupElement(rows)
    half = GroupElement(((1, 0), (Fraction(1, 2), 1)))
    assert group_product(half, group_inverse(half)) == group_identity(2)
    rng = random.Random(3)
    for n in (2, 5, 8):
        g = GroupElement.random(n, rng)
        assert group_product(g, group_inverse(g)) == group_identity(n)


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
    rows = [[int(i == j) for j in range(7)] for i in range(7)]
    for i in range(7):
        for j in range(i):
            rows[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    g = GroupElement(tuple(map(tuple, rows)))
    point = DualPoint.random(n7_ideal(), rng)
    moved = coadjoint_act(g, point)
    assert moved == reference_coadjoint_act(g, point)
    assert any(type(v) is Fraction and v.denominator > 1 for v in moved.coords.values())


def test_coadjoint_act_guards_ideal_cells():
    # {(2,1)} at n=3 is not closed, since (3,1) is missing; built by hand
    # past the closure check, so the action leaks onto its ideal cell.
    ideal = object.__new__(RegularIdeal)
    object.__setattr__(ideal, "n", 3)
    object.__setattr__(ideal, "roots", frozenset({(2, 1)}))
    point = DualPoint(ideal, {(3, 1): 1, (3, 2): 1})
    g = GroupElement(((1, 0, 0), (0, 1, 0), (0, 1, 1)))
    for act in (coadjoint_act, reference_coadjoint_act):
        with pytest.raises(ConstructionError, match=r"ideal cell \(2,1\)$"):
            act(g, point)


def test_dual_point_validation():
    ideal = n7_ideal()
    with pytest.raises(InputError):
        DualPoint(ideal, {(2, 1): Fraction(1)})
    values = dict(DualPoint.prime_point(ideal).coords)
    values[(4, 1)] = 2.0
    with pytest.raises(InputError):
        DualPoint(ideal, values)
    point = DualPoint.prime_point(ideal)
    matrix = point.matrix()
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


def test_check_invariance_guards_ideal_cells():
    # The trials keep coadjoint_act's guard: on the hand-built ideal {(2,1)}
    # at n=3, not closed, some move leaks onto the ideal cell.
    ideal = object.__new__(RegularIdeal)
    object.__setattr__(ideal, "n", 3)
    object.__setattr__(ideal, "roots", frozenset({(2, 1)}))
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
        (lambda v: skew_rank_stats(ideal, trials=v), "trials"),
        (lambda v: skew_rank_stats(ideal, seed=v), "seed"),
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
    assert skew_rank_stats(n7_ideal(), trials=5, seed=0) == (12, 5)
    assert skew_rank_stats(close_ideal(3, []), trials=5, seed=0) == (2, 1)
    assert skew_rank_stats(close_ideal(2, [(2, 1)]), trials=5, seed=0) == (0, 0)


def test_skew_rank_matches_diagram_random():
    from regfactor import build_diagram

    for ideal in random_ideals(20, seed=402):
        counts = build_diagram(ideal).counts()
        stats = skew_rank_stats(ideal, trials=20, seed=7)
        assert stats.max_rank % 2 == 0
        assert stats.max_rank + stats.corank == ideal.dim
        assert stats.max_rank == counts.plus_minus
        assert stats.corank == counts.crosses


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
        "3ae3aa288cb3ee7f060daab37c40558641bf5206f5524b0bae21a39c21bd7407"
    )


def test_oracle_first_round_is_the_one_entry_equations():
    # The support-mask rule keeps exactly the monomials that no one-entry
    # equation forces, and only those build equations.
    cases = [(ideal, 3) for n in range(1, 6) for ideal in all_regular_ideals(n)]
    for ideal, degree in cases + [(n7_ideal(), 4)]:
        variables = ideal.free_roots()
        _, groups = verify._oracle_columns(ideal, degree)
        kept = [tuple(variables[k] for k in combo)
                for members in groups.values() for combo, _ in members]
        monos, forced = one_entry_columns(ideal, degree)
        assert len(kept) == len(set(kept))
        assert set(kept) == monos - forced, sorted(ideal.roots)
    assert (len(kept), len(monos)) == (388, 5984)


def test_oracle_members_are_invariant():
    from regfactor import poisson_bracket_generator

    ideal = close_ideal(4, [(3, 1)])
    for p in oracle_invariants(ideal, 3):
        for i in range(1, 4):
            assert poisson_bracket_generator(i, p, ideal).is_zero


def test_invariant_in_span(monkeypatch):
    # oracle_containment tests the one invariant y[3,1] of the free n=3
    # factor against whatever basis the oracle returns
    import regfactor.verify as verify

    def outcome(basis):
        monkeypatch.setattr(verify, "oracle_invariants", lambda *a, **k: basis)
        check = full_report(close_ideal(3, []), trials=1).checks[-1]
        assert check.name == "oracle_containment"
        return check.status, check.detail

    assert outcome([y(2, 1), y(3, 1) + y(2, 1)]) == (
        "pass", "1 invariants inside a basis of 2")
    assert outcome([y(3, 1) * y(2, 1), 2 * y(3, 1)])[0] == "pass"
    outside = ("fail", "invariant of (3, 1) is outside the oracle kernel")
    assert outcome([y(2, 1), y(3, 2)]) == outside
    assert outcome([]) == outside


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
