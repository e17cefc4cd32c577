"""Permutations, reflection products, chains, and segment data."""

import re
from fractions import Fraction

import pytest

from regfactor import (
    ConstructionError,
    InputError,
    Permutation,
    all_invariants,
    build_diagram,
    close_ideal,
    column_max_permutation,
    cross_data,
    invariant_for,
    inversions,
    reflection_product,
    segment_data,
)
from helpers import (
    N7_CROSSES,
    N7_W,
    all_regular_ideals,
    assert_unit_coefficients,
    count_inversions_brute,
    identity_permutation,
    n7_ideal,
    random_ideals,
    reference_chains,
)


def n7_cross(xi):
    return next(d for d in cross_data(7, N7_CROSSES) if d.xi == xi)


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and p(3) == 1
    assert p.images == (2, 3, 1)
    # p sends the root (3,1) to (1,2), which is not a positive root
    assert p.images[3 - 1] < p.images[1 - 1]
    with pytest.raises(InputError):
        Permutation((1, 1, 2))
    # images equal to 1..n as numbers but not ints are not coerced
    for images in ((1.0, 2.0), (True, 2), (Fraction(2), 1)):
        with pytest.raises(InputError, match="^permutation entries must be integers"):
            Permutation(images)


def test_column_max_permutation_examples():
    assert column_max_permutation(n7_ideal()).images == N7_W
    assert column_max_permutation(close_ideal(3, [])).images == (3, 2, 1)
    assert column_max_permutation(close_ideal(2, [(2, 1)])).images == (1, 2)


def test_reflection_product_examples():
    assert reflection_product(7, N7_CROSSES).images == N7_W
    single = reflection_product(7, [(4, 1)])
    assert single(1) == 4 and single(4) == 1 and single(2) == 2
    assert reflection_product(5, []) == identity_permutation(5)
    with pytest.raises(InputError):
        reflection_product(7, [(6, 2), (4, 1)])  # increasing order
    with pytest.raises(InputError):
        reflection_product(7, [(4, 1), (4, 1)])  # not strictly decreasing


def test_product_family_examples():
    w4 = n7_cross((7, 4)).w
    assert w4(4) == 3
    assert w4(7) == 1
    w2 = reflection_product(7, [r for r in N7_CROSSES if r[1] <= 2])
    assert w2(2) == 6
    assert reflection_product(7, [r for r in N7_CROSSES if r[1] == 4])(4) == 5
    assert [d.xi for d in cross_data(7, N7_CROSSES)] == list(N7_CROSSES)
    assert cross_data(7, N7_CROSSES)[-1].w.images == N7_W
    assert cross_data(7, []) == ()
    with pytest.raises(InputError):
        cross_data(7, [(9, 9)])
    with pytest.raises(InputError):
        cross_data(7, N7_CROSSES + ((5, 2),))  # breaks the decreasing order
    with pytest.raises(InputError):
        invariant_for(n7_ideal(), N7_CROSSES, (9, 9))
    with pytest.raises(InputError):
        invariant_for(n7_ideal(), N7_CROSSES, (5, 2))  # not a cross


def test_inversions_examples():
    assert inversions(Permutation(N7_W)) == 17
    assert inversions(identity_permutation(6)) == 0
    assert inversions(Permutation((3, 2, 1))) == 3


def test_inversions_match_brute_count():
    for ideal in random_ideals(20, seed=201):
        w = column_max_permutation(ideal)
        assert inversions(w) == count_inversions_brute(w.images)


def test_case_split_examples():
    assert (n7_cross((5, 4)).h, n7_cross((5, 4)).case) == (5, 1)
    assert (n7_cross((7, 4)).h, n7_cross((7, 4)).case) == (3, 2)
    assert (n7_cross((4, 1)).h, n7_cross((4, 1)).case) == (4, 1)
    with pytest.raises(InputError):
        invariant_for(n7_ideal(), N7_CROSSES, (4, 2))  # not a cross


def test_cross_data_rejects_broken_case_split():
    # decreasing root lists that are not the crosses of any diagram
    with pytest.raises(ConstructionError, match=r"case-1 cross \(3, 2\) maps its column to 4 != 3"):
        cross_data(4, [(4, 1), (3, 1), (3, 2)])
    with pytest.raises(ConstructionError, match=r"cross \(4, 3\) fixes its own column index"):
        cross_data(4, [(3, 1), (2, 1), (4, 2), (4, 3)])
    with pytest.raises(ConstructionError, match=r"columns of \(4, 3\) are not a segment ending at 3"):
        cross_data(4, [(4, 1), (4, 2), (4, 3)])


def test_descent_chain_examples():
    # one chain per extra row, in row order; rows 3 and 5 admit no descent
    data = segment_data(n7_ideal(), N7_CROSSES, n7_cross((7, 4)))
    assert data.chains == ((6, 2), (7, 4, 1))
    assert not {3, 5} & {v for chain in data.chains for v in chain}


def test_segment_data_reference():
    ideal = n7_ideal()
    assert n7_cross((7, 4)).cols == (1, 2, 3, 4)
    data = segment_data(ideal, N7_CROSSES, n7_cross((7, 4)))
    assert data.h == 3 and data.c == 1 and data.col_end == 7
    assert data.i_star == (6, 7)
    assert set(data.chains) == {(7, 4, 1), (6, 2)}
    assert data.chained == (4, 6, 7)
    assert data.unchained == (3, 5)
    assert data.unchained_segments == ((3,), (5,))
    assert data.chained_segments == ((4,), (6, 7))
    assert data.nu == 1 and data.d_star == 1
    # sanity facts: window start unchained, own column chained,
    # extra rows chained
    assert data.h in data.unchained
    assert 4 in data.chained
    assert set(data.i_star) <= set(data.chained)


def test_descent_chain_takes_first_drop():
    # here the stepping sequence for row 7 runs 7 -> 5 -> 5 -> 6 -> 2: it
    # rises again after the first drop, and the chain must follow the first
    # value below the start (taking the later, larger 6 would make the two
    # chains collide and leave 2 unreachable)
    ideal = close_ideal(7, [(4, 1), (7, 2), (7, 3)])
    crosses = build_diagram(ideal).crosses
    xi = next(d for d in cross_data(7, crosses) if d.xi == (7, 5))
    assert (xi.h, xi.case) == (4, 2)
    data = segment_data(ideal, crosses, xi)
    assert data.chains == ((6, 3), (7, 5, 2))
    assert data.d_star == 1


def test_chains_match_the_column_by_column_reference():
    # every case-2 cross of every regular ideal with n <= 8, against chains
    # stepped one column product at a time; for n <= 6 also with each cross
    # in turn dropped from the list, where the chains or the error must
    # still agree
    crosses_seen = steps = 0
    for n in range(1, 9):
        for ideal in all_regular_ideals(n):
            crosses = build_diagram(ideal).crosses
            for data in cross_data(n, crosses):
                if data.case != 2:
                    continue
                chains = segment_data(ideal, crosses, data).chains
                assert chains == reference_chains(n, crosses, data)
                crosses_seen += 1
                steps += sum(len(chain) - 1 for chain in chains)
                if n > 6:
                    continue
                for m in range(len(crosses)):
                    dropped = crosses[:m] + crosses[m + 1:]
                    try:
                        expected = reference_chains(n, dropped, data)
                    except InputError as exc:
                        with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                            segment_data(ideal, dropped, data)
                    else:
                        assert segment_data(ideal, dropped, data).chains == expected
    assert (crosses_seen, steps) == (1103, 2674)


def test_chains_skip_crosses_after_their_own():
    # a cross below xi in its column comes after it and does not act on
    # the chains; applied first, (5,4) would send row 5 to 4 and leave
    # row 3 with no descent
    ideal = close_ideal(6, [(5, 1), (6, 2)])
    crosses = build_diagram(ideal).crosses
    assert crosses == ((4, 1), (5, 2), (6, 3), (6, 4))
    data = next(d for d in cross_data(6, crosses) if d.xi == (6, 4))
    assert segment_data(ideal, crosses + ((5, 4),), data).chains == ((5, 2), (6, 4, 1))


def test_chain_reports_a_row_with_no_descent():
    # without the cross (3,1), row 3 never falls below itself
    ideal = close_ideal(4, [(4, 1)])
    crosses = build_diagram(ideal).crosses
    assert crosses == ((3, 1), (4, 2), (4, 3))
    data = next(d for d in cross_data(4, crosses) if d.xi == (4, 3))
    message = r"^row 3 admits no descent for cross \(4, 3\)$"
    with pytest.raises(InputError, match=message):
        segment_data(ideal, ((4, 2), (4, 3)), data)
    # with (3,2) added, row 3 starts in column 2 from its image under the
    # crosses of columns 1 and 2, 4, and never drops; starting from 3
    # itself would fall to 1 through (3,1)
    with pytest.raises(InputError, match=message):
        segment_data(ideal, ((3, 1), (4, 2), (3, 2), (4, 3)), data)


def test_segment_data_case1_rejected():
    ideal = close_ideal(4, [])
    crosses = build_diagram(ideal).crosses
    case1 = next(d for d in cross_data(4, crosses) if d.xi == (3, 2))
    with pytest.raises(InputError):
        segment_data(ideal, crosses, case1)


def test_segment_data_rejects_unordered_crosses():
    # the chains read products over column prefixes, which need the crosses
    # in decreasing order
    unordered = ((6, 2), (4, 1), (7, 3), (7, 4), (5, 4))
    with pytest.raises(InputError, match="^reflection list must be strictly decreasing$"):
        segment_data(n7_ideal(), unordered, n7_cross((7, 4)))


def test_reflection_product_equals_column_max_everywhere():
    for ideal in random_ideals(40, seed=202):
        crosses = build_diagram(ideal).crosses
        assert reflection_product(ideal.n, crosses) == column_max_permutation(ideal)


def test_inversion_count_equals_dimension():
    for ideal in random_ideals(40, seed=203):
        assert inversions(column_max_permutation(ideal)) == ideal.dim


def test_product_through_agrees_left_of_the_cross():
    for ideal in random_ideals(25, seed=204):
        n = ideal.n
        crosses = build_diagram(ideal).crosses
        w = column_max_permutation(ideal)
        for data in cross_data(n, crosses):
            for j in range(1, data.xi[1]):
                assert data.w(j) == w(j)


def test_product_through_negates_its_own_cross():
    for ideal in random_ideals(25, seed=205):
        crosses = build_diagram(ideal).crosses
        for data in cross_data(ideal.n, crosses):
            k, t = data.xi
            assert data.w.images[k - 1] < data.w.images[t - 1]


def test_segment_data_invariants_random():
    for ideal in random_ideals(40, seed=206):
        n = ideal.n
        crosses = build_diagram(ideal).crosses
        for xi_data in cross_data(n, crosses):
            if xi_data.case != 2:
                continue
            xi = xi_data.xi
            data = segment_data(ideal, crosses, xi_data)
            window = set(range(data.h, data.col_end + 1))
            assert set(data.chained) | set(data.unchained) == window
            assert not set(data.chained) & set(data.unchained)
            assert data.h in data.unchained
            assert xi[1] in data.chained
            assert set(data.i_star) <= set(data.chained)
            # chains are disjoint and their endpoints fill [c, h)
            seen: set[int] = set()
            for chain in data.chains:
                assert not seen & set(chain)
                seen |= set(chain)
            assert {c[-1] for c in data.chains} == set(range(data.c, data.h))
            # runs alternate: equal counts, unchained first, chained last
            assert len(data.chained_segments) == len(data.unchained_segments)
            assert data.unchained_segments[0][0] == data.h
            assert data.chained_segments[-1][-1] == data.col_end
            assert data.d_star >= 1


def test_case_split_is_exhaustive():
    for ideal in random_ideals(30, seed=207):
        crosses = build_diagram(ideal).crosses
        for data in cross_data(ideal.n, crosses):
            assert data.case in (1, 2)
            if data.case == 1:
                assert data.h == data.xi[0]
            else:
                assert data.h < data.xi[1]


def test_construction_error_is_not_raised_for_valid_instances():
    # cross_data must never see h == t, nor a malformed minor, on crosses
    # of real diagrams
    for ideal in random_ideals(30, seed=208):
        crosses = build_diagram(ideal).crosses
        try:
            cross_data(ideal.n, crosses)
        except ConstructionError as exc:  # pragma: no cover
            pytest.fail(f"unexpected construction error: {exc}")


def test_cross_data_exhaustive():
    # every cross of every regular ideal with n <= 6, against the product
    # through it built from scratch and against the invariant records, whose
    # invariants have int coefficients +1 and -1
    for n in range(1, 7):
        for ideal in all_regular_ideals(n):
            crosses = build_diagram(ideal).crosses
            data = cross_data(n, crosses)
            records = all_invariants(ideal)
            assert [d.xi for d in data] == [r.xi for r in records] == list(crosses)
            for m, (d, record) in enumerate(zip(data, records)):
                k, t = d.xi
                w = reflection_product(n, crosses[: m + 1])
                assert d.w == w
                assert d.h == w(t)
                assert d.case == (1 if w(t) > t else 2)
                assert d.cols == tuple(j for j in range(1, t + 1) if w(j) >= w(t))
                assert (d.rows, d.cols, d.case) == (record.rows, record.cols, record.case)
                assert_unit_coefficients(record.invariant)
