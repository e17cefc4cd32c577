"""Per-cross invariant records and their structural guarantees."""

import pytest

from regfactor import (
    InputError,
    build_diagram,
    close_ideal,
    cross_data,
    all_invariants,
    invariant_for,
    minor_degree,
    minor_top,
    triangular_decomposition,
)
from helpers import (
    N7_CROSSES,
    assert_unit_coefficients,
    jacobian_rank,
    n7_ideal,
    naive_minor,
    poisson_bracket_generator,
    prime_point,
    random_ideals,
    y,
)


def test_minor_support_reference():
    data = {d.xi: d for d in cross_data(7, N7_CROSSES)}
    assert (data[(5, 4)].rows, data[(5, 4)].cols) == ((5, 6, 7), (2, 3, 4))
    assert data[(7, 4)].rows == (3, 4, 6, 7)
    assert data[(7, 4)].cols == (1, 2, 3, 4)
    assert (data[(4, 1)].rows, data[(4, 1)].cols) == ((4,), (1,))


def test_reference_invariants():
    records = all_invariants(n7_ideal())
    assert [r.xi for r in records] == list(N7_CROSSES)
    assert records[0].invariant == y(4, 1)
    assert records[1].invariant == y(6, 2)
    assert records[2].invariant == y(7, 3)

    rec4 = records[3]
    assert rec4.case == 2 and rec4.h == 3
    assert rec4.degree == 1 and rec4.d_star == 1
    expected4 = y(6, 2) * (y(7, 4) * y(4, 1) + y(7, 3) * y(3, 1))
    assert rec4.invariant in (expected4, -expected4)

    rec5 = records[4]
    assert rec5.case == 1 and rec5.degree == 0 and rec5.d_star is None
    expected5 = (
        y(5, 2) * y(6, 3) * y(7, 4)
        - y(5, 2) * y(6, 4) * y(7, 3)
        - y(5, 3) * y(6, 2) * y(7, 4)
        + y(5, 4) * y(6, 2) * y(7, 3)
    )
    assert rec5.invariant in (expected5, -expected5)
    assert all(r.extremal for r in records)
    for record in records:
        assert_unit_coefficients(record.invariant)


def test_reference_triangular_decompositions():
    records = all_invariants(n7_ideal())
    q1, r1 = triangular_decomposition(records[0])
    assert q1 == 1 and r1.is_zero

    q4, r4 = triangular_decomposition(records[3])
    e_q4 = y(6, 2) * y(4, 1)
    e_r4 = y(6, 2) * y(7, 3) * y(3, 1)
    assert q4 in (e_q4, -e_q4)
    assert r4 in (e_r4, -e_r4)

    q5, _ = triangular_decomposition(records[4])
    # rows {6,7} x cols {2,3} of the formal matrix: the (7,2) cell is zero
    cofactor = y(6, 2) * y(7, 3)
    assert q5 in (cofactor, -cofactor)


def test_corner_minors_for_free_factors():
    for n in range(3, 7):
        ideal = close_ideal(n, [])
        records = all_invariants(ideal)
        assert len(records) == n // 2
        for index, record in enumerate(records, start=1):
            rows = tuple(range(n - index + 1, n + 1))
            cols = tuple(range(1, index + 1))
            assert record.rows == rows
            assert record.cols == cols
            corner = naive_minor(ideal, rows, cols)
            assert len(corner) == 1  # no diagonal overlap, degree zero
            assert record.invariant in (corner[0], -corner[0])
            assert_unit_coefficients(record.invariant)


def test_zero_factor_has_no_invariants():
    assert all_invariants(close_ideal(2, [(2, 1)])) == []


def test_all_invariants_reuses_a_given_diagram():
    ideal = n7_ideal()
    assert all_invariants(ideal, build_diagram(ideal)) == all_invariants(ideal)


def test_record_json_schema():
    records = all_invariants(n7_ideal())
    doc = records[3].to_json()
    assert doc == {
        "xi": [7, 4],
        "case": 2,
        "h": 3,
        "rows": [3, 4, 6, 7],
        "cols": [1, 2, 3, 4],
        "degree": 1,
        "d_star": 1,
        "P": "y[4,1]*y[6,2]*y[7,4] + y[3,1]*y[6,2]*y[7,3]",
        "extremal": True,
    }


def test_invariant_for_single_cross():
    ideal = n7_ideal()
    record = invariant_for(ideal, N7_CROSSES, (6, 2))
    assert record.invariant == y(6, 2)
    with pytest.raises(InputError):
        invariant_for(ideal, N7_CROSSES, (9, 1))


def test_structural_properties_random():
    for ideal in random_ideals(30, seed=301):
        records = all_invariants(ideal)
        diagram = build_diagram(ideal)
        assert len(records) == diagram.counts().crosses
        for record in records:
            # column set is a segment ending at the cross column
            t = record.xi[1]
            assert record.cols == tuple(range(record.cols[0], t + 1))
            assert len(record.rows) == len(record.cols)
            assert record.extremal
            assert_unit_coefficients(record.invariant)
            if record.case == 1:
                assert record.degree == 0 and record.d_star is None
            else:
                assert record.degree == record.d_star >= 1
            # triangular: degree one in the cross variable, parts restricted
            q, r = triangular_decomposition(record)
            assert not q.is_zero
            k, t = record.xi
            for part in (q, r):
                for (i, j) in part.variables():
                    assert j < t or (j == t and i > k)


def test_invariants_annihilated_by_generators_random():
    for ideal in random_ideals(15, seed=302):
        for record in all_invariants(ideal):
            assert_unit_coefficients(record.invariant)
            for i in range(1, ideal.n):
                assert poisson_bracket_generator(i, record.invariant, ideal).is_zero


def test_jacobian_rank_matches_cross_count_random():
    for ideal in random_ideals(15, seed=303):
        records = all_invariants(ideal)
        for record in records:
            assert_unit_coefficients(record.invariant)
        point = prime_point(ideal)
        assert jacobian_rank([r.invariant for r in records], point.coords) == len(records)


def test_record_minors_match_permutation_sum_oracle():
    # independent recomputation of every record's minor, hence of its
    # degree and highest coefficient
    for ideal in random_ideals(12, seed=304):
        for record in all_invariants(ideal):
            expected = naive_minor(ideal, record.rows, record.cols)
            degree, top = len(expected) - 1, expected[-1]
            assert minor_degree(ideal, record.spec) == degree
            assert minor_top(ideal, record.spec) == (degree, top)
            assert record.invariant in (top, -top)
            assert_unit_coefficients(record.invariant)
            assert record.degree == degree
