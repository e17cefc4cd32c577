"""Minors of the characteristic matrix, shifts, extremality, and the scan."""

import random
from itertools import combinations

import pytest

from regfactor import minors
from regfactor import (
    BudgetError,
    InputError,
    MinorSpec,
    Polynomial,
    close_ideal,
    enumerate_extremal,
    is_extremal,
    minor_degree,
    minor_top,
    positive_roots,
    shift_spec,
)
from helpers import (
    all_regular_ideals,
    assert_unit_coefficients,
    ideal_doc,
    n7_ideal,
    naive_minor,
    naive_top,
    phi_matrix,
    poisson_bracket_generator,
    random_ideal,
    y,
)


def _char_cell(i, j, phi_cell):
    """Degree and highest coefficient of cell (i, j) of the characteristic
    matrix, from Phi's cell: minus the auxiliary variable on the diagonal,
    Phi's cell off it, (-1, 0) when that is zero."""
    if i == j:
        return (1, Polynomial.constant(-1))
    return (-1 if phi_cell.is_zero else 0, phi_cell)


def _kernel(ideal, spec):
    """``minor_top`` of the spec, after checking that ``minor_degree``
    agrees with its degree."""
    degree, top = minor_top(ideal, spec)
    assert minor_degree(ideal, spec) == degree
    return degree, top


def test_phi_pattern_reference():
    ideal = n7_ideal()
    phi = phi_matrix(ideal)
    for i in range(1, 8):
        for j in range(1, 8):
            cell = phi[i - 1][j - 1]
            if i <= j or (i, j) in ideal:
                assert cell.is_zero
            else:
                assert cell == y(i, j)
            assert _kernel(ideal, MinorSpec((i,), (j,))) == _char_cell(i, j, cell)
    # zeros precisely at the ideal inside the strict lower triangle
    zero_cells = {
        (i, j)
        for i in range(2, 8)
        for j in range(1, i)
        if phi[i - 1][j - 1].is_zero
    }
    assert zero_cells == {(5, 1), (6, 1), (7, 1), (7, 2)}


def test_phi_small_cases():
    phi = phi_matrix(close_ideal(2, []))
    assert phi[0][0].is_zero and phi[0][1].is_zero and phi[1][1].is_zero
    assert phi[1][0] == y(2, 1)
    full = close_ideal(3, positive_roots(3))
    phi = phi_matrix(full)
    assert all(c.is_zero for row in phi for c in row)
    assert all(
        _kernel(full, MinorSpec((i,), (j,))) == _char_cell(i, j, phi[i - 1][j - 1])
        for i in range(1, 4)
        for j in range(1, 4)
    )


def test_minor_reference_four_by_four():
    # rows {2,3,4,7} x cols {1,2,3,4} of the n=7 instance, expanded by hand:
    # the permutation-sum reference gives every coefficient, the kernel the
    # degree and the highest one
    ideal = n7_ideal()
    spec = MinorSpec((2, 3, 4, 7), (1, 2, 3, 4))
    value = naive_minor(ideal, spec.rows, spec.cols)
    assert len(value) - 1 == 2
    assert value[2] == y(7, 4) * y(4, 1) + y(7, 3) * y(3, 1)
    assert value[1] == (
        y(7, 3) * y(2, 1) * y(3, 2)
        + y(7, 4) * y(2, 1) * y(4, 2)
        + y(7, 4) * y(3, 1) * y(4, 3)
    )
    assert value[0] == y(7, 4) * y(2, 1) * y(3, 2) * y(4, 3)
    assert _kernel(ideal, spec) == (2, y(7, 4) * y(4, 1) + y(7, 3) * y(3, 1))


def test_minor_reference_three_by_three():
    ideal = n7_ideal()
    expected = (
        y(5, 2) * y(6, 3) * y(7, 4)
        - y(5, 2) * y(6, 4) * y(7, 3)
        - y(5, 3) * y(6, 2) * y(7, 4)
        + y(5, 4) * y(6, 2) * y(7, 3)
    )
    assert _kernel(ideal, MinorSpec((5, 6, 7), (2, 3, 4))) == (0, expected)


def test_minor_diagonal_cell():
    ideal = close_ideal(4, [])
    assert _kernel(ideal, MinorSpec((2,), (2,))) == (1, Polynomial.constant(-1))


def test_minor_input_errors():
    with pytest.raises(InputError):
        MinorSpec((1, 2), (1,))
    with pytest.raises(InputError):
        MinorSpec((2, 1), (1, 2))
    ideal = close_ideal(3, [])
    with pytest.raises(InputError):
        minor_top(ideal, MinorSpec((1,), (4,)))
    with pytest.raises(InputError):
        minor_degree(ideal, MinorSpec((4,), (1,)))


def test_shift_examples():
    spec = MinorSpec((3, 4, 6, 7), (1, 2, 3, 4))
    assert shift_spec(spec, 4, "down") == MinorSpec((3, 5, 6, 7), (1, 2, 3, 4))
    assert shift_spec(spec, 3, "down") is None
    assert shift_spec(spec, 1, "left") is None
    assert shift_spec(spec, 7, "down") == MinorSpec((3, 4, 6, 8), (1, 2, 3, 4))
    assert shift_spec(MinorSpec((5,), (3,)), 2, "left") == MinorSpec((5,), (2,))
    with pytest.raises(InputError):
        shift_spec(spec, 0, "down")
    with pytest.raises(InputError):
        shift_spec(spec, 1, "sideways")


def test_unchecked_shifts_match_shift_spec():
    # is_extremal's private shifts are shift_spec's, for every spec with
    # n <= 5, every index and both directions, and each is a valid spec.
    for size in range(1, 6):
        for rows in combinations(range(1, 6), size):
            for cols in combinations(range(1, 6), size):
                spec = MinorSpec(rows, cols)
                for i in range(1, 6):
                    for direction in ("down", "left"):
                        shifted = minors._shift(spec, i, direction)
                        assert shifted == shift_spec(spec, i, direction)
                        if shifted is not None:
                            assert shifted == MinorSpec(shifted.rows, shifted.cols)
                            assert type(shifted.rows) is type(shifted.cols) is tuple


def test_is_extremal_examples():
    n7 = n7_ideal()
    assert is_extremal(n7, MinorSpec((5, 6, 7), (2, 3, 4)))
    free3 = close_ideal(3, [])
    assert not is_extremal(free3, MinorSpec((2,), (1,)))
    free2 = close_ideal(2, [])
    assert is_extremal(free2, MinorSpec((2,), (1,)))
    with pytest.raises(InputError):
        is_extremal(free3, MinorSpec((1,), (2,)))  # zero minor


def test_enumerate_examples():
    found = enumerate_extremal(close_ideal(4, []), max_size=2)
    assert MinorSpec((4,), (1,)) in found
    assert MinorSpec((3, 4), (1, 2)) in found

    assert enumerate_extremal(close_ideal(2, [])) == [MinorSpec((2,), (1,))]
    assert enumerate_extremal(close_ideal(3, positive_roots(3))) == []


def test_enumerate_budget():
    with pytest.raises(BudgetError) as info:
        enumerate_extremal(close_ideal(5, []), budget=10)
    assert info.value.valid is False
    assert isinstance(info.value.partial, list)


def test_enumerate_order_is_canonical():
    found = enumerate_extremal(close_ideal(5, []), max_size=3)
    keys = [(s.size, s.rows, s.cols) for s in found]
    assert keys == sorted(keys)


def test_degree_bounded_by_diagonal_overlap():
    rng = random.Random(42)
    for _ in range(40):
        ideal = random_ideal(rng, n_max=7)
        n = ideal.n
        size = rng.randint(1, n)
        rows = tuple(sorted(rng.sample(range(1, n + 1), size)))
        cols = tuple(sorted(rng.sample(range(1, n + 1), size)))
        overlap = len(set(rows) & set(cols))
        assert minor_degree(ideal, MinorSpec(rows, cols)) <= overlap


def test_empty_spec_is_the_unit():
    ideal = close_ideal(3, [])
    assert _kernel(ideal, MinorSpec((), ())) == (0, Polynomial.constant(1))
    # a zero minor: row 1 has no nonzero cell in columns 2 and 3
    assert _kernel(ideal, MinorSpec((1, 2), (2, 3))) == (-1, Polynomial.zero())


def test_matching_kernel_exhaustive_small():
    # every spec of every regular ideal for n <= 5 (1, 2, 5, 14, 42 ideals):
    # degree and highest coefficient against the permutation-sum oracle
    import itertools

    for n in range(1, 6):
        for ideal in all_regular_ideals(n):
            indices = range(1, n + 1)
            for size in range(1, n + 1):
                for rows in itertools.combinations(indices, size):
                    for cols in itertools.combinations(indices, size):
                        spec = MinorSpec(rows, cols)
                        expected = naive_top(ideal, rows, cols)
                        assert _kernel(ideal, spec) == expected
                        if expected[0] >= 0:
                            assert_unit_coefficients(expected[1])


def test_extremal_top_coefficients_are_invariant():
    # the defining property (Theorem 2.5): every extremal minor's highest
    # coefficient, at every size, is annihilated by all subdiagonal generator
    # brackets, on every regular ideal with n <= 5 and on the n=7 reference
    ideals = [i for n in range(1, 6) for i in all_regular_ideals(n)] + [n7_ideal()]
    for ideal in ideals:
        for spec in enumerate_extremal(ideal):
            _, top = minor_top(ideal, spec)
            for i in range(1, ideal.n):
                residual = poisson_bracket_generator(i, top, ideal)
                assert residual.is_zero, (ideal_doc(ideal), spec, i)


def _reference_extremal(ideal):
    """Every extremal minor with a nonconstant highest coefficient, in
    canonical order, from permutation-sum degrees alone: a spec is kept when
    its degree is neither -1 nor its size and strictly beats the degree of
    every one-step row-down and column-left shift inside the matrix."""
    import itertools

    n = ideal.n
    degrees = {}

    def degree(rows, cols):
        if (rows, cols) not in degrees:
            degrees[rows, cols] = len(naive_minor(ideal, rows, cols)) - 1
        return degrees[rows, cols]

    def shifts(rows, cols):
        for i in rows:
            if i < n and i + 1 not in rows:
                yield tuple(sorted(set(rows) - {i} | {i + 1})), cols
        for j in cols:
            if j > 1 and j - 1 not in cols:
                yield rows, tuple(sorted(set(cols) - {j} | {j - 1}))

    found = []
    for size in range(1, n + 1):
        for rows in itertools.combinations(range(1, n + 1), size):
            for cols in itertools.combinations(range(1, n + 1), size):
                d = degree(rows, cols)
                if d in (-1, size):
                    continue
                if all(degree(*shifted) < d for shifted in shifts(rows, cols)):
                    found.append(MinorSpec(rows, cols))
    return found


def test_extremal_scan_is_complete():
    # every regular ideal with n <= 5 (1009 extremal minors in all): the scan
    # finds exactly the specs the permutation-sum reference keeps
    for n in range(1, 6):
        for ideal in all_regular_ideals(n):
            assert enumerate_extremal(ideal) == _reference_extremal(ideal), ideal_doc(ideal)


@pytest.mark.slow
def test_extremal_top_coefficients_are_invariant_n6():
    # Theorem 2.5 on every n=6 ideal: the highest coefficient of every
    # extremal minor, at every size, is annihilated by every generator bracket
    for ideal in all_regular_ideals(6):
        for spec in enumerate_extremal(ideal):
            _, top = minor_top(ideal, spec)
            for i in range(1, ideal.n):
                residual = poisson_bracket_generator(i, top, ideal)
                assert residual.is_zero, (ideal_doc(ideal), spec, i)
