"""Rank and kernel from the integer elimination kernel, checked against a
plain Fraction Gauss-Jordan reference, and the tests' span membership built
on the kernel.  ``rank_of`` and ``nullspace_of`` hand the kernel a copy of
the rows."""

from math import gcd

from hypothesis import given, settings, strategies as st

from helpers import gauss_jordan, in_span, nullspace_of, rank_of, reference_nullspace


def test_rank_examples():
    assert rank_of([[1, 2], [2, 4]], 2) == 1
    assert rank_of([[0, 1, 2], [1, 0, 3], [1, 1, 5]], 3) == 2
    assert rank_of([[2, 0], [0, 3]], 2) == 2
    assert rank_of([[3, 2], [6, 4]], 2) == 1
    assert rank_of([[0, 0], [0, 0]], 2) == 0


def test_empty_and_zero_column_input():
    assert rank_of([], 0) == 0
    assert rank_of([[], []], 0) == 0
    assert nullspace_of([], 0) == []
    assert nullspace_of([[], []], 0) == []
    # zero rows: the kernel is the whole space
    assert nullspace_of([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert in_span([], [[]]) == [True]
    assert in_span([[], []], [[]]) == [True]
    assert in_span([], [[0, 0], [1, 0]]) == [True, False]
    assert in_span([[1, 2]], []) == []


def test_nullspace_examples():
    assert nullspace_of([[1, 2, 3]], 3) == [[-2, 1, 0], [-3, 0, 1]]
    assert nullspace_of([[2, 4], [1, 2]], 2) == [[-2, 1]]
    assert nullspace_of([[1, 0], [0, 1]], 2) == []
    # one vector per free column, scaled to coprime integers
    assert nullspace_of([[3, 0, 2]], 3) == [[0, 1, 0], [-2, 0, 3]]
    assert nullspace_of([[3, 2]], 2) == [[-2, 3]]
    assert nullspace_of([[-2, 1]], 2) == [[1, 2]]


def test_in_span_examples():
    assert in_span([[1, 2], [2, 4]], [[3, 6], [1, 0]]) == [True, False]
    assert in_span([[1, 0, 1], [0, 1, 1]], [[2, -3, -1]]) == [True]
    assert in_span([[1, 2]], [[-2, -4], [1, 1], [0, 0]]) == [True, False, True]


_entries = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))


@st.composite
def matrices(draw):
    n_cols = draw(st.integers(min_value=0, max_value=5))
    rows = draw(st.lists(st.lists(_entries, min_size=n_cols, max_size=n_cols), max_size=5))
    # a combination of earlier rows makes rank deficiency common
    if rows and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return rows, n_cols


@settings(max_examples=200, deadline=None)
@given(matrices(), st.lists(_entries, min_size=5, max_size=5))
def test_kernel_matches_gauss_jordan_reference(matrix, target):
    rows, n_cols = matrix
    _, pivots = gauss_jordan(rows)
    assert rank_of(rows, n_cols) == len(pivots)
    kernel = nullspace_of(rows, n_cols)
    reference = reference_nullspace(rows, n_cols)
    assert len(kernel) == len(reference) == n_cols - len(pivots)
    for vec, ref in zip(kernel, reference):
        assert all(type(x) is int for x in vec)
        assert gcd(*vec) == 1
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
        # the same vector up to a positive scale
        free = next(c for c, x in enumerate(ref) if x == 1 and c not in pivots)
        assert vec[free] > 0
        assert vec == [vec[free] * x for x in ref]
    target = target[:n_cols]
    combination = [sum(row[j] * (k - 2) for k, row in enumerate(rows)) for j in range(n_cols)]
    assert in_span(rows, [target, combination]) == [
        len(gauss_jordan(rows + [target])[1]) == len(pivots), True
    ]


@st.composite
def skew_matrices(draw):
    """Rank-deficient skew-symmetric integer matrices C·K·Cᵀ up to 20×20,
    K skew of a smaller size, sometimes with extra rows: the shapes and
    sizes of verify's bracket forms and beyond."""
    size = draw(st.integers(min_value=0, max_value=20))
    inner = draw(st.integers(min_value=0, max_value=size))
    c = draw(st.lists(st.lists(_entries, min_size=inner, max_size=inner),
                      min_size=size, max_size=size))
    k = [[0] * inner for _ in range(inner)]
    for i in range(inner):
        for j in range(i + 1, inner):
            k[i][j] = draw(_entries)
            k[j][i] = -k[i][j]
    ck = [[sum(row[m] * k[m][j] for m in range(inner)) for j in range(inner)] for row in c]
    rows = [[sum(a * b for a, b in zip(left, right)) for right in c] for left in ck]
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if size else 0):
        if rows and draw(st.booleans()):
            # a combination of two rows keeps the rank
            p = draw(st.integers(min_value=-3, max_value=3))
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([p * x + y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(_entries, min_size=size, max_size=size)))
    return rows


@settings(max_examples=100, deadline=None)
@given(skew_matrices())
def test_rank_of_skew_matrices_matches_gauss_jordan_reference(rows):
    assert rank_of(rows, len(rows[0]) if rows else 0) == len(gauss_jordan(rows)[1])
