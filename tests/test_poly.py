"""Polynomial arithmetic, the structure constants, and the test
references for derivatives, generator brackets and Jacobian ranks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regfactor import (
    InputError,
    Polynomial,
    bracket_single,
    close_ideal,
    positive_roots,
)
from helpers import (
    assert_int_coefficients,
    derivative,
    jacobian_rank,
    n7_ideal,
    poisson_bracket,
    poisson_bracket_generator,
    random_polynomial,
    reduce_mod_ideal,
    y,
)


# --- hypothesis strategies over a fixed n=5 variable pool ------------------

_ROOTS5 = positive_roots(5)

_coefficients = st.integers(min_value=-9, max_value=9)


@st.composite
def polynomials(draw):
    terms = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(_ROOTS5), min_size=0, max_size=3),
                _coefficients,
            ),
            max_size=4,
        )
    )
    out = Polynomial.zero()
    for factors, coef in terms:
        term = Polynomial.constant(coef)
        for root in factors:
            term = term * Polynomial.variable(root)
        out = out + term
    return out


# --- construction and arithmetic -------------------------------------------


def test_basic_arithmetic():
    p = 2 * y(3, 1) + y(2, 1) * y(3, 2)
    q = p - y(2, 1) * y(3, 2)
    assert q == 2 * y(3, 1)
    assert (p - p).is_zero
    assert p * 0 == Polynomial.zero()
    assert y(2, 1) ** 3 == y(2, 1) * y(2, 1) * y(2, 1)
    with pytest.raises(InputError):
        Polynomial.constant(Fraction(1, 2)) * 2


def test_numbers_must_be_int():
    # no silent coercion: a fraction, float, bool, string or None
    # coefficient raises
    mono = (((2, 1), 1),)
    for bad in (Fraction(1, 2), Fraction(2), 0.5, True, "1", None):
        with pytest.raises(InputError, match="^polynomial coefficients must be integers$"):
            Polynomial({mono: bad})
    for bad in (Fraction(1, 2), Fraction(2), 0.5, 2.0, True):
        with pytest.raises(InputError, match=r"^y\[2,1\] needs an int for every variable$"):
            y(2, 1).evaluate({(2, 1): bad})
    # arithmetic with a number that is not an int raises InputError, also
    # when the other side is zero; anything that is no number at all is left
    # to Python's TypeError
    for left in (y(2, 1), Polynomial.zero()):
        for bad in (Fraction(1, 2), 1.5, True):
            for op in (lambda a, b: a * b, lambda a, b: b * a):
                with pytest.raises(InputError):
                    op(left, bad)
    for bad in (Fraction(1, 2), 1.5, True):
        for op in (lambda a, b: a + b, lambda a, b: b + a,
                   lambda a, b: a - b, lambda a, b: b - a):
            with pytest.raises(InputError):
                op(y(2, 1), bad)
    with pytest.raises(TypeError):
        y(2, 1) * "2"
    # == never raises: a number that is not an int equals no polynomial
    one = Polynomial.constant(1)
    assert one == 1
    for other in (True, 1.0, Fraction(1), "1"):
        assert (one == other) is False
    for bad in (True, 2.0, -1, Fraction(2)):
        with pytest.raises(InputError, match="^polynomial powers take non-negative integers$"):
            y(2, 1) ** bad


def test_integer_work_stays_int():
    p = (2 * y(3, 1) - y(2, 1) * y(3, 2)) ** 2
    assert_int_coefficients(p)
    assert_int_coefficients(derivative(p, (3, 1)))
    assert type(p.evaluate({(3, 1): 2, (2, 1): 1, (3, 2): 3})) is int
    assert type(Polynomial.zero().evaluate({})) is int


def test_constants_hash_as_their_ints():
    # equal objects hash alike, so a constant and its int are one set member
    assert len({Polynomial.constant(3), 3}) == 1
    assert len({Polynomial.zero(), 0}) == 1
    assert hash(Polynomial.constant(-7)) == hash(-7)
    assert len({y(2, 1), 2 * y(2, 1), y(2, 1) + 0}) == 2


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials())
def test_degree_multiplicative_over_domain(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree() == p.degree() + q.degree()


@settings(max_examples=80, deadline=None)
@given(polynomials(), polynomials())
def test_canonical_string_injective(p, q):
    # printing loses nothing: two polynomials print alike only when equal
    assert (str(p) == str(q)) == (p == q)


def test_derivative():
    p = y(3, 1) ** 2 * y(2, 1) + 4 * y(3, 2)
    assert derivative(p, (3, 1)) == 2 * y(3, 1) * y(2, 1)
    assert derivative(p, (2, 1)) == y(3, 1) ** 2
    assert derivative(p, (3, 2)) == 4
    assert derivative(p, (4, 3)).is_zero


# --- evaluation --------------------------------------------------------------


def test_evaluate_examples():
    assert y(4, 1).evaluate({(4, 1): -3}) == -3
    with pytest.raises(InputError):
        y(4, 1).evaluate({(4, 1): Fraction(3, 2)})
    p = y(7, 4) * y(4, 1) + y(7, 3) * y(3, 1)
    point = {(7, 4): 1, (4, 1): 2, (7, 3): 3, (3, 1): -1}
    assert p.evaluate(point) == -1
    assert Polynomial.zero().evaluate({}) == 0


def test_evaluate_missing_variable():
    with pytest.raises(InputError):
        (y(4, 1) + y(3, 1)).evaluate({(4, 1): 1})


# --- Poisson structure ------------------------------------------------------


def test_bracket_single_table():
    assert bracket_single((3, 2), (2, 1)) == (1, (3, 1))
    assert bracket_single((2, 1), (3, 2)) == (-1, (3, 1))
    assert bracket_single((3, 1), (2, 1)) is None
    assert bracket_single((4, 3), (7, 4)) == (-1, (7, 3))


def test_bracket_antisymmetric_on_all_basis_pairs():
    roots = positive_roots(6)
    for a in roots:
        for b in roots:
            lhs = poisson_bracket(y(*a), y(*b))
            rhs = poisson_bracket(y(*b), y(*a))
            assert lhs == -rhs
            hit = bracket_single(a, b)
            if hit is None:
                assert lhs.is_zero
            else:
                sign, root = hit
                assert lhs == sign * y(*root)


def test_generator_bracket_examples():
    ideal = n7_ideal()
    # the (3,2)-row generator against y[7,3] lands on the ideal cell (7,2)
    assert poisson_bracket_generator(2, y(7, 3), ideal).is_zero
    assert poisson_bracket_generator(2, y(3, 1), ideal).is_zero
    combo = y(7, 4) * y(4, 1) + y(7, 3) * y(3, 1)
    assert poisson_bracket_generator(3, combo, ideal).is_zero
    # without the ideal the first bracket is a genuine root vector
    free = close_ideal(7, [])
    assert poisson_bracket_generator(2, y(7, 3), free) == -y(7, 2)


def test_generator_bracket_killed_generator():
    ideal = close_ideal(2, [(2, 1)])
    assert poisson_bracket_generator(1, Polynomial.constant(5), ideal).is_zero


def test_generator_bracket_input_errors():
    ideal = n7_ideal()
    with pytest.raises(InputError):
        poisson_bracket_generator(7, y(2, 1), ideal)
    with pytest.raises(InputError):
        poisson_bracket_generator(1, y(5, 1), ideal)  # ideal variable


@settings(max_examples=40, deadline=None)
@given(polynomials(), polynomials(), st.integers(1, 4))
def test_leibniz_rule(p, q, i):
    gen = y(i + 1, i)
    lhs = poisson_bracket(gen, p * q)
    rhs = poisson_bracket(gen, p) * q + p * poisson_bracket(gen, q)
    assert lhs == rhs
    free = close_ideal(5, [])
    assert poisson_bracket_generator(i, p * q, free) == lhs


def test_generator_bracket_matches_general_bracket_mod_ideal():
    rng = random.Random(31)
    for _ in range(20):
        ideal = close_ideal(5, [(5, 1)] if rng.random() < 0.5 else [])
        p = random_polynomial(rng, ideal.free_roots() or [(2, 1)])
        p = reduce_mod_ideal(p, ideal)
        for i in range(1, 5):
            expected = reduce_mod_ideal(poisson_bracket(y(i + 1, i), p), ideal)
            if (i + 1, i) in ideal:
                expected = Polynomial.zero()
            assert poisson_bracket_generator(i, p, ideal) == expected


# --- jacobian rank -----------------------------------------------------------


def test_jacobian_rank_examples():
    assert jacobian_rank([], {}) == 0
    point = {(4, 1): 2}
    assert jacobian_rank([y(4, 1), y(4, 1) ** 2 + 1], point) == 1
    with pytest.raises(InputError):
        jacobian_rank([y(4, 1) ** 2], {(4, 1): Fraction(2)})
    point2 = {(4, 1): 2, (3, 1): 3}
    assert jacobian_rank([y(4, 1), y(3, 1)], point2) == 2


def test_normalize_sign():
    p = -y(4, 1) * y(6, 2) - y(3, 1)
    q = p.normalize_sign()
    assert q == -p
    assert q.normalize_sign() == q
    assert Polynomial.zero().normalize_sign().is_zero
