"""Shared test fixtures: the n=7 reference instance, random regular ideals,
and independent oracles (permutation-sum determinant, brute inversion
count) that never touch the code paths they check."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

from regfactor import Polynomial, RegularIdeal, close_ideal, positive_roots

# The n=7 instance with ideal generated by (5,1) and (7,2); its closure,
# diagram, steps, crosses, and permutation are pinned from hand expansion.
N7_GENERATORS = [(5, 1), (7, 2)]
N7_IDEAL_ROOTS = {(5, 1), (6, 1), (7, 1), (7, 2)}
N7_CROSSES = ((4, 1), (6, 2), (7, 3), (7, 4), (5, 4))
N7_W = (4, 6, 7, 5, 3, 2, 1)
N7_DIM = 17

N7_GRID_STEPS = [
    # after step 0
    """
.......
.......
.......
.......
B......
B......
BB.....
""",
    # after step 1
    """
.......
+......
+......
X--....
B......
B......
BB.....
""",
    # after step 2
    """
.......
+......
++.....
X--....
B+.....
BX-.-..
BB.....
""",
    # after step 3
    """
.......
+......
++.....
X--....
B++....
BX-.-..
BBX.-..
""",
    # after step 4
    """
.......
+......
++.....
X--....
B++....
BX-+-..
BBXX--.
""",
    # after step 5 (final)
    """
.......
+......
++.....
X--....
B++X...
BX-+-..
BBXX--.
""",
]
N7_GRID_FINAL = N7_GRID_STEPS[-1]


def n7_ideal() -> RegularIdeal:
    return close_ideal(7, N7_GENERATORS)


def grid(text: str) -> str:
    return text.strip("\n")


def y(i: int, j: int) -> Polynomial:
    return Polynomial.variable((i, j))


def count_inversions_brute(images) -> int:
    return sum(
        1
        for a, b in itertools.combinations(range(len(images)), 2)
        if images[a] > images[b]
    )


def naive_minor(ideal: RegularIdeal, rows, cols) -> list[Polynomial]:
    """Permutation-sum determinant of the selected submatrix of the
    characteristic matrix, as a coefficient list in the auxiliary variable
    from degree 0 upward (trailing zeros trimmed).

    Entirely independent of the library's subset expansion: entries are
    plain (lambda-degree, Polynomial) pairs and the sum runs over all
    permutations with the inversion-parity sign.
    """
    m = len(rows)
    assert m == len(cols)

    def entry(i, j):
        if i == j:
            return (1, Polynomial.constant(-1))
        if i < j or (i, j) in ideal:
            return None
        return (0, Polynomial.variable((i, j)))

    table = [[entry(i, j) for j in cols] for i in rows]
    acc: dict[int, Polynomial] = {}
    for perm in itertools.permutations(range(m)):
        cells = []
        for r in range(m):
            cell = table[r][perm[r]]
            if cell is None:
                break
            cells.append(cell)
        if len(cells) < m:
            continue
        sign = 1
        for a, b in itertools.combinations(range(m), 2):
            if perm[a] > perm[b]:
                sign = -sign
        lam_power = sum(c[0] for c in cells)
        coef = Polynomial.constant(sign)
        for c in cells:
            coef = coef * c[1]
        acc[lam_power] = acc.get(lam_power, Polynomial.zero()) + coef
    top = max((p for p, v in acc.items() if not v.is_zero), default=-1)
    return [acc.get(p, Polynomial.zero()) for p in range(top + 1)]


def all_regular_ideals(n: int) -> list[RegularIdeal]:
    """Every regular ideal for size n, built from its column boundaries:
    column j holds the rows b_j..n with j+1 <= b_j <= n+1 and b_j
    nondecreasing in j.  There are Catalan(n) of them (Cellini-Papi 2000)."""
    out = []

    def extend(j: int, low: int, roots: frozenset) -> None:
        if j == n:
            out.append(RegularIdeal(n, roots))
            return
        for b in range(max(low, j + 1), n + 2):
            extend(j + 1, b, roots | {(i, j) for i in range(b, n + 1)})

    extend(1, 2, frozenset())
    assert len(out) == comb(2 * n, n) // (n + 1)
    return out


def assert_unit_coefficients(poly: Polynomial) -> None:
    """Every coefficient is +1 or -1: a characteristic minor has no
    cancellation, so its highest coefficient is a signed sum of distinct
    monomials."""
    assert not poly.is_zero
    assert all(abs(c) == 1 for c in poly.terms.values()), str(poly)


def random_ideal(rng: random.Random, n: int | None = None, n_max: int = 8) -> RegularIdeal:
    if n is None:
        n = rng.randint(2, n_max)
    if rng.random() < 0.5:
        # few generators: staircase-shaped ideals, rich in case-2 crosses
        count = rng.randint(0, 3)
        generators = rng.sample(positive_roots(n), min(count, n * (n - 1) // 2))
    else:
        density = rng.choice([0.0, 0.1, 0.2, 0.35, 0.6])
        generators = [r for r in positive_roots(n) if rng.random() < density]
    return close_ideal(n, generators)


def random_ideals(count: int, seed: int, n_max: int = 8) -> list[RegularIdeal]:
    """Deterministic pool of regular ideals, edge cases included."""
    rng = random.Random(seed)
    pool = [
        close_ideal(2, []),
        close_ideal(2, [(2, 1)]),
        close_ideal(8, []),
        close_ideal(8, positive_roots(8)),
        n7_ideal(),
        # staircase shapes with several case-2 crosses
        close_ideal(6, [(5, 1)]),
        close_ideal(6, [(6, 2)]),
        close_ideal(7, [(7, 1), (6, 1)]),
        close_ideal(8, [(6, 1), (8, 3)]),
    ]
    while len(pool) < count:
        pool.append(random_ideal(rng, n_max=n_max))
    return pool


def random_polynomial(
    rng: random.Random,
    variables,
    max_terms: int = 4,
    max_factors: int = 3,
    coef_range=(-6, 6),
) -> Polynomial:
    out = Polynomial.zero()
    variables = list(variables)
    for _ in range(rng.randint(0, max_terms)):
        coef = 0
        while coef == 0:
            coef = rng.randint(*coef_range)
        term = Polynomial.constant(
            Fraction(coef, rng.randint(1, 4)) if rng.random() < 0.3 else coef
        )
        for _ in range(rng.randint(0, max_factors)):
            term = term * Polynomial.variable(rng.choice(variables))
        out = out + term
    return out
