"""Shared test fixtures: the n=7 reference instance, random regular ideals,
small tools the library does not need (root sums, group-element products
and inverses, problem documents, span membership of rows and polynomials, the
distinct-prime point), and independent oracles (descent chains from
per-column reflection products, permutation-sum
determinant, brute inversion count, Fraction Gauss-Jordan elimination,
partial derivatives, the generator bracket and the Jacobian rank in
polynomial arithmetic, per-monomial bracket oracle, dense coadjoint
conjugation, the plain formal matrix, the full Poisson bracket and
reduction modulo the ideal, the skew rank at the prime point)
that never touch the code paths they check; and the coadjoint trials
through the public objects, whose move is the library's own, checked
against the dense conjugation."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, gcd, lcm, prod

from regfactor import (
    CheckResult,
    ConstructionError,
    DualPoint,
    GroupElement,
    InputError,
    Permutation,
    Polynomial,
    RegularIdeal,
    bracket_single,
    close_ideal,
    coadjoint_act,
    positive_roots,
    prec_key,
    reflection_product,
)
from regfactor import linalg

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


def root_sum(a, b):
    """Partial addition: (i,j) + (j,m) = (i,m); None when indices do not chain."""
    if a[1] == b[0]:
        return (a[0], b[1])
    if b[1] == a[0]:
        return (b[0], a[1])
    return None


def ideal_doc(ideal: RegularIdeal) -> dict:
    """The problem-file form of an ideal: every root listed as a generator."""
    return {"n": ideal.n, "ideal_generators": [list(r) for r in sorted(ideal.roots)]}


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def group_identity(n: int) -> GroupElement:
    return GroupElement(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def group_product(a: GroupElement, b: GroupElement) -> GroupElement:
    n = a.n
    return GroupElement(tuple(
        tuple(sum(a.rows[i][k] * b.rows[k][j] for k in range(j, i + 1)) for j in range(n))
        for i in range(n)
    ))


def group_inverse(g: GroupElement) -> GroupElement:
    """Forward substitution; stays over the integers for integer input."""
    n = g.n
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for k in range(i):
            if g.rows[i][k]:
                for j in range(k + 1):
                    inv[i][j] -= g.rows[i][k] * inv[k][j]
    return GroupElement(tuple(map(tuple, inv)))


def rank_of(rows, n_cols: int) -> int:
    return linalg._rank([list(row) for row in rows], n_cols)


def nullspace_of(rows, n_cols: int) -> list[list[int]]:
    return linalg._kernel([list(row) for row in rows], n_cols)


def in_span(vectors, targets) -> list[bool]:
    """Whether each of ``targets`` is a rational linear combination of
    ``vectors``: that is, whether it is orthogonal to every vector of their
    kernel, so one ``nullspace_of`` call serves every target."""
    if not targets:
        return []
    kernel = nullspace_of(vectors, len(targets[0]))
    return [not any(sum(k * x for k, x in zip(vec, t)) for vec in kernel) for t in targets]


def in_poly_span(basis, polys) -> list[bool]:
    """Membership of each of ``polys`` in the rational span of ``basis``:
    ``in_span`` on coefficient rows over one monomial list."""
    everything = [*basis, *polys]
    monos = list(dict.fromkeys(m for p in everything for m in p.terms))
    rows = [[p.terms.get(m, 0) for m in monos] for p in everything]
    return in_span(rows[: len(basis)], rows[len(basis):])


def phi_matrix(ideal: RegularIdeal) -> list[list[Polynomial]]:
    """The plain formal matrix (no diagonal subtraction) as nested lists."""
    n = ideal.n
    zero = Polynomial.zero()
    return [
        [
            Polynomial.variable((i, j))
            if i > j and (i, j) not in ideal
            else zero
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]


def primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    out: list[int] = []
    candidate = 2
    while len(out) < count:
        if all(candidate % p for p in out):
            out.append(candidate)
        candidate += 1
    return out


def prime_point(ideal: RegularIdeal) -> DualPoint:
    """The structured generic point: distinct primes down the root order."""
    free = ideal.free_roots()
    return DualPoint(ideal, dict(zip(free, primes(len(free)))))


def derivative(p: Polynomial, root) -> Polynomial:
    """Partial derivative of ``p`` with respect to one root variable."""
    root = tuple(root)
    out: dict = {}
    for mono, coef in p.terms.items():
        for pos, (r, e) in enumerate(mono):
            if r == root:
                if e == 1:
                    reduced = mono[:pos] + mono[pos + 1:]
                else:
                    reduced = mono[:pos] + ((r, e - 1),) + mono[pos + 1:]
                out[reduced] = out.get(reduced, 0) + coef * e
                break
    return Polynomial(out)


def poisson_bracket(p: Polynomial, q: Polynomial) -> Polynomial:
    """Full Poisson bracket, extended from the basis as a biderivation."""
    out = Polynomial.zero()
    for a in p.variables():
        dp = derivative(p, a)
        if dp.is_zero:
            continue
        for b in q.variables():
            hit = bracket_single(a, b)
            if hit is None:
                continue
            sign, root = hit
            out = out + dp * derivative(q, b) * Polynomial({((root, 1),): sign})
    return out


def poisson_bracket_generator(i: int, p: Polynomial, ideal: RegularIdeal) -> Polynomial:
    """Bracket of the subdiagonal generator at rows (i+1, i) with ``p``,
    reduced modulo the ideal, in polynomial arithmetic: a derivative times
    a moved variable per variable of ``p``.

    ``p`` may only use variables outside the ideal; the result is zero when
    the generator itself lies in the ideal.
    """
    n = ideal.n
    if not 1 <= i <= n - 1:
        raise InputError(f"generator index must lie in [1, {n - 1}], got {i}")
    bad = [r for r in p.variables() if r in ideal]
    if bad:
        raise InputError(f"polynomial uses ideal variables: {sorted(bad)}")
    gen = (i + 1, i)
    if gen in ideal:
        return Polynomial.zero()
    out = Polynomial.zero()
    for b in p.variables():
        hit = bracket_single(gen, b)
        if hit is None:
            continue
        sign, root = hit
        if root in ideal:
            continue
        out = out + derivative(p, b) * Polynomial({((root, 1),): sign})
    return out


def jacobian_rank(polys, point) -> int:
    """Rank of the matrix of partial derivatives at ``point``: each
    derivative built as a polynomial and evaluated, over the variables the
    polynomials use, and the rank the pivot count of ``gauss_jordan``."""
    if not polys:
        return 0
    variables = sorted({v for p in polys for v in p.variables()}, key=prec_key)
    rows = [[derivative(p, v).evaluate(point) for v in variables] for p in polys]
    return len(gauss_jordan(rows)[1])


def reduce_mod_ideal(p: Polynomial, ideal: RegularIdeal) -> Polynomial:
    """Drop every monomial containing a variable from the ideal."""
    out = {
        mono: coef
        for mono, coef in p.terms.items()
        if all(r not in ideal for r, _ in mono)
    }
    return Polynomial(out)


def reference_chains(n: int, crosses, data) -> tuple[tuple[int, ...], ...]:
    """The descent chain of every extra row of the case-2 cross ``data``,
    stepped one column product at a time: the product over the crosses of
    the cross's column down to it, then the product over each column to its
    left.  A row v <= t starts at column v-1.  Raises the library's
    InputError when a row admits no descent."""
    k, t = data.xi
    through = reflection_product(
        n, [r for r in crosses if r[1] == t and prec_key(r) <= prec_key(data.xi)]
    )
    columns = [reflection_product(n, [r for r in crosses if r[1] == c]) for c in range(t)]

    def descend(v):
        if v > t:
            u = through(v)
            if u < v:
                return u
            start = t - 1
        else:
            u, start = v, v - 1
        for c in range(start, 0, -1):
            u = columns[c](u)
            if u < v:
                return u
        raise InputError(f"row {v} admits no descent for cross {data.xi}")

    chains = []
    for i in data.rows[t - data.h + 1:]:
        chain = [i]
        while not (data.cols[0] <= chain[-1] < data.h):
            chain.append(descend(chain[-1]))
        chains.append(tuple(chain))
    return tuple(chains)


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

    Entirely independent of the library's matching kernel: entries are
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


def naive_top(ideal: RegularIdeal, rows, cols) -> tuple[int, Polynomial]:
    """Degree and highest coefficient of ``naive_minor``, the pair
    ``minor_top`` returns: (-1, 0) for a zero minor."""
    coeffs = naive_minor(ideal, rows, cols)
    return len(coeffs) - 1, coeffs[-1] if coeffs else Polynomial.zero()


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


def assert_int_coefficients(poly: Polynomial) -> None:
    """Every coefficient is a plain int: integer work makes no Fraction."""
    assert all(type(c) is int for c in poly.terms.values()), repr(poly.terms)


def assert_unit_coefficients(poly: Polynomial) -> None:
    """Every coefficient is the int +1 or -1: a characteristic minor has no
    cancellation, so its highest coefficient is a signed sum of distinct
    monomials."""
    assert not poly.is_zero
    assert all(abs(c) == 1 for c in poly.terms.values()), str(poly)
    assert_int_coefficients(poly)


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
        term = Polynomial.constant(coef)
        for _ in range(rng.randint(0, max_factors)):
            term = term * Polynomial.variable(rng.choice(variables))
        out = out + term
    return out


def gauss_jordan(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction and its pivot columns, by
    plain Gauss-Jordan elimination (no integer kernel involved)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def reference_nullspace(rows, n_cols: int) -> list[list[Fraction]]:
    """Kernel basis read off the reduced row echelon form: one vector per
    free column, 1 there and 0 at the other free columns."""
    reduced, pivots = gauss_jordan(rows)
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def reference_oracle(ideal: RegularIdeal, max_degree: int) -> list[Polynomial]:
    """Invariant basis up to ``max_degree`` built the slow way: one
    ``poisson_bracket_generator`` call per (monomial, generator) pair, a
    Fraction equation matrix per weight, and Gauss-Jordan kernels.  Columns
    keep the library's order, so the canonical kernel vectors agree."""
    n = ideal.n
    groups: dict[tuple, list] = {}
    for degree in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(ideal.free_roots(), degree):
            (mono,) = prod(map(Polynomial.variable, combo), start=Polynomial.constant(1)).terms
            weight = [0] * n
            for i, j in combo:
                weight[i - 1] += 1
                weight[j - 1] -= 1
            groups.setdefault(tuple(weight), []).append(mono)
    basis = []
    for weight in sorted(groups):
        monos = sorted(groups[weight], key=lambda m: (len(m), m))
        equations: dict[tuple, list[Fraction]] = {}
        for col, mono in enumerate(monos):
            for i in range(1, n):
                image = poisson_bracket_generator(i, Polynomial({mono: 1}), ideal)
                for out, coef in image.terms.items():
                    equations.setdefault((i, out), [Fraction(0)] * len(monos))[col] = coef
        for vec in reference_nullspace(list(equations.values()), len(monos)):
            denom = lcm(*(x.denominator for x in vec))
            ints = [int(x * denom) for x in vec]
            g = gcd(*ints)
            poly = Polynomial({m: c // g for m, c in zip(monos, ints) if c})
            basis.append(poly.normalize_sign())
    basis.sort(key=lambda p: (p.degree(), str(p)))
    return basis


def bracket_equations(ideal: RegularIdeal, max_degree: int) -> tuple[set, dict]:
    """Every monomial of degree 1..``max_degree`` as a tuple of roots (one
    per copy, in free-root order), and the oracle's equations as the set of
    monomials in each, keyed by generator and bracket image, found one
    ``poisson_bracket_generator`` call at a time."""
    monos = set()
    equations: dict[tuple, set] = {}
    for degree in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(ideal.free_roots(), degree):
            monos.add(combo)
            p = prod(map(Polynomial.variable, combo), start=Polynomial.constant(1))
            for i in range(1, ideal.n):
                for out in poisson_bracket_generator(i, p, ideal).terms:
                    equations.setdefault((i, out), set()).add(combo)
    return monos, equations


def one_entry_columns(equations: dict) -> set:
    """The monomials of ``equations`` (from ``bracket_equations``) that are
    the only term of some equation: the oracle's first round of forced
    columns."""
    return {c for row in equations.values() if len(row) == 1 for c in row}


def forced_closure(equations: dict) -> set:
    """The one-entry rule iterated over the full set of ``equations`` (from
    ``bracket_equations``) until nothing changes: a forced monomial leaves
    every equation, and an equation left with one monomial forces it.  These
    are the columns whose coefficient every invariant sets to zero."""
    forced: set = set()
    while True:
        more = set()
        for row in equations.values():
            left = row - forced
            if len(left) == 1:
                more |= left
        if not more:
            return forced
        forced |= more


def weight_code(mono, max_degree: int) -> int:
    """The oracle's torus-weight code of a monomial at ``max_degree``."""
    big = 2 * max_degree + 1
    return sum(e * (big ** (i - 1) - big ** (j - 1)) for (i, j), e in mono)


def dual_matrix(point: DualPoint) -> list[list]:
    """The matrix view of ``point``: the value of root (k,t) at row t,
    column k, and zeros elsewhere, the ideal-dual cells included."""
    n = point.ideal.n
    rows = [[0] * n for _ in range(n)]
    for (k, t), value in point.coords.items():
        rows[t - 1][k - 1] = value
    return rows


def reference_coadjoint_act(g: GroupElement, point: DualPoint) -> DualPoint:
    """The coadjoint move the dense way: both products g·B and (g·B)·g⁻¹ in
    full, with an explicit inverse, then the same projection and guard."""
    n = point.ideal.n
    if g.n != n:
        raise InputError(f"size mismatch: group element is {g.n}, point is {n}")
    b = dual_matrix(point)
    ginv = group_inverse(g).rows
    left = [
        [sum(g.rows[i][k] * b[k][j] for k in range(i + 1)) for j in range(n)]
        for i in range(n)
    ]
    full = [
        [sum(left[i][k] * ginv[k][j] for k in range(j, n)) for j in range(n)]
        for i in range(n)
    ]
    coords = {}
    for (k, t) in point.ideal.free_roots():
        coords[(k, t)] = full[t - 1][k - 1]
    for (k, t) in point.ideal.roots:
        if full[t - 1][k - 1] != 0:
            raise ConstructionError(
                f"coadjoint action left a nonzero value on the ideal cell ({k},{t})"
            )
    return DualPoint(point.ideal, coords)


def reference_skew_rank_stats(ideal: RegularIdeal) -> tuple[int, int]:
    """(rank, corank) of the bracket form B_x at ``prime_point``, the matrix
    filled pair by pair from ``bracket_single`` and ranked by the pivot
    count of ``gauss_jordan``."""
    basis = ideal.free_roots()
    dim = len(basis)
    coords = prime_point(ideal).coords
    rows = [[0] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            hit = bracket_single(basis[a], basis[b])
            if hit is not None and hit[1] not in ideal:
                rows[a][b] = hit[0] * coords[hit[1]]
                rows[b][a] = -rows[a][b]
    rank = len(gauss_jordan(rows)[1])
    return rank, dim - rank


def reference_check_invariance(records, ideal: RegularIdeal, trials: int,
                               seed: int, act=coadjoint_act) -> CheckResult:
    """The ``coadjoint_trials`` check through the public objects: per trial
    ``GroupElement.random``, then ``DualPoint.random``, one move by ``act``
    (``coadjoint_act``, or ``reference_coadjoint_act`` for one built apart
    from the library's kernel) and ``evaluate`` before and after for each
    record."""
    rng = random.Random(seed)
    witness = None
    for trial in range(trials):
        g = GroupElement.random(ideal.n, rng)
        point = DualPoint.random(ideal, rng)
        moved = act(g, point)
        for record in records:
            before = record.invariant.evaluate(point.coords)
            after = record.invariant.evaluate(moved.coords)
            if before != after:
                witness = {
                    "xi": list(record.xi),
                    "trial": trial,
                    "g": g.to_json(),
                    "point": point.to_json(),
                    "before": str(before),
                    "after": str(after),
                }
                break
        if witness:
            break
    return CheckResult(
        name="coadjoint_trials",
        status="fail" if witness else "pass",
        trials=trials,
        seed=seed,
        witness=witness,
    )
