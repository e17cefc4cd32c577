"""Exact verification harness.

Coadjoint action through matrix conjugation plus projection, randomized
invariance trials, skew-form rank statistics, a brute-force low-degree
invariant oracle, and an aggregate report over every checkable identity.
All trials use seeded generators with small integer entries, so a passing
seed passes forever.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from math import comb
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .diagram import build_diagram, crosscheck_symbols
from .errors import DEFAULT_BUDGET, BudgetError, ConstructionError, InputError
from .invariants import InvariantRecord, all_invariants, triangular_decomposition
from .poly import (
    Monomial,
    Polynomial,
    Scalar,
    bracket_single,
    jacobian_rank,
    poisson_bracket_generator,
)
from .roots import RegularIdeal, Root
from .weyl import column_max_permutation, inversions, reflection_product

_ENTRY_RANGE = (-9, 9)
# Sampled points of the skew_rank check, besides the distinct-prime point.
_RANK_TRIALS = 20


def _draws(rng: random.Random, count: int) -> list[int]:
    """``count`` successive ``rng.randint(*_ENTRY_RANGE)`` values, drawn as
    randint draws them: ``getrandbits`` of the width's bit length, drawn
    again while it reaches the width, plus the low end.  Same values and
    the same generator state afterwards, without randint's per-call checks."""
    lo, hi = _ENTRY_RANGE
    width = hi - lo + 1
    bits = width.bit_length()
    draw = rng.getrandbits
    out = []
    for _ in range(count):
        r = draw(bits)
        while r >= width:
            r = draw(bits)
        out.append(r + lo)
    return out


def _primes(count: int) -> list[int]:
    out: list[int] = []
    candidate = 2
    while len(out) < count:
        if all(candidate % p for p in out):
            out.append(candidate)
        candidate += 1
    return out


@dataclass(frozen=True)
class DualPoint:
    """A linear form on the factor: one int or Fraction per root outside the ideal.

    The matrix view is strictly upper triangular with the value of root
    (k,t) stored at row t, column k, and zeros on the ideal-dual cells.
    """

    ideal: RegularIdeal
    coords: dict[Root, Scalar]

    def __post_init__(self):
        if self.coords.keys() != set(self.ideal.free_roots()):
            raise InputError("point must assign exactly the roots outside the ideal")
        if not set(map(type, self.coords.values())) <= linalg.EXACT_TYPES:
            raise InputError("point coordinates must be int or Fraction")

    @classmethod
    def random(cls, ideal: RegularIdeal, rng: random.Random) -> "DualPoint":
        free = ideal.free_roots()
        return cls(ideal, dict(zip(free, _draws(rng, len(free)))))

    @classmethod
    def prime_point(cls, ideal: RegularIdeal) -> "DualPoint":
        """The structured generic point: distinct primes down the root order."""
        free = ideal.free_roots()
        return cls(ideal, dict(zip(free, _primes(len(free)))))

    def matrix(self) -> list[list]:
        n = self.ideal.n
        rows = [[0] * n for _ in range(n)]
        for (k, t), value in self.coords.items():
            rows[t - 1][k - 1] = value
        return rows

    def to_json(self) -> dict:
        return {
            f"y[{k},{t}]": str(self.coords[(k, t)])
            for (k, t) in self.ideal.free_roots()
        }


@dataclass(frozen=True)
class GroupElement:
    """A lower unitriangular matrix with int or Fraction entries."""

    rows: tuple[tuple, ...]

    def __post_init__(self):
        n = len(self.rows)
        if not set(map(type, chain.from_iterable(self.rows))) <= linalg.EXACT_TYPES:
            raise InputError("group element entries must be int or Fraction")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise InputError("group element must be square")
            # Entries are exact here, so a truthy one is nonzero.
            if row[i] != 1 or any(row[i + 1:]):
                raise InputError("group element must be lower unitriangular")

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "GroupElement":
        """Entries below the diagonal drawn in row order."""
        return cls(_unitriangular(n, _draws(rng, n * (n - 1) // 2)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]


def _unitriangular(n: int, below: Sequence) -> tuple[tuple, ...]:
    """The lower unitriangular rows with ``below`` below the diagonal, in row order."""
    unit = (1,) + (0,) * n
    rows = []
    start = 0
    for i in range(n):
        rows.append(tuple(below[start:start + i]) + unit[: n - i])
        start += i
    return tuple(rows)


def coadjoint_act(g: GroupElement, point: DualPoint) -> DualPoint:
    """Conjugate the matrix view B by ``g`` and project back onto the strictly
    upper pattern; the ideal-dual cells of the result must already vanish."""
    n = point.ideal.n
    if g.n != n:
        raise InputError(f"size mismatch: group element is {g.n}, point is {n}")
    full = point.matrix()
    _move(g.rows, full, point.ideal.roots)
    coords = {}
    for (k, t) in point.ideal.free_roots():
        coords[(k, t)] = full[t - 1][k - 1]
    return DualPoint(point.ideal, coords)


def _move(rows: Sequence[Sequence], full: list[list], ideal_roots) -> None:
    """The coadjoint move of ``coadjoint_act`` in place on the matrix view
    ``full``, with g given by ``rows``, of which only the entries below the
    diagonal are read; raises ConstructionError if a cell of
    ``ideal_roots`` ends nonzero.

    Only the strictly upper cells of g·B·g⁻¹ are computed, the ones the
    projection reads.  Row i of L = g·B there is the sum of g[i][m]·B[m]
    over m <= i, and F = L·g⁻¹ solves F·g = L: back-substitution from the
    last column, F[i][j] = L[i][j] - sum over k > j of F[i][k]·g[k][j],
    reads only upper cells.  No inverse of g is formed.  Row i starts from
    B[i], since g[i][i] = 1, and zero coefficients add nothing.  Rows are
    overwritten in place from the last one up: row i reads B[m] only for
    m < i, and those rows are still untouched.
    """
    n = len(full)
    for i in range(n - 1, -1, -1):
        f, gi = full[i], rows[i]
        for m in range(i):
            c = gi[m]
            if c:
                bm = full[m]
                for j in range(i + 1, n):
                    f[j] += c * bm[j]
        for j in range(n - 1, i, -1):
            c = f[j]
            if c:
                gj = rows[j]
                for m in range(i + 1, j):
                    f[m] -= c * gj[m]
    for (k, t) in ideal_roots:
        if full[t - 1][k - 1] != 0:
            raise ConstructionError(
                f"coadjoint action left a nonzero value on the ideal cell ({k},{t})"
            )


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass", "fail", or "skipped"
    detail: Optional[str] = None
    trials: Optional[int] = None
    seed: Optional[int] = None
    witness: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_json(self) -> dict:
        doc = {"name": self.name, "status": self.status}
        if self.detail is not None:
            doc["detail"] = self.detail
        if self.trials is not None:
            doc["trials"] = self.trials
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            line = f"{c.status.upper():7s} {c.name}"
            if c.detail:
                line += f" ({c.detail})"
            out.append(line)
        return out


def _require_int(**values) -> None:
    """Raise InputError unless every value is an int; a bool is not one."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise InputError(f"{name} must be an integer, got {value!r}")


def check_invariance(
    records: Sequence[InvariantRecord],
    ideal: RegularIdeal,
    trials: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Exact invariance of every record's highest coefficient.

    First all subdiagonal generator brackets must reduce to zero; then the
    value must be constant under ``trials`` seeded coadjoint moves.

    The trials run on flat integer lists in ``ideal.free_roots()`` order.
    Each record is compiled once into (coefficient, variable positions)
    terms.  Each trial makes one ``_draws`` call, the same ``randint(-9,
    9)`` stream ``GroupElement.random`` then ``DualPoint.random`` read: the
    entries of g below the diagonal row by row, then the point down the free
    roots.  The point goes into the matrix view through precomputed cells,
    ``_move`` (the body of ``coadjoint_act``, ideal-cell guard included)
    moves it, and the moved values are read back from the same cells.  Only
    a failing trial builds the ``GroupElement``, ``DualPoint`` and
    ``coadjoint_act`` objects, and its before and after values come from
    ``Polynomial.evaluate``, so the witness is what the public API
    reproduces from the seed.
    """
    _require_int(trials=trials, seed=seed)
    if trials < 1:
        raise InputError("at least one trial is required")
    n = ideal.n
    report = VerificationReport()

    witness = None
    for record in records:
        for i in range(1, n):
            residual = poisson_bracket_generator(i, record.invariant, ideal)
            if not residual.is_zero:
                witness = {
                    "xi": list(record.xi),
                    "generator": i,
                    "residual": str(residual),
                }
                break
        if witness:
            break
    report.checks.append(
        CheckResult(
            name="poisson_annihilation",
            status="fail" if witness else "pass",
            detail=f"{len(records)} invariants x {max(n - 1, 0)} generators",
            witness=witness,
        )
    )

    free = ideal.free_roots()
    position = {root: p for p, root in enumerate(free)}
    compiled = [_compile(record.invariant, position) for record in records]
    cells = [(t - 1, k - 1) for (k, t) in free]
    below = n * (n - 1) // 2
    starts = [(i, i * (i - 1) // 2) for i in range(n)]
    rng = random.Random(seed)
    witness = None
    for trial in range(trials):
        drawn = _draws(rng, below + len(free))
        x = drawn[below:]
        full = [[0] * n for _ in range(n)]
        for (r, c), v in zip(cells, x):
            full[r][c] = v
        _move([drawn[s:s + i] for i, s in starts], full, ideal.roots)
        moved = [full[r][c] for r, c in cells]
        for record, terms in zip(records, compiled):
            if _value(terms, x) != _value(terms, moved):
                g = GroupElement(_unitriangular(n, drawn[:below]))
                point = DualPoint(ideal, dict(zip(free, x)))
                before = record.invariant.evaluate(point.coords)
                after = record.invariant.evaluate(coadjoint_act(g, point).coords)
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
    report.checks.append(
        CheckResult(
            name="coadjoint_trials",
            status="fail" if witness else "pass",
            trials=trials,
            seed=seed,
            witness=witness,
        )
    )
    return report


def _compile(
    poly: Polynomial, position: dict[Root, int]
) -> list[tuple[Scalar, tuple[int, ...]]]:
    """``poly`` as (coefficient, positions) terms over the free roots, a
    position repeated once per power."""
    terms = []
    for mono, coef in poly.terms.items():
        spots: list[int] = []
        for r, e in mono:
            if r not in position:
                raise InputError(f"y[{r[0]},{r[1]}] is not a coordinate of the factor")
            spots += [position[r]] * e
        terms.append((coef, tuple(spots)))
    return terms


def _value(terms: list[tuple[Scalar, tuple[int, ...]]], x: list[int]) -> Scalar:
    """The value of compiled ``terms`` at the point ``x``."""
    total = 0
    for value, spots in terms:
        for p in spots:
            value *= x[p]
        total += value
    return total


class SkewStats(NamedTuple):
    max_rank: int
    corank: int


def skew_rank_stats(
    ideal: RegularIdeal, trials: int = _RANK_TRIALS, seed: int = 0
) -> SkewStats:
    """Maximal rank of the bracket form over sampled points, and its corank.

    The form on the roots outside the ideal sends a pair of basis roots to
    the value of their bracket at the point.  Sampling covers ``trials``
    random points plus the distinct-prime point.
    """
    _require_int(trials=trials, seed=seed)
    if trials < 1:
        raise InputError("at least one trial is required")
    basis = ideal.free_roots()
    dim = len(basis)
    if dim == 0:
        return SkewStats(0, 0)
    table: list[tuple[int, int, int, Root]] = []
    for a in range(dim):
        for b in range(a + 1, dim):
            hit = bracket_single(basis[a], basis[b])
            if hit is None:
                continue
            sign, root = hit
            if root in ideal:
                continue
            table.append((a, b, sign, root))
    rng = random.Random(seed)
    points = [DualPoint.prime_point(ideal)]
    points.extend(DualPoint.random(ideal, rng) for _ in range(trials))
    best = 0
    for point in points:
        rows = [[0] * dim for _ in range(dim)]
        for a, b, sign, root in table:
            value = sign * point.coords[root]
            rows[a][b] = value
            rows[b][a] = -value
        best = max(best, linalg.rank(rows))
    return SkewStats(best, dim - best)


def _oracle_size(ideal: RegularIdeal, max_degree: int) -> int:
    """Number of nonconstant monomials of degree <= ``max_degree`` the oracle scans."""
    variables = len(ideal.free_roots())
    return comb(variables + max_degree, max_degree) - 1 if variables else 0


def oracle_invariants(
    ideal: RegularIdeal,
    max_degree: int,
    budget: int = DEFAULT_BUDGET,
) -> list[Polynomial]:
    """Brute-force basis of all polynomial invariants up to ``max_degree``.

    Solves for the exact kernel of every subdiagonal generator bracket on
    the span of non-constant monomials.  Generator brackets shift the torus
    weight of a monomial, so the kernel splits across weight components and
    each component is solved independently.  Basis elements come back with
    integer coprime coefficients and positive leading term.  Raises
    InputError when ``max_degree`` or ``budget`` is not an int, when
    ``max_degree`` is below 1 or ``budget`` below 0, and BudgetError when
    there are more than ``budget`` monomials.

    Nearly every coefficient is settled before any elimination.  An
    equation with one nonzero term forces that monomial's coefficient to
    zero in every kernel vector.  The first round of these is found from
    support bitmasks while the monomials are enumerated, before any
    equation is built.  Generator i moves a variable b onto at most one
    variable r, and no two variables onto the same r, so the equation of an
    image has one term per distinct i-target (a variable some b moves onto
    under i) it holds.  The image m/b*r of a monomial m is then alone in its
    equation exactly when supp(m/b) holds no i-target but r.  b is never an
    i-target itself (targets of (i+1,i) lie in row i+1 or column i, b in row
    i or column i+1), so m is forced when ``supp(m) & targets[i] & ~bit(r)``
    is zero for one of its moves.  On the n=7 reference at degree 4 this
    leaves 388 of 5984 monomials, and only those build equations.  A
    worklist settles the later rounds: a forced column leaves every equation
    it is in, and one left with one term forces that column in turn.  It
    reaches the same forced set as from the full system, whose first round
    is the one-term rows.

    Only the kept columns become ``Monomial`` tuples, and only the remaining
    equations, on the kept columns in the library's monomial order (fewest
    distinct variables first, then by the tuples), go to
    ``linalg.nullspace``.  The basis is unchanged by this.  The kernel is
    the same, with every forced coefficient zero, so a forced column is a
    pivot column of the reduced row echelon form; each free column then
    gets the same reduced echelon vector, and the same positive coprime
    scaling, as from the full system in that order, whatever the order of
    the rows.
    """
    _require_int(max_degree=max_degree, budget=budget)
    if max_degree < 1:
        raise InputError("max_degree must be at least 1")
    if budget < 0:
        raise InputError("budget must be at least 0")
    n = ideal.n
    variables = ideal.free_roots()
    total = _oracle_size(ideal, max_degree)
    if total > budget:
        raise BudgetError(
            f"oracle would scan {total} monomials, budget is {budget}"
        )
    moves, groups = _oracle_columns(ideal, max_degree)

    basis: list[Polynomial] = []
    for members in groups.values():
        # One sparse row (column -> coefficient) per generator i and image
        # code.  The bracket with b^e is s*e*(mono/b)*r: one term per copy
        # of b.
        equations: dict[int, dict[int, int]] = {}
        for col, (combo, code) in enumerate(members):
            start = code * n
            for k in combo:
                for sign, move, _, _ in moves[k]:
                    row = equations.get(start + move)
                    if row is None:
                        equations[start + move] = {col: sign}
                    else:
                        row[col] = row.get(col, 0) + sign
        # No entry cancels: copies of one variable add with one sign, and
        # two variables a != b of a monomial move to (mono/a)*r and
        # (mono/b)*r', which differ because r and a differ in weight.  The
        # first round's columns are gone already, so a row with one entry
        # here lost its other entries to them; it forces its column to zero
        # in every kernel vector.  A worklist of forced columns settles the
        # rest: each column leaves the rows it is in, and a row left with
        # one entry forces that column in turn.  Only rows with two or more
        # entries are indexed, and each of their entries is deleted at most
        # once.
        forced: set[int] = set()
        rows: list[dict[int, int]] = []
        for row in equations.values():
            if len(row) == 1:
                forced.update(row)
            else:
                rows.append(row)
        rows_of: dict[int, list[dict[int, int]]] = {}
        for row in rows:
            for c in row:
                rows_of.setdefault(c, []).append(row)
        pending = list(forced)
        while pending:
            c = pending.pop()
            for row in rows_of.get(c, ()):
                del row[c]
                if len(row) == 1:
                    (last,) = row
                    if last not in forced:
                        forced.add(last)
                        pending.append(last)
        kept = [c for c in range(len(members)) if c not in forced]
        if not kept:
            continue
        monos = {c: _monomial([variables[k] for k in members[c][0]]) for c in kept}
        kept.sort(key=lambda c: (len(monos[c]), monos[c]))
        dense = [[row.get(c, 0) for c in kept] for row in rows if row]
        for vector in linalg.nullspace(dense, len(kept)):
            poly = Polynomial({monos[c]: v for c, v in zip(kept, vector)})
            basis.append(poly.normalize_sign())
    basis.sort(key=lambda p: (p.degree(), str(p)))
    return basis


def _oracle_columns(
    ideal: RegularIdeal, max_degree: int
) -> tuple[list[list[tuple[int, int, int, int]]], dict[int, list]]:
    """The oracle's bracket moves per variable, and its monomials of degree
    1..``max_degree`` grouped by weight code, less the first round of forced
    monomials (those with an image alone in its equation)."""
    n = ideal.n
    variables = ideal.free_roots()
    # Until the kept columns are known, a monomial is its combo (its
    # variables' positions, nondecreasing, one per copy), two integer codes
    # and its support bitmask.  The position code is the sum of base**k
    # over the combo, with base = max_degree + 1; exponents stay below base,
    # so the code is one-to-one, and moving one copy of variable k to
    # variable r adds base**r - base**k.  The weight code is the sum of
    # big**(i-1) - big**(j-1) over the variables (i,j), with
    # big = 2 * max_degree + 1; every torus weight coordinate lies in
    # [-max_degree, max_degree], so equal codes mean equal weights.
    #
    # moves[k] lists (s, shift * n + i, i, r) for each generator (i+1,i)
    # whose bracket with variable k is s*r, r outside the ideal, so the
    # equation key (code + shift) * n + i is one add.  guards[k] holds, per
    # move, targets[i] & ~bit(r), where targets[i] is the mask of every r
    # that generator i reaches.
    base = max_degree + 1
    power = [base**k for k in range(len(variables))]
    position = {root: k for k, root in enumerate(variables)}
    moves: list[list[tuple[int, int, int, int]]] = [[] for _ in variables]
    targets = [0] * n
    for i in range(1, n):
        if (i + 1, i) in ideal:
            continue
        for k, root in enumerate(variables):
            hit = bracket_single((i + 1, i), root)
            if hit is not None and hit[1] not in ideal:
                r = position[hit[1]]
                moves[k].append((hit[0], (power[r] - power[k]) * n + i, i, r))
                targets[i] |= 1 << r
    guards = [[targets[i] & ~(1 << r) for _, _, i, r in mk] for mk in moves]
    # A monomial m whose support holds none of the targets a guard names is
    # forced: its image under that move is alone in its equation.
    big = 2 * max_degree + 1
    torus = [big ** (i - 1) - big ** (j - 1) for i, j in variables]
    groups: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    layer = [((k,), power[k], torus[k], 1 << k) for k in range(len(variables))]
    for degree in range(1, max_degree + 1):
        for combo, code, weight, supp in layer:
            if all(supp & g for k in combo for g in guards[k]):
                groups.setdefault(weight, []).append((combo, code))
        if degree < max_degree:
            layer = (
                (combo + (k,), code + power[k], weight + torus[k], supp | 1 << k)
                for combo, code, weight, supp in layer
                for k in range(combo[-1], len(variables))
            )
            # The top layer, the largest, is read once and never held whole.
            if degree + 1 < max_degree:
                layer = list(layer)
    return moves, groups


def _monomial(roots: Sequence[Root]) -> Monomial:
    """The monomial of a list of roots already in decreasing order."""
    mono: list[tuple[Root, int]] = []
    for root in roots:
        if mono and mono[-1][0] == root:
            mono[-1] = (root, mono[-1][1] + 1)
        else:
            mono.append((root, 1))
    return tuple(mono)


def full_report(
    ideal: RegularIdeal,
    trials: int = 100,
    seed: int = 0,
    max_degree: int = 4,
    oracle_budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Run every checkable identity for one regular factor.

    Raises InputError, before any check runs, when ``trials``, ``seed``,
    ``max_degree`` or ``oracle_budget`` is not an int (a bool is not one),
    when ``trials`` or ``max_degree`` is below 1, or when ``oracle_budget``
    is below 0.
    """
    _require_int(trials=trials, seed=seed, max_degree=max_degree,
                 oracle_budget=oracle_budget)
    if trials < 1:
        raise InputError("at least one trial is required")
    if max_degree < 1:
        raise InputError("max_degree must be at least 1")
    if oracle_budget < 0:
        raise InputError("budget must be at least 0")
    report = VerificationReport()
    diagram = build_diagram(ideal)
    counts = diagram.counts()
    n = ideal.n

    def run(name: str, fn, **extra) -> None:
        try:
            detail = fn()
            report.checks.append(
                CheckResult(name=name, status="pass", detail=detail, **extra)
            )
        except (ConstructionError, InputError) as exc:
            report.checks.append(
                CheckResult(name=name, status="fail", detail=str(exc), **extra)
            )

    def check_symbols():
        crosscheck_symbols(ideal, diagram)
        return f"{n * (n - 1) // 2} cells"

    run("diagram_symbol_rule", check_symbols)

    def check_counts():
        total = n * (n - 1) // 2
        if counts.crosses + counts.plus_minus + counts.bullets != total:
            raise ConstructionError("symbol counts do not cover the grid")
        if counts.plus_minus % 2:
            raise ConstructionError("plus and minus counts are unbalanced")
        if counts.bullets != len(ideal.roots):
            raise ConstructionError("bullets disagree with the ideal")
        if counts.crosses + counts.plus_minus != ideal.dim:
            raise ConstructionError("crosses plus pairs disagree with the dimension")
        return (
            f"crosses={counts.crosses} plus_minus={counts.plus_minus} "
            f"bullets={counts.bullets}"
        )

    run("diagram_counts", check_counts)

    w = column_max_permutation(ideal)

    def check_product():
        if reflection_product(n, diagram.crosses) != w:
            raise ConstructionError("reflection product disagrees with the "
                                    "column-max permutation")
        return f"w={list(w.images)}"

    run("permutation_reflection_product", check_product)

    def check_length():
        length = inversions(w)
        if length != ideal.dim:
            raise ConstructionError(
                f"inversion count {length} differs from dimension {ideal.dim}"
            )
        return f"l(w)={length}"

    run("permutation_length", check_length)

    records: list[InvariantRecord] = []

    def check_records():
        records.extend(all_invariants(ideal, diagram))
        for record in records:
            triangular_decomposition(record)
        return f"{len(records)} records"

    run("invariant_records", check_records)
    records_ok = report.checks[-1].status == "pass"

    if records_ok:
        report.extend(check_invariance(records, ideal, trials=trials, seed=seed))
    else:
        report.checks.append(
            CheckResult("poisson_annihilation", "skipped", detail="no records")
        )
        report.checks.append(
            CheckResult("coadjoint_trials", "skipped", detail="no records")
        )

    def check_skew():
        stats = skew_rank_stats(ideal, trials=_RANK_TRIALS, seed=seed)
        if stats.max_rank != counts.plus_minus:
            raise ConstructionError(
                f"max skew rank {stats.max_rank} differs from the "
                f"plus/minus count {counts.plus_minus}"
            )
        if stats.corank != counts.crosses:
            raise ConstructionError(
                f"skew corank {stats.corank} differs from the cross count "
                f"{counts.crosses}"
            )
        return f"max_rank={stats.max_rank} corank={stats.corank}"

    run("skew_rank", check_skew, trials=_RANK_TRIALS, seed=seed)

    def check_jacobian():
        point = DualPoint.prime_point(ideal)
        found = jacobian_rank([r.invariant for r in records], point.coords)
        if found != len(records):
            raise ConstructionError(
                f"Jacobian rank {found} differs from the cross count {len(records)}"
            )
        return f"rank={found}"

    if records_ok:
        run("jacobian_rank", check_jacobian)
    else:
        report.checks.append(
            CheckResult("jacobian_rank", "skipped", detail="no records")
        )

    oracle_size = _oracle_size(ideal, max_degree)
    if not records_ok:
        report.checks.append(
            CheckResult("oracle_containment", "skipped", detail="no records")
        )
    elif oracle_size > oracle_budget:
        report.checks.append(
            CheckResult(
                name="oracle_containment",
                status="skipped",
                detail=f"{oracle_size} monomials exceed budget {oracle_budget}",
            )
        )
    else:
        def check_oracle():
            low = [r for r in records if r.invariant.degree() <= max_degree]
            if not low:
                return "no low-degree invariants"
            basis = oracle_invariants(ideal, max_degree, budget=oracle_budget)
            polys = basis + [r.invariant for r in low]
            index: dict[Monomial, int] = {}
            for p in polys:
                for m in p.terms:
                    index.setdefault(m, len(index))
            rows = [[0] * len(index) for _ in polys]
            for row, p in zip(rows, polys):
                for m, c in p.terms.items():
                    row[index[m]] = c
            inside = linalg.in_span(rows[: len(basis)], rows[len(basis):])
            for record, ok in zip(low, inside):
                if not ok:
                    raise ConstructionError(
                        f"invariant of {record.xi} is outside the oracle kernel"
                    )
            return f"{len(low)} invariants inside a basis of {len(basis)}"

        run("oracle_containment", check_oracle)

    return report
