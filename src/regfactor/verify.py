"""Exact verification harness.

Coadjoint action through matrix conjugation plus projection, generator
brackets, randomized invariance trials and Jacobian ranks on compiled
record terms, the skew-form rank at the distinct-prime point, a
brute-force low-degree invariant oracle (one equation system per torus
weight: solved for the basis, counted for the report), and an aggregate
report over every checkable identity.  All trials use seeded generators
with small integer entries, so a passing seed passes forever; every number
taken or given is a plain ``int``.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from math import comb, prod
from operator import add, mul, ne
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .diagram import build_diagram, crosscheck_symbols
from .errors import DEFAULT_BUDGET, BudgetError, ConstructionError, InputError, require_ints
from .invariants import InvariantRecord, all_invariants, triangular_decomposition
from .poly import Monomial, Polynomial, bracket_single
from .roots import RegularIdeal, Root
from .weyl import column_max_permutation, inversions, reflection_product

_ENTRY_RANGE = (-9, 9)
# _draws reads one draw from the top byte of each 32-bit word: the draw is
# the byte's top bits, as many as the range's width has, plus the low end.
_WIDTH = _ENTRY_RANGE[1] - _ENTRY_RANGE[0] + 1
_SHIFT = 8 - _WIDTH.bit_length()
_BYTE_DRAW = bytes(((b >> _SHIFT) + _ENTRY_RANGE[0]) & 0xFF for b in range(256))
_BYTE_REJECTED = bytes(b for b in range(256) if b >> _SHIFT >= _WIDTH)
# Trials that check_invariance runs together, one column entry each.
_BLOCK = 128
# Per generator i, free position -> (sign, image position): _generator_moves.
_Moves = dict[int, dict[int, tuple[int, int]]]


def _draws(rng: random.Random, count: int) -> array:
    """``count`` successive ``rng.randint(*_ENTRY_RANGE)`` values, leaving the
    generator in the state those calls leave.

    randint(-9, 9) takes ``getrandbits(5)``, the top five bits of one 32-bit
    Mersenne Twister word, takes another word while that is 19 or more, and
    adds -9.  ``getrandbits(32 * k)`` is the next k words, least significant
    first, so in its little-endian bytes every fourth byte, from the fourth,
    is a word's top byte; a byte table maps it to its draw and deletes the
    rejected ones.  Each round asks for as many words as values are still
    missing, so no word past the last accepted one is read.
    """
    out = array("b")
    while len(out) < count:
        words = count - len(out)
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        out.frombytes(top.translate(_BYTE_DRAW, _BYTE_REJECTED))
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
    """A linear form on the factor: one int per root outside the ideal.

    The matrix view is strictly upper triangular with the value of root
    (k,t) stored at row t, column k, and zeros on the ideal-dual cells.
    """

    ideal: RegularIdeal
    coords: dict[Root, int]

    def __post_init__(self):
        if self.coords.keys() != set(self.ideal.free_roots()):
            raise InputError("point must assign exactly the roots outside the ideal")
        require_ints(self.coords.values(), "point coordinates must be integers")

    @classmethod
    def random(cls, ideal: RegularIdeal, rng: random.Random) -> "DualPoint":
        free = ideal.free_roots()
        return cls(ideal, dict(zip(free, _draws(rng, len(free)))))

    def to_json(self) -> dict:
        return {
            f"y[{k},{t}]": str(self.coords[(k, t)])
            for (k, t) in self.ideal.free_roots()
        }


@dataclass(frozen=True)
class GroupElement:
    """A lower unitriangular matrix with int entries."""

    rows: tuple[tuple, ...]

    def __post_init__(self):
        n = len(self.rows)
        require_ints(chain.from_iterable(self.rows), "group element entries must be integers")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise InputError("group element must be square")
            # Entries are ints here, so a truthy one is nonzero.
            if row[i] != 1 or any(row[i + 1:]):
                raise InputError("group element must be lower unitriangular")

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "GroupElement":
        """Entries below the diagonal drawn in row order.  Raises InputError,
        before drawing, unless ``n`` is an int (a bool is not one) and at
        least 1."""
        require_ints((n,), "n must be an integer, got {!r}", n)
        if n < 1:
            raise InputError("n must be at least 1")
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
    upper pattern; the ideal-dual cells of the result must already vanish.

    The move is ``_move_columns`` on one-element columns, the kernel that
    ``check_invariance`` runs on a block of trials.
    """
    n = point.ideal.n
    if g.n != n:
        raise InputError(f"size mismatch: group element is {g.n}, point is {n}")
    full: list[list] = [[None] * n for _ in range(n)]
    for (k, t), value in point.coords.items():
        full[t - 1][k - 1] = [value]
    _move_columns([[[v] for v in row[:i]] for i, row in enumerate(g.rows)], full)
    _, root = _first_leak(full, point.ideal.roots, 1)
    if root is not None:
        raise _leak_error(root)
    coords = {}
    for (k, t) in point.ideal.free_roots():
        coords[(k, t)] = full[t - 1][k - 1][0]
    return DualPoint(point.ideal, coords)


def _move_columns(g: Sequence[Sequence[Sequence]], full: list[list]) -> None:
    """The coadjoint move of a block of trials, held as columns, in place.

    ``full`` is the matrix view B with one column per cell, a list of that
    cell's values across the trials, or None on a cell that is zero in every
    trial by structure: one outside B's free cells that nothing has reached
    yet.  ``g[i][m]``, for m < i, is the column of g's entry at row i,
    column m.  Each update is one comprehension over the block, and a None
    cell is skipped, so B's sparsity is read once per block.

    Only the strictly upper cells of g·B·g⁻¹ are computed, the ones the
    projection reads.  Row i of L = g·B there is the sum of g[i][m]·B[m]
    over m <= i, and F = L·g⁻¹ solves F·g = L: back-substitution from the
    last column, F[i][j] = L[i][j] - sum over k > j of F[i][k]·g[k][j],
    reads only upper cells.  No inverse of g is formed.  Row i starts from
    B[i], since g[i][i] = 1.  Rows are replaced from the last one up: row i
    reads B[m] only for m < i, and those rows are still untouched.  Every
    update builds a new list, so the columns passed in are never changed.
    """
    n = len(full)
    for i in range(n - 1, -1, -1):
        f, gi = full[i], g[i]
        for m in range(i):
            c, bm = gi[m], full[m]
            for j in range(i + 1, n):
                b = bm[j]
                if b is not None:
                    a = f[j]
                    f[j] = ([u * v for u, v in zip(c, b)] if a is None
                            else [s + u * v for s, u, v in zip(a, c, b)])
        for j in range(n - 1, i, -1):
            c = f[j]
            if c is not None:
                gj = g[j]
                for m in range(i + 1, j):
                    a = f[m]
                    f[m] = ([-u * v for u, v in zip(c, gj[m])] if a is None
                            else [s - u * v for s, u, v in zip(a, c, gj[m])])


def _first_leak(full: list[list], roots, size: int) -> tuple[int, Optional[Root]]:
    """The first trial of a block of ``size`` whose moved matrix view
    ``full`` is nonzero on a cell of ``roots``, and the first such root in
    ``roots`` order at that trial; (``size``, None) when there is none."""
    trial, found = size, None
    for root in roots:
        column = full[root[1] - 1][root[0] - 1]
        if column is not None:
            t = next((t for t, v in enumerate(column) if v), size)
            if t < trial:
                trial, found = t, root
    return trial, found


def _leak_error(root: Root) -> ConstructionError:
    """The error of a move that leaves ``root``'s ideal cell nonzero."""
    return ConstructionError(
        f"coadjoint action left a nonzero value on the ideal cell ({root[0]},{root[1]})"
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


def _check_trials(trials: int, seed: int) -> None:
    require_ints((trials,), "trials must be an integer, got {!r}", trials)
    require_ints((seed,), "seed must be an integer, got {!r}", seed)
    if trials < 1:
        raise InputError("at least one trial is required")


def check_invariance(
    records: Sequence[InvariantRecord],
    ideal: RegularIdeal,
    trials: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Exact invariance of every record's highest coefficient.

    First all subdiagonal generator brackets must reduce to zero; then the
    value must be constant under ``trials`` seeded coadjoint moves.  Both
    checks read each record compiled once into (coefficient, positions)
    terms, positions in ``ideal.free_roots()`` order.  A bracket is one pass
    over the terms (``_bracket``), the moves taken from
    ``_generator_moves``; the first record, then the first generator, with
    a nonzero residual is the witness, and only its residual becomes a
    ``Polynomial``.

    The trials run ``_BLOCK`` at a time, held as columns (one list per
    matrix cell or point coordinate, one entry per trial), and
    ``_move_columns``, the kernel of ``coadjoint_act``, moves each block.
    Each block makes one ``_draws`` call on the one ``random.Random(seed)``:
    the values and final state of the ``randint(-9, 9)`` calls that
    ``GroupElement.random`` then ``DualPoint.random`` make per trial (g below
    the diagonal row by row, then the point down the free roots).  Each
    entry of g and each coordinate of the point is one stride slice of them.

    The check fails at the first trial that leaks onto an ideal cell (a
    ConstructionError naming the first such cell in ``ideal.roots`` order)
    or changes a record's value (the first such record), the leak first
    when both happen at one trial.  Only a failing trial builds the
    ``GroupElement``, ``DualPoint`` and ``coadjoint_act`` objects, and its
    values come from ``Polynomial.evaluate``, so the witness is what the
    public API reproduces from the seed.
    """
    _check_trials(trials, seed)
    compiled = _compile_records(records, ideal)
    return _check_compiled(records, compiled, ideal, _generator_moves(ideal), trials, seed)


def _compile_records(
    records: Sequence[InvariantRecord], ideal: RegularIdeal
) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Each record's invariant compiled over ``ideal.free_roots()``."""
    position = {root: p for p, root in enumerate(ideal.free_roots())}
    return [_compile(record.invariant, position) for record in records]


def _check_compiled(
    records: Sequence[InvariantRecord],
    compiled: list[list[tuple[int, tuple[int, ...]]]],
    ideal: RegularIdeal,
    moves: _Moves,
    trials: int,
    seed: int,
) -> VerificationReport:
    """``check_invariance`` on records already compiled by
    ``_compile_records``, with the ideal's ``_generator_moves`` and with
    ``trials`` and ``seed`` already checked."""
    n = ideal.n
    report = VerificationReport()
    free = ideal.free_roots()

    witness = None
    for record, terms in zip(records, compiled):
        for i, table in moves.items():
            residual = _bracket(terms, table)
            if any(residual.values()):
                poly = Polynomial({_monomial([free[k] for k in spots]): c
                                   for spots, c in residual.items()})
                witness = {"xi": list(record.xi), "generator": i, "residual": str(poly)}
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

    cells = [(t - 1, k - 1) for (k, t) in free]
    below = n * (n - 1) // 2
    per_trial = below + len(free)
    rng = random.Random(seed)
    witness = None
    for first in range(0, trials, _BLOCK):
        size = min(_BLOCK, trials - first)
        vals = _draws(rng, size * per_trial)
        x = [vals[below + q::per_trial] for q in range(len(free))]
        full: list[list] = [[None] * n for _ in range(n)]
        for (r, c), column in zip(cells, x):
            full[r][c] = column
        g = [[vals[i * (i - 1) // 2 + m::per_trial] for m in range(i)] for i in range(n)]
        _move_columns(g, full)
        moved = [full[r][c] for r, c in cells]
        trial, root = _first_leak(full, ideal.roots, size)
        culprit = None
        for record, terms in zip(records, compiled):
            before, after = _values(terms, x, size), _values(terms, moved, size)
            if before != after:
                t = list(map(ne, before, after)).index(True)
                if t < trial:
                    trial, root, culprit = t, None, record
        if root is not None:
            raise _leak_error(root)
        if culprit is not None:
            at = trial * per_trial
            element = GroupElement(_unitriangular(n, vals[at:at + below]))
            point = DualPoint(ideal, dict(zip(free, vals[at + below:at + per_trial])))
            before = culprit.invariant.evaluate(point.coords)
            after = culprit.invariant.evaluate(coadjoint_act(element, point).coords)
            witness = {
                "xi": list(culprit.xi),
                "trial": first + trial,
                "g": element.to_json(),
                "point": point.to_json(),
                "before": str(before),
                "after": str(after),
            }
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
) -> list[tuple[int, tuple[int, ...]]]:
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


def _values(
    terms: list[tuple[int, tuple[int, ...]]], columns: Sequence[Sequence], size: int
) -> list[int]:
    """The values of compiled ``terms`` at each of ``size`` points, given by
    one column per coordinate."""
    total: list[int] = [0] * size
    for coef, spots in terms:
        term = repeat(coef, size)
        for p in spots:
            term = map(mul, term, columns[p])
        total = list(map(add, total, term))
    return total


def _generator_moves(ideal: RegularIdeal) -> _Moves:
    """For each generator (i+1,i) outside the ideal, in order of i, the map
    from a free position k to (sign, r) when the generator's bracket with
    the variable at k is sign times the variable at free position r; a
    bracket onto an ideal cell is zero in the factor and has no entry."""
    variables = ideal.free_roots()
    position = {root: k for k, root in enumerate(variables)}
    moves: _Moves = {}
    for i in range(1, ideal.n):
        if (i + 1, i) in ideal:
            continue
        table = moves[i] = {}
        for k, root in enumerate(variables):
            hit = bracket_single((i + 1, i), root)
            if hit is not None and hit[1] in position:
                table[k] = (hit[0], position[hit[1]])
    return moves


def _bracket(
    terms: list[tuple[int, tuple[int, ...]]], table: dict[int, tuple[int, int]]
) -> dict[tuple[int, ...], int]:
    """The bracket of the generator with the moves ``table`` with compiled
    ``terms``, as a map from sorted positions to coefficient (zeros kept).

    The bracket is a derivation, so each copy of a moved variable in a term
    gives one term, that copy replaced by its target.
    """
    out: dict[tuple[int, ...], int] = {}
    for coef, spots in terms:
        for at, k in enumerate(spots):
            move = table.get(k)
            if move is not None:
                sign, r = move
                key = tuple(sorted(spots[:at] + (r,) + spots[at + 1:]))
                out[key] = out.get(key, 0) + sign * coef
    return out


def _gradient(terms: list[tuple[int, tuple[int, ...]]], x: Sequence[int]) -> list[int]:
    """The partial derivatives of compiled ``terms`` at the point ``x``, one
    per coordinate: each copy of a variable in a term adds the value of the
    term's other factors."""
    row = [0] * len(x)
    for coef, spots in terms:
        values = [x[p] for p in spots]
        for at, p in enumerate(spots):
            row[p] += coef * prod(values[:at]) * prod(values[at + 1:])
    return row


class SkewStats(NamedTuple):
    max_rank: int
    corank: int


def skew_rank_stats(ideal: RegularIdeal) -> SkewStats:
    """Rank of the bracket form at the distinct-prime point, and its corank.

    The form on the roots outside the ideal sends a pair of basis roots to
    the value of their bracket at the point.  A rank at one point is a lower
    bound on the generic rank.  When Poisson annihilation holds and the
    Jacobian rank is the cross count c, generic orbits have dimension at
    most dim - c (Rosenlicht), so a rank that reaches the plus/minus count
    proves that count is the generic rank.
    """
    dim = len(ideal.free_roots())
    rank = linalg.rank(_skew_form(_bracket_table(ideal), dim, _primes(dim)))
    return SkewStats(rank, dim - rank)


def _bracket_table(ideal: RegularIdeal) -> list[tuple[int, int, int, int]]:
    """(a, b, sign, c) for each pair a < b of positions in
    ``ideal.free_roots()`` whose bracket is sign times the free root at
    position c."""
    basis = ideal.free_roots()
    position = {root: c for c, root in enumerate(basis)}
    table = []
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            hit = bracket_single(basis[a], basis[b])
            if hit is not None and hit[1] in position:
                table.append((a, b, hit[0], position[hit[1]]))
    return table


def _skew_form(
    table: list[tuple[int, int, int, int]], dim: int, x: Sequence[int]
) -> list[list[int]]:
    """The matrix of B_x, with x given by its values down the free roots."""
    rows: list[list[int]] = [[0] * dim for _ in range(dim)]
    for a, b, sign, c in table:
        value = sign * x[c]
        rows[a][b] = value
        rows[b][a] = -value
    return rows


# Per weight code, the oracle's kept columns (key -> combo) and sparse rows.
_System = dict[int, tuple[dict[int, tuple[int, ...]], list[dict[int, int]]]]
# Per weight code of the oracle: its kept monomials and kernel vectors.
_Blocks = dict[int, tuple[list[Monomial], list[list[int]]]]


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
    the span of non-constant monomials, one torus weight at a time
    (``_oracle_blocks``).  Basis elements come back with integer coprime
    coefficients and positive leading term, sorted by degree and then by
    their strings.  Raises InputError when ``max_degree`` or ``budget`` is
    not an int, when ``max_degree`` is below 1 or ``budget`` below 0, and
    BudgetError when there are more than ``budget`` monomials.
    """
    require_ints((max_degree,), "max_degree must be an integer, got {!r}", max_degree)
    require_ints((budget,), "budget must be an integer, got {!r}", budget)
    if max_degree < 1:
        raise InputError("max_degree must be at least 1")
    if budget < 0:
        raise InputError("budget must be at least 0")
    total = _oracle_size(ideal, max_degree)
    if total > budget:
        raise BudgetError(f"oracle would scan {total} monomials, budget is {budget}")
    basis = [
        Polynomial(dict(zip(monos, vector))).normalize_sign()
        for monos, vectors in _oracle_blocks(ideal, max_degree).values()
        for vector in vectors
    ]
    basis.sort(key=lambda p: (p.degree(), str(p)))
    return basis


def _oracle_blocks(ideal: RegularIdeal, max_degree: int) -> _Blocks:
    """``_oracle_system`` solved: for each weight code whose kernel is not
    zero, the kept monomials in the library's monomial order (fewest
    distinct variables first, then by the tuples) and the kernel's integer
    vectors over them, from ``linalg._kernel``.  A forced column is a pivot
    column of the full system's reduced echelon form, so each free column
    gets the same vector and scaling as from the full system in that order."""
    variables = ideal.free_roots()
    blocks: _Blocks = {}
    for weight, (kept, rows) in _oracle_system(ideal, max_degree, _generator_moves(ideal)).items():
        monos = {c: _monomial([variables[k] for k in combo]) for c, combo in kept.items()}
        order = sorted(kept, key=lambda c: (len(monos[c]), monos[c]))
        vectors = linalg._kernel([[row.get(c, 0) for c in order] for row in rows], len(order))
        if vectors:
            blocks[weight] = ([monos[c] for c in order], vectors)
    return blocks


def _oracle_sizes(system: _System) -> dict[int, int]:
    """The kernel dimension of each weight of ``system``: its kept columns
    less the rank of its rows (``linalg._rank``, the forward pass alone)."""
    sizes = {}
    for weight, (kept, rows) in system.items():
        dense = [[row.get(c, 0) for c in kept] for row in rows]
        sizes[weight] = len(kept) - linalg._rank(dense, len(kept))
    return sizes


def _oracle_contains(system: _System, compiled: list[list[tuple[int, tuple]]]) -> list[bool]:
    """Whether each compiled polynomial, of degree at most the system's,
    lies in the oracle's kernel: exactly when each of its terms is a kept
    column and every remaining row of each weight it holds vanishes on its
    coefficients."""
    column = {combo: (weight, c) for weight, (kept, _) in system.items()
              for c, combo in kept.items()}
    answers = []
    for terms in compiled:
        parts: dict[int, dict[int, int]] = {}
        for coef, spots in terms:
            at = column.get(spots)
            if at is None:
                answers.append(False)
                break
            parts.setdefault(at[0], {})[at[1]] = coef
        else:
            answers.append(not any(sum(v * part.get(c, 0) for c, v in row.items())
                                   for weight, part in parts.items()
                                   for row in system[weight][1]))
    return answers


def _oracle_system(ideal: RegularIdeal, max_degree: int, generators: _Moves) -> _System:
    """The oracle's equations less every coefficient they force to zero: for
    each weight code that keeps a column, the kept columns and the rows left
    on them, whose kernel is the generator brackets' kernel in that weight.
    ``generators`` is the ideal's ``_generator_moves``.

    Brackets shift a monomial's torus weight, so the kernel splits across
    weights.  A one-term equation forces its monomial's coefficient to zero.
    ``_oracle_columns`` settles the first round of these on supports, so
    only the monomials it keeps build equations (388 of the 5984 on the n=7
    reference at degree 4).  A worklist settles the later rounds, reaching
    the same forced set as the full system.
    """
    n = ideal.n
    moves, power, groups = _oracle_columns(ideal, max_degree, generators)
    system: _System = {}
    for weight, members in groups.items():
        if len(members) == 1:
            # Any move of a lone member is alone in its equation and forces
            # it; with no move it is kept, with no equations.
            (support, (slots, _)), = members
            for k in support:
                if moves[k]:
                    break
            else:
                system[weight] = ({0: tuple([support[s] for s in slots])}, [])
            continue
        # One sparse row (column -> coefficient) per generator i and image
        # code; the bracket with b^e is s*e*(mono/b)*r.  Distinct variables
        # a != b move to distinct images (r and a differ in weight), so each
        # sets its own entry and no entry cancels.
        equations: dict[int, dict[int, int]] = {}
        for col, (support, (slots, exps)) in enumerate(members):
            start = 0
            for s in slots:
                start += power[support[s]]
            start *= n
            for k, e in zip(support, exps):
                for sign, move, _, _ in moves[k]:
                    row = equations.get(start + move)
                    if row is None:
                        equations[start + move] = {col: sign * e}
                    else:
                        row[col] = sign * e
        # A row with one entry here lost its others to the first round and
        # forces its column; a forced column leaves the (indexed) rows of two
        # or more entries it is in, and one left with one entry forces on.
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
        if len(forced) < len(members):
            kept = {c: tuple([support[s] for s in slots])
                    for c, (support, (slots, _)) in enumerate(members) if c not in forced}
            system[weight] = (kept, [row for row in rows if row])
    return system


def _oracle_columns(
    ideal: RegularIdeal, max_degree: int, generators: _Moves
) -> tuple[list[list[tuple[int, int, int, int]]], list[int], dict[int, list]]:
    """The oracle's bracket moves per variable, each variable's position
    code, and its monomials of degree 1..``max_degree`` by weight code, less
    the first round of forced monomials; ``generators`` is the ideal's
    ``_generator_moves``.

    Generator i moves a variable b onto at most one variable r, and no two
    onto the same r, so the equation of an image m/b*r has one term per
    i-target (a variable some b moves onto under i) it holds.  b is never an
    i-target (those lie in row i+1 or column i, b in row i or column i+1),
    so m is forced when its support misses the guard ``targets[i] & ~bit(r)``
    of one of its moves.  The walk is over ascending supports of at most
    ``max_degree`` variables, depth first, carrying their unmet guards.  A
    branch is cut when an unmet guard has no bit above the last variable;
    in the last slot the variable is a set bit of the unmet guards' AND.
    Each kept support gives one member per exponent vector (every exponent
    at least 1, total at most ``max_degree``), (support, (slots, exponents))
    with the combo of its copies ``support[s]`` for s in slots, in no set
    order within a group.
    """
    n = ideal.n
    variables = ideal.free_roots()
    # A combo is its variables' positions, nondecreasing, one per copy.  Its
    # position code, built only for monomials that write equations, is the
    # sum of power[k] = base**k over it; base exceeds every exponent, so the
    # code is one-to-one, and moving a copy of k to r adds power[r] - power[k].
    # Its weight code sums big**(i-1) - big**(j-1) over the variables (i,j);
    # big = 2 * max_degree + 1 spans a weight coordinate, so codes are weights.
    #
    # moves[k] lists (s, shift * n + i, i, r) for each generator (i+1,i)
    # whose bracket with variable k is s*r, r outside the ideal, so the
    # equation key (code + shift) * n + i is one add.  guards[k] holds, per
    # move, targets[i] & ~bit(r); targets[i] masks every r generator i reaches.
    base = max_degree + 1
    power = [base**k for k in range(len(variables))]
    moves: list[list[tuple[int, int, int, int]]] = [[] for _ in variables]
    targets = [0] * n
    for i, table in generators.items():
        for k, (sign, r) in table.items():
            moves[k].append((sign, (power[r] - power[k]) * n + i, i, r))
            targets[i] |= 1 << r
    guards = [tuple(targets[i] & ~(1 << r) for _, _, i, r in mk) for mk in moves]
    big = 2 * max_degree + 1
    torus = [big ** (i - 1) - big ** (j - 1) for i, j in variables]
    # patterns[s] holds, per exponent vector of a support of s variables,
    # the nondecreasing slots of the monomial's copies and the exponents.
    patterns: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [[((), ())]]
    for s in range(min(max_degree, len(variables))):
        patterns.append([(slots + (s,) * x, exps + (x,)) for slots, exps in patterns[-1]
                         for x in range(1, max_degree - len(slots) + 1)])
    everything = (1 << len(variables)) - 1
    kept: list[tuple[int, ...]] = []
    # A stack entry is a support, its bitmask and its unmet guards.
    stack: list[tuple[tuple[int, ...], int, Sequence[int]]] = [((), 0, ())]
    while stack:
        support, supp, unmet = stack.pop()
        low = support[-1] + 1 if support else 0
        if len(support) + 1 == max_degree:
            candidates = everything >> low << low
            for g in unmet:
                candidates &= g
            while candidates:
                bit = candidates & -candidates
                candidates ^= bit
                now = supp | bit
                v = bit.bit_length() - 1
                for g in guards[v]:
                    if not g & now:
                        break
                else:
                    kept.append(support + (v,))
            continue
        for v in range(low, min(unmet).bit_length() if unmet else len(variables)):
            bit = 1 << v
            now = supp | bit
            left = []
            for g in guards[v]:
                if not g & now:
                    left.append(g)
            for g in unmet:
                if not g & bit:
                    left.append(g)
            if not left:
                kept.append(support + (v,))
            if not left or min(left) >> v + 1:
                stack.append((support + (v,), now, left))
    groups: dict[int, list] = {}
    for support in kept:
        for pattern in patterns[len(support)]:
            weight = 0
            for s in pattern[0]:
                weight += torus[support[s]]
            groups.setdefault(weight, []).append((support, pattern))
    return moves, power, groups


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

    ``oracle_containment`` reads the oracle's equation system by counts
    alone (``_oracle_contains``, ``_oracle_sizes``) and builds no basis.

    Raises InputError, before any check runs, when ``trials``, ``seed``,
    ``max_degree`` or ``oracle_budget`` is not an int (a bool is not one),
    when ``trials`` or ``max_degree`` is below 1, or when ``oracle_budget``
    is below 0.
    """
    _check_trials(trials, seed)
    require_ints((max_degree,), "max_degree must be an integer, got {!r}", max_degree)
    require_ints((oracle_budget,), "oracle_budget must be an integer, got {!r}", oracle_budget)
    if max_degree < 1:
        raise InputError("max_degree must be at least 1")
    if oracle_budget < 0:
        raise InputError("budget must be at least 0")
    report = VerificationReport()
    diagram = build_diagram(ideal)
    counts = diagram.counts()
    n = ideal.n

    def run(name: str, fn) -> None:
        try:
            report.checks.append(CheckResult(name=name, status="pass", detail=fn()))
        except (ConstructionError, InputError) as exc:
            report.checks.append(CheckResult(name=name, status="fail", detail=str(exc)))

    def skip(name: str, detail: str = "no records") -> None:
        report.checks.append(CheckResult(name, "skipped", detail=detail))

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

    # Compiled once: Poisson annihilation, the trials and the Jacobian rows
    # all read these terms; the brackets and the oracle share the moves.
    compiled = _compile_records(records, ideal) if records_ok else []
    moves = _generator_moves(ideal)
    if records_ok:
        report.extend(_check_compiled(records, compiled, ideal, moves, trials, seed))
    else:
        skip("poisson_annihilation")
        skip("coadjoint_trials")

    def check_skew():
        stats = skew_rank_stats(ideal)
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

    run("skew_rank", check_skew)

    def check_jacobian():
        # The gradients at the distinct-prime point, one column per free
        # root; a column of a variable no record uses is zero.
        x = _primes(len(ideal.free_roots()))
        found = linalg.rank([_gradient(terms, x) for terms in compiled])
        if found != len(records):
            raise ConstructionError(
                f"Jacobian rank {found} differs from the cross count {len(records)}"
            )
        return f"rank={found}"

    if records_ok:
        run("jacobian_rank", check_jacobian)
    else:
        skip("jacobian_rank")

    oracle_size = _oracle_size(ideal, max_degree)
    if not records_ok:
        skip("oracle_containment")
    elif oracle_size > oracle_budget:
        skip("oracle_containment", f"{oracle_size} monomials exceed budget {oracle_budget}")
    else:
        def check_oracle():
            low = [k for k, r in enumerate(records) if r.invariant.degree() <= max_degree]
            if not low:
                return "no low-degree invariants"
            system = _oracle_system(ideal, max_degree, moves)
            for k, ok in zip(low, _oracle_contains(system, [compiled[k] for k in low])):
                if not ok:
                    raise ConstructionError(
                        f"invariant of {records[k].xi} is outside the oracle kernel"
                    )
            size = sum(_oracle_sizes(system).values())
            return f"{len(low)} invariants inside a basis of {size}"

        run("oracle_containment", check_oracle)

    return report
