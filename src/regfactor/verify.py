"""Exact verification harness.

Coadjoint action through matrix conjugation plus projection, generator
brackets, randomized invariance trials and Jacobian ranks on compiled
record terms, the skew-form rank at the distinct-prime point, and an
aggregate report over every checkable identity, the oracle's containment
of the records among them.  All trials use seeded generators with small
integer entries, so a passing seed passes forever; every number taken or
given is a plain ``int``.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from math import prod
from operator import add, mul, ne
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .diagram import build_diagram, crosscheck_symbols
from .errors import DEFAULT_BUDGET, ConstructionError, InputError, _monomial_scan
from .errors import require_count, require_ints
from .invariants import InvariantRecord, all_invariants, triangular_decomposition
from .oracle import _containment
from .poly import Polynomial, _bracket_table, _generator_moves, _monomial, _Moves
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
    """A lower unitriangular matrix with int entries, kept as a tuple of
    tuples whatever sequences it is given."""

    rows: tuple[tuple, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        n = len(self.rows)
        if n < 1:
            raise InputError("n must be at least 1")
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
        require_count(n, "n", 1)
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
    _move_columns([[[v] for v in row[:i]] for i, row in enumerate(g.rows)], full, range(1, n + 1))
    _, root = _first_leak(full, point.ideal.roots, 1)
    if root is not None:
        raise _leak_error(root)
    return DualPoint(point.ideal, {(k, t): full[t - 1][k - 1][0]
                                   for (k, t) in point.ideal.free_roots()})


def _move_columns(g: Sequence[Sequence[Sequence]], full: list[list], start: Sequence[int]) -> None:
    """The coadjoint move of a block of trials, held as columns, in place,
    on the cells of each row i from column ``start[i]`` (> i) on; a row
    with start n is skipped, and ``range(1, n + 1)`` asks for every cell
    the projection reads.

    ``full`` is the matrix view B with one column per cell, a list of that
    cell's values across the trials, or None on a cell that is zero in every
    trial by structure: one outside B's free cells that nothing has reached
    yet.  ``g[i][m]``, for m < i, is the column of g's entry at row i,
    column m.  Each update is one comprehension over the block, and a None
    cell is skipped, so B's sparsity is read once per block.

    Row i of L = g·B is the sum of g[i][m]·B[m] over m <= i, and F = L·g⁻¹
    solves F·g = L by back-substitution from the last column: F[i][j] =
    L[i][j] - sum over k > j of F[i][k]·g[k][j] reads only cells right of
    j, so no cell left of the start is needed, and no inverse of g is
    formed.  Row i starts from B[i], since g[i][i] = 1.  Rows are replaced
    from the last one up: row i reads B[m] only for m < i, still untouched.
    Every update builds a new list, so the columns passed in never change.
    """
    n = len(full)
    for i in range(n - 1, -1, -1):
        low = start[i]
        if low >= n:
            continue
        f, gi = full[i], g[i]
        for m in range(i):
            c, bm = gi[m], full[m]
            for j in range(low, n):
                b = bm[j]
                if b is not None:
                    a = f[j]
                    f[j] = ([u * v for u, v in zip(c, b)] if a is None
                            else [s + u * v for s, u, v in zip(a, c, b)])
        for j in range(n - 1, low, -1):
            c = f[j]
            if c is not None:
                gj = g[j]
                for m in range(low, j):
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
    require_count(trials, "trials", 1)
    require_ints((seed,), "seed must be an integer, got {!r}", seed)


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
    ``_move_columns``, the kernel of ``coadjoint_act``, moves each block,
    each row only from its leftmost cell that is read: an ideal cell (the
    leak check) or a record's variable.  Each block makes one ``_draws``
    call on the one ``random.Random(seed)``: the values and final state of
    the ``randint(-9, 9)`` calls that ``GroupElement.random`` then
    ``DualPoint.random`` make per trial (g below the diagonal row by row,
    then the point down the free roots).  Each entry of g and each
    coordinate of the point is one stride slice of them.

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
    # Per row, the leftmost cell that is read: an ideal cell or a variable.
    read = set(ideal.roots).union(
        free[p] for terms in compiled for _, spots in terms for p in spots)
    start = [min([k - 1 for k, t in read if t == i + 1], default=n) for i in range(n)]
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
        _move_columns(g, full, start)
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
    return _skew_stats(_bracket_table(ideal), _primes(len(ideal.free_roots())))


def _skew_stats(table: list[tuple[int, int, int, int]], x: Sequence[int]) -> SkewStats:
    """``skew_rank_stats`` from the factor's ``_bracket_table`` and the
    distinct-prime point ``x``, one value per free root: the rank of the
    matrix of B_x."""
    rows: list[list[int]] = [[0] * len(x) for _ in x]
    for a, b, sign, c in table:
        value = sign * x[c]
        rows[a][b] = value
        rows[b][a] = -value
    rank = linalg._rank(rows, len(x))
    return SkewStats(rank, len(x) - rank)


def full_report(
    ideal: RegularIdeal,
    trials: int = 100,
    seed: int = 0,
    max_degree: int = 4,
) -> VerificationReport:
    """Run every checkable identity for one regular factor.

    Raises InputError, before any check runs, when ``trials``, ``seed`` or
    ``max_degree`` is not an int (a bool is not one), or when ``trials`` or
    ``max_degree`` is below 1.  The oracle line is skipped when it would
    scan more than ``DEFAULT_BUDGET`` monomials.
    """
    _check_trials(trials, seed)
    oracle_size = _monomial_scan(len(ideal.free_roots()), max_degree, DEFAULT_BUDGET)
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

    # Built once: the compiled terms, for the brackets, trials and Jacobian
    # rows; the bracket table, for the moves (brackets and oracle) and the
    # skew form; the distinct-prime point, for the skew and Jacobian ranks.
    compiled = _compile_records(records, ideal) if records_ok else []
    table = _bracket_table(ideal)
    moves = _generator_moves(ideal, table)
    x = _primes(len(ideal.free_roots()))
    if records_ok:
        report.extend(_check_compiled(records, compiled, ideal, moves, trials, seed))
    else:
        skip("poisson_annihilation")
        skip("coadjoint_trials")

    def check_skew():
        rank, corank = _skew_stats(table, x)
        if rank != counts.plus_minus:
            raise ConstructionError(f"max skew rank {rank} differs from the "
                                    f"plus/minus count {counts.plus_minus}")
        if corank != counts.crosses:
            raise ConstructionError(f"skew corank {corank} differs from the "
                                    f"cross count {counts.crosses}")
        return f"max_rank={rank} corank={corank}"

    run("skew_rank", check_skew)

    def check_jacobian():
        # The gradients at the distinct-prime point, one column per free
        # root; a column of a variable no record uses is zero.
        found = linalg._rank([_gradient(terms, x) for terms in compiled], len(x))
        if found != len(records):
            raise ConstructionError(f"Jacobian rank {found} differs from the cross count "
                                    f"{len(records)}")
        return f"rank={found}"

    if records_ok:
        run("jacobian_rank", check_jacobian)
    else:
        skip("jacobian_rank")

    if not records_ok:
        skip("oracle_containment")
    elif oracle_size > DEFAULT_BUDGET:
        skip("oracle_containment", f"{oracle_size} monomials exceed budget {DEFAULT_BUDGET}")
    else:
        def check_oracle():
            low = [k for k, r in enumerate(records) if r.invariant.degree() <= max_degree]
            if not low:
                return "no low-degree invariants"
            answers, size = _containment(ideal, max_degree, moves, [compiled[k] for k in low])
            for k, ok in zip(low, answers):
                if not ok:
                    raise ConstructionError(
                        f"invariant of {records[k].xi} is outside the oracle kernel"
                    )
            return f"{len(low)} invariants inside a basis of {size}"

        run("oracle_containment", check_oracle)

    return report
