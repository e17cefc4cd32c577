"""Exact checks of regfactor's JSON documents, computed apart from regfactor.

Nothing here imports the program.  Minors are evaluated as integer
determinants at seeded integer points, polynomials are read by a small
parser of their printed form, and the coadjoint move is a matrix
conjugation written out here.  Each check returns a list of error strings;
an empty list means the document passed.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

# Points are drawn from a wide range so that a nonzero polynomial of the
# degrees met here (at most n) vanishes at one with negligible probability.
POINT_RANGE = 2**40
MOVE_RANGE = 50
MOVES = 2

VERIFY_CHECKS = (
    "diagram_symbol_rule",
    "diagram_counts",
    "permutation_reflection_product",
    "permutation_length",
    "invariant_records",
    "poisson_annihilation",
    "coadjoint_trials",
    "skew_rank",
    "jacobian_rank",
    "oracle_containment",
)


def free_roots(n: int, ideal) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j + 1, n + 1) if (i, j) not in ideal]


def random_point(n: int, ideal, rng: random.Random, bound: int = POINT_RANGE) -> dict:
    return {r: rng.randint(-bound, bound) for r in free_roots(n, ideal)}


_VAR = re.compile(r"y\[(\d+),(\d+)\](?:\^(\d+))?")
_COEF = re.compile(r"\d+(?:/\d+)?")


def parse_poly(text: str) -> list[tuple[Fraction, tuple]]:
    """Read the printed form ``c*y[i,j]^e*y[k,l] + ... - ...`` into a list
    of (coefficient, ((i, j, e), ...)) terms."""
    src = text.strip()
    first = 1
    if src.startswith("-"):
        first, src = -1, src[1:]
    pieces = re.split(r" ([+-]) ", src)
    signs = [first] + [1 if op == "+" else -1 for op in pieces[1::2]]
    terms = []
    for sign, body in zip(signs, pieces[0::2]):
        factors = body.split("*")
        coef = Fraction(sign)
        if _COEF.fullmatch(factors[0]):
            coef *= Fraction(factors.pop(0))
        vars_ = []
        for factor in factors:
            match = _VAR.fullmatch(factor)
            if not match:
                raise ValueError(f"cannot read factor {factor!r} of {text!r}")
            vars_.append((int(match[1]), int(match[2]), int(match[3] or 1)))
        terms.append((coef, tuple(vars_)))
    return terms


def evaluate(terms, point: dict) -> Fraction:
    """Value at a point; raises KeyError for a variable the point lacks."""
    total = Fraction(0)
    for coef, vars_ in terms:
        value = coef
        for i, j, e in vars_:
            value *= point[(i, j)] ** e
        total += value
    return total


def determinant(matrix: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    m = [row[:] for row in matrix]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        pivot = next((r for r in range(k, size) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


def minor_in_lambda(ideal, point: dict, rows, cols) -> list[int]:
    """Coefficients, from degree 0 up, of det(X - lambda*I) restricted to
    ``rows`` x ``cols``, where X carries the point's value on every free
    strictly lower cell.  The degree is at most the number d of diagonal
    cells in the minor, so it is interpolated from d+1 integer values of
    lambda."""
    def entry(r, c, lam):
        if r == c:
            return -lam
        return point[(r, c)] if r > c and (r, c) not in ideal else 0

    d = len(set(rows) & set(cols))
    xs = list(range(d + 1))
    ys = [Fraction(determinant([[entry(r, c, lam) for c in cols] for r in rows])) for lam in xs]
    # Newton divided differences, then expansion into monomial coefficients.
    for level in range(1, len(xs)):
        for k in range(len(xs) - 1, level - 1, -1):
            ys[k] = (ys[k] - ys[k - 1]) / (xs[k] - xs[k - level])
    coeffs = [Fraction(0)] * len(xs)
    for k in range(len(xs) - 1, -1, -1):
        # coeffs <- coeffs * (lambda - x_k) + ys[k]
        coeffs = [(coeffs[t - 1] if t else 0) - xs[k] * coeffs[t] for t in range(len(xs))]
        coeffs[0] += ys[k]
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("interpolated minor has a non-integer coefficient")
    return [int(c) for c in coeffs]


def degree_of(coeffs: list[int]) -> int:
    """Degree in lambda; -1 for the zero minor."""
    return max((k for k, c in enumerate(coeffs) if c), default=-1)


def coadjoint_move(n: int, point: dict, rng: random.Random) -> dict:
    """Move a point of the factor's dual by a random lower unitriangular g.

    The point is the strictly upper matrix F with F[t][k] = y[k,t]; the
    moved point reads the same cells of g F g^-1.
    """
    g = [[1 if i == j else (rng.randint(-MOVE_RANGE, MOVE_RANGE) if j < i else 0)
          for j in range(n)] for i in range(n)]
    ginv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for k in range(i):
            for j in range(k + 1):
                ginv[i][j] -= g[i][k] * ginv[k][j]
    f = [[0] * n for _ in range(n)]
    for (k, t), value in point.items():
        f[t - 1][k - 1] = value
    gf = [[sum(g[i][m] * f[m][j] for m in range(n)) for j in range(n)] for i in range(n)]
    moved = [[sum(gf[i][m] * ginv[m][j] for m in range(n)) for j in range(n)] for i in range(n)]
    return {(k, t): moved[t - 1][k - 1] for (k, t) in point}


def check_coadjoint(n: int, ideal, polys, rng: random.Random) -> list[str]:
    """Each polynomial must take the same value before and after seeded moves."""
    errors = []
    for _ in range(MOVES):
        point = random_point(n, ideal, rng, MOVE_RANGE)
        moved = coadjoint_move(n, point, rng)
        for label, terms in polys:
            if evaluate(terms, point) != evaluate(terms, moved):
                errors.append(f"{label}: value changes under a coadjoint move")
    return errors


def check_invariants(n: int, ideal, doc: dict, rng: random.Random) -> list[str]:
    """Degree and highest coefficient of every record's characteristic minor,
    and coadjoint invariance of every P."""
    if doc.get("n") != n or not isinstance(doc.get("invariants"), list):
        return ["document does not describe this factor"]
    errors = []
    point = random_point(n, ideal, rng)
    polys = []
    free = set(free_roots(n, ideal))
    xis = [tuple(rec["xi"]) for rec in doc["invariants"]]
    if len(set(xis)) != len(xis) or not set(xis) <= free:
        errors.append("crosses repeat or leave the factor")
    for rec in doc["invariants"]:
        label = f"xi={rec['xi']}"
        coeffs = minor_in_lambda(ideal, point, rec["rows"], rec["cols"])
        degree = degree_of(coeffs)
        if degree != rec["degree"]:
            errors.append(f"{label}: minor has degree {degree}, document says {rec['degree']}")
            continue
        try:
            terms = parse_poly(rec["P"])
            value = evaluate(terms, point)
        except ValueError as exc:
            errors.append(f"{label}: {exc}")
            continue
        except KeyError as exc:
            errors.append(f"{label}: P uses y{list(exc.args[0])}, which is not a free root")
            continue
        if value == 0 or abs(coeffs[degree]) != abs(value):
            errors.append(f"{label}: highest coefficient is not +-P at the check point")
        polys.append((label, terms))
    return errors + check_coadjoint(n, ideal, polys, rng)


def extremal_minors(n: int, ideal, point: dict) -> dict:
    """The benchmark's own scan: every minor that is nonzero, has degree
    below its size (so a non-constant highest coefficient), and whose
    degree strictly drops under every one-step row-down and column-left
    shift.  Returns {(rows, cols): degree}."""
    degrees: dict = {}

    def degree(rows, cols):
        key = (rows, cols)
        if key not in degrees:
            degrees[key] = degree_of(minor_in_lambda(ideal, point, rows, cols))
        return degrees[key]

    def shifts(rows, cols):
        for i in range(1, n):
            if i in rows and i + 1 not in rows:
                yield tuple(sorted(set(rows) - {i} | {i + 1})), cols
            if i + 1 in cols and i not in cols:
                yield rows, tuple(sorted(set(cols) - {i + 1} | {i}))

    found = {}
    for size in range(1, n + 1):
        for rows in itertools.combinations(range(1, n + 1), size):
            for cols in itertools.combinations(range(1, n + 1), size):
                d = degree(rows, cols)
                if d < 0 or d == size:
                    continue
                if all(degree(r, c) < d for r, c in shifts(rows, cols)):
                    found[(rows, cols)] = d
    return found


def check_scan(n: int, ideal, doc: dict, rng: random.Random) -> list[str]:
    """The listed specs must be exactly the benchmark's own extremal minors,
    each once, with the right degree."""
    if doc.get("n") != n or not isinstance(doc.get("extremal_minors"), list):
        return ["document does not describe this factor"]
    expected = extremal_minors(n, ideal, random_point(n, ideal, rng))
    listed = {}
    errors = []
    for entry in doc["extremal_minors"]:
        key = (tuple(entry["rows"]), tuple(entry["cols"]))
        if key in listed:
            errors.append(f"spec {key} is listed twice")
        listed[key] = entry["degree"]
        if entry.get("extremal") is not True:
            errors.append(f"spec {key} is not marked extremal")
    for key in sorted(set(expected) - set(listed)):
        errors.append(f"extremal spec {key} is missing")
    for key in sorted(set(listed) - set(expected)):
        errors.append(f"spec {key} is not an extremal minor with a non-constant top coefficient")
    for key in sorted(set(listed) & set(expected)):
        if listed[key] != expected[key]:
            errors.append(f"spec {key} has degree {expected[key]}, document says {listed[key]}")
    return errors


_DETAILS = {
    "diagram_counts": r"crosses=(\d+) plus_minus=(\d+) bullets=(\d+)",
    "permutation_length": r"l\(w\)=(\d+)",
    "invariant_records": r"(\d+) records",
    "skew_rank": r"max_rank=(\d+) corank=(\d+)",
    "jacobian_rank": r"rank=(\d+)",
}


def check_verify(n: int, ideal, doc: dict) -> list[str]:
    """A verify report must pass every check, the oracle one included, and
    its counts must agree with the benchmark's own closure."""
    checks = doc.get("checks")
    if doc.get("passed") is not True or not isinstance(checks, list):
        return ["report does not pass"]
    names = tuple(c.get("name") for c in checks)
    if names != VERIFY_CHECKS:
        return [f"report lists checks {names}"]
    errors = [f"{c['name']} is {c['status']}" for c in checks if c.get("status") != "pass"]
    found = {}
    for c in checks:
        if c["name"] in _DETAILS:
            match = re.fullmatch(_DETAILS[c["name"]], c.get("detail", ""))
            if not match:
                return errors + [f"{c['name']} detail {c.get('detail')!r} is unreadable"]
            found[c["name"]] = [int(x) for x in match.groups()]
    crosses, plus_minus, bullets = found["diagram_counts"]
    (length,) = found["permutation_length"]
    (records,) = found["invariant_records"]
    _, corank = found["skew_rank"]
    (jacobian,) = found["jacobian_rank"]
    dim = n * (n - 1) // 2 - len(ideal)
    if bullets != len(ideal):
        errors.append(f"bullets={bullets} but the ideal has {len(ideal)} roots")
    if not crosses + plus_minus == length == dim:
        errors.append(f"crosses+plus_minus={crosses + plus_minus}, l(w)={length}, dim={dim} differ")
    if not corank == crosses == jacobian == records:
        errors.append(f"corank={corank}, crosses={crosses}, Jacobian rank={jacobian}, records={records} differ")
    return errors


def check(op, doc: dict, rng: random.Random) -> list[str]:
    """Dispatch on the operation's subcommand."""
    if op.command == "invariants":
        return check_invariants(op.n, op.ideal, doc, rng)
    if op.command == "extremal-scan":
        return check_scan(op.n, op.ideal, doc, rng)
    if op.command == "verify":
        return check_verify(op.n, op.ideal, doc)
    raise ValueError(f"no check for {op.command}")
