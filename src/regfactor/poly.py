"""Exact sparse polynomials in root variables.

Coefficients and point values are ``int``; any other number type raises
InputError.
A monomial is a tuple of (root, exponent) pairs with the roots in
decreasing column order.  Polynomials print and iterate in a canonical
order: higher total degree first, ties broken lexicographically on the
expanded variable sequence.

The module also carries the structure constants of the algebra: the
bracket of two basis vectors, and the factor's bracket tables built from
them in one scan.
"""

from __future__ import annotations

from itertools import groupby
from numbers import Number
from typing import Mapping, Optional, Sequence

from .errors import InputError, require_count, require_ints
from .roots import RegularIdeal, Root, prec_key

Monomial = tuple[tuple[Root, int], ...]
# Per generator i, free position -> (sign, image position): _generator_moves.
_Moves = dict[int, dict[int, tuple[int, int]]]

_ONE: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[Root, int]] = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        ra, ea = a[ia]
        rb, eb = b[ib]
        ka, kb = prec_key(ra), prec_key(rb)
        if ka < kb:
            out.append((ra, ea))
            ia += 1
        elif kb < ka:
            out.append((rb, eb))
            ib += 1
        else:
            out.append((ra, ea + eb))
            ia += 1
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Monomial):
    """Canonical order key: graded, then lex on the expanded variable list."""
    expanded = tuple(prec_key(r) for r, e in m for _ in range(e))
    return (-len(expanded), expanded)


def _mono_str(m: Monomial) -> str:
    parts = []
    for (i, j), e in m:
        var = f"y[{i},{j}]"
        parts.append(var if e == 1 else f"{var}^{e}")
    return "*".join(parts)


class Polynomial:
    """Immutable sparse polynomial with int coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, int]] = None):
        terms = terms or {}
        require_ints(terms.values(), "polynomial coefficients must be integers")
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        return cls({_ONE: value})

    @classmethod
    def variable(cls, root: Root) -> "Polynomial":
        return cls({((tuple(root), 1),): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(_mono_degree(m) for m in self.terms)

    def variables(self) -> set[Root]:
        return {r for m in self.terms for r, _ in m}

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0]))

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise InputError("the zero polynomial has no leading monomial")
        return min(self.terms, key=_mono_key)

    def normalize_sign(self) -> "Polynomial":
        """Flip the sign if needed so the first canonical monomial has a
        positive coefficient."""
        if not self.terms:
            return self
        if self.terms[self.leading_monomial()] < 0:
            return -self
        return self

    @staticmethod
    def _coerce(other) -> Optional["Polynomial"]:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, Number):
            return Polynomial.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            out[mono] = out.get(mono, 0) + coef
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = _mono_mul(ma, mb)
                out[mono] = out.get(mono, 0) + ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        require_count(exponent, "exponent", 0)
        result = Polynomial.constant(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if type(other) is int:
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # A constant equals its int, so it hashes as that int.
        if not self.terms.keys() - {_ONE}:
            return hash(self.terms.get(_ONE, 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for idx, (mono, coef) in enumerate(self.sorted_terms()):
            mag = abs(coef)
            body = _mono_str(mono)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if idx == 0:
                chunks.append(text if coef > 0 else f"-{text}")
            else:
                chunks.append(f"+ {text}" if coef > 0 else f"- {text}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Polynomial({self})"

    def evaluate(self, point: Mapping[Root, int]) -> int:
        """Exact value at a point giving every variable an int."""
        require_ints(map(point.get, self.variables()), "{} needs an int for every variable", self)
        total = 0
        for mono, coef in self.terms.items():
            value = coef
            for r, e in mono:
                value = value * point[r] ** e
            total += value
        return total


def bracket_single(a: Root, b: Root) -> Optional[tuple[int, Root]]:
    """Structure constants on basis vectors: the bracket of the matrix
    units at roots a=(i,j), b=(k,l) is +1 times the unit at (i,l) when
    j = k, -1 times the unit at (k,j) when l = i, and zero otherwise."""
    i, j = a
    k, l = b
    if j == k:
        return (1, (i, l))
    if l == i:
        return (-1, (k, j))
    return None


def _bracket_table(ideal: RegularIdeal) -> list[tuple[int, int, int, int]]:
    """(a, b, sign, c) for each pair a < b of positions in
    ``ideal.free_roots()`` whose bracket is sign times the free root at
    position c; a bracket onto an ideal cell is zero in the factor."""
    basis = ideal.free_roots()
    position = {root: c for c, root in enumerate(basis)}
    table = []
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            hit = bracket_single(basis[a], basis[b])
            if hit is not None and hit[1] in position:
                table.append((a, b, hit[0], position[hit[1]]))
    return table


def _generator_moves(ideal: RegularIdeal, table: Optional[list] = None) -> _Moves:
    """For each generator (i+1,i) outside the ideal, in order of i, the map
    from a free position k to (sign, r) when the generator's bracket with
    the variable at k is sign times the variable at free position r, keys
    ascending.  Read off ``table``, the ideal's ``_bracket_table`` (built
    when not given): an entry (a, b, s, c) with the generator at a moves b
    to (s, c), and with it at b moves a to (-s, c)."""
    generator = {k: j for k, (i, j) in enumerate(ideal.free_roots()) if i == j + 1}
    moves: _Moves = {i: {} for i in sorted(generator.values())}
    for a, b, sign, c in _bracket_table(ideal) if table is None else table:
        if a in generator:
            moves[generator[a]][b] = (sign, c)
        if b in generator:
            moves[generator[b]][a] = (-sign, c)
    return moves


def _monomial(roots: Sequence[Root]) -> Monomial:
    """The monomial of a list of roots already in decreasing order."""
    return tuple((root, len(list(copies))) for root, copies in groupby(roots))
