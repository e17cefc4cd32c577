"""Positive-root combinatorics of the lower unitriangular Lie algebra.

A root is a pair ``(i, j)`` with ``n >= i > j >= 1``; it indexes the matrix
unit with a single 1 in row ``i``, column ``j``.  Basis-spanned ideals are
encoded as root sets closed under the partial addition of roots: whenever a
sum of two positive roots has one summand in the set, the sum lies in the
set as well.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import InputError, require_ints

Root = tuple[int, int]


def check_root(n: int, root) -> Root:
    """Validate a root for matrix size ``n``: a pair of ints (bools and
    other numbers are rejected, not coerced), returned as a tuple."""
    try:
        i, j = root
    except (TypeError, ValueError):
        raise InputError(f"not a root: {root!r}") from None
    require_ints((i, j), "root entries must be integers: {!r}", root)
    if not (1 <= j < i <= n):
        raise InputError(f"invalid root {root!r} for n={n}: need 1 <= col < row <= n")
    return (i, j)


def prec_key(root: Root) -> tuple[int, int]:
    """Sort key: ascending keys list roots in decreasing order.

    The order runs down the first column from the bottom row, then down the
    second column, and so on: (n,1) > (n-1,1) > ... > (2,1) > (n,2) > ...
    """
    i, j = root
    return (j, -i)


def positive_roots(n: int) -> list[Root]:
    """All positive roots for size ``n`` in decreasing order."""
    require_ints((n,), "matrix size must be an integer, got {!r}", n)
    return [(i, j) for j in range(1, n) for i in range(n, j, -1)]


@dataclass(frozen=True)
class RegularIdeal:
    """A closed set of positive roots, spanning an ideal of the algebra.

    Closure: for every (i,j) in the set, all (i,m) with m < j and all (k,j)
    with k > i belong to the set too.
    """

    n: int
    roots: frozenset[Root]

    def __post_init__(self):
        require_ints((self.n,), "matrix size must be an integer, got {!r}", self.n)
        if self.n < 1:
            raise InputError(f"matrix size must be >= 1, got {self.n}")
        for root in self.roots:
            check_root(self.n, root)
        missing = _closure_deficit(self.n, self.roots)
        if missing is not None:
            raise InputError(
                f"root set is not closed: {missing[0]} requires {missing[1]}"
            )

    def __contains__(self, root) -> bool:
        return tuple(root) in self.roots

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self) -> Iterator[Root]:
        return iter(sorted(self.roots, key=prec_key))

    @property
    def dim(self) -> int:
        """Dimension of the factor algebra: number of roots outside the ideal."""
        return self.n * (self.n - 1) // 2 - len(self.roots)

    def free_roots(self) -> tuple[Root, ...]:
        """Positive roots outside the ideal, in decreasing order."""
        return self._free_roots

    @functools.cached_property
    def _free_roots(self) -> tuple[Root, ...]:
        return tuple(r for r in positive_roots(self.n) if r not in self.roots)


def _closure_deficit(n: int, roots) -> Optional[tuple[Root, Root]]:
    """First (member, missing sum) pair violating closure, or None if closed."""
    for (i, j) in roots:
        for m in range(1, j):
            if (i, m) not in roots:
                return ((i, j), (i, m))
        for k in range(i + 1, n + 1):
            if (k, j) not in roots:
                return ((i, j), (k, j))
    return None


def close_ideal(n: int, generators: Iterable, strict: bool = False) -> RegularIdeal:
    """Smallest closed superset of ``generators`` as a RegularIdeal.

    With ``strict=True`` the generators must already be closed; a set that
    the closure would enlarge is rejected instead of completed.
    """
    require_ints((n,), "matrix size must be an integer, got {!r}", n)
    gens = {check_root(n, g) for g in generators}
    closed = set(gens)
    queue = list(gens)
    while queue:
        i, j = queue.pop()
        for m in range(1, j):
            if (i, m) not in closed:
                closed.add((i, m))
                queue.append((i, m))
        for k in range(i + 1, n + 1):
            if (k, j) not in closed:
                closed.add((k, j))
                queue.append((k, j))
    if strict and closed != gens:
        extra = sorted(closed - gens)[0]
        raise InputError(
            f"generator set is not closed (missing {extra}); "
            "re-run without strict mode to close it automatically"
        )
    return RegularIdeal(n, frozenset(closed))
