"""Permutations attached to a regular factor: reflection products, chains,
and the segment data that predicts characteristic-minor degrees.

Products of transpositions written left to right in decreasing root order
are applied rightmost first, so ``reflection_product([r1, r2])`` sends ``x``
to ``r1(r2(x))``.  One swap loop, ``_column_prefixes``, builds every such
product: the products over the columns up to t, for each t, from which
``reflection_product``, the symbol cross-check and the chains read.
``cross_data`` keeps its own running swap, since it checks each cross as
it goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConstructionError, InputError, require_ints
from .roots import RegularIdeal, Root, check_root, prec_key


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n} stored in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        require_ints(self.images, "permutation entries must be integers: {!r}", self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise InputError(f"not a permutation of 1..{n}: {self.images}")

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def to_json(self) -> list[int]:
        return list(self.images)


def inversions(perm: Permutation) -> int:
    """Number of pairs i < j with w(i) > w(j)."""
    imgs = perm.images
    return sum(
        1
        for a in range(len(imgs))
        for b in range(a + 1, len(imgs))
        if imgs[a] > imgs[b]
    )


def _check_decreasing(n: int, roots: Sequence[Root]) -> None:
    require_ints((n,), "matrix size must be an integer, got {!r}", n)
    keys = [prec_key(check_root(n, r)) for r in roots]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise InputError("reflection list must be strictly decreasing")


def reflection_product(n: int, roots: Sequence[Root]) -> Permutation:
    """Product of the transpositions of ``roots``, rightmost applied first.

    The list must be strictly decreasing in the column order.
    """
    _check_decreasing(n, roots)
    return Permutation(_column_prefixes(n, roots)[-1])


def _column_prefixes(n: int, roots: Sequence[Root]) -> list[tuple[int, ...]]:
    """One-line images of the products over the roots in columns up to t,
    for t = 0..n; entry 0 is the identity.

    No checks: the roots must already be in decreasing order, so that their
    columns never fall.
    """
    images = list(range(1, n + 1))
    prefixes = [tuple(images)]
    for i, j in roots:
        while len(prefixes) < j:
            prefixes.append(tuple(images))
        # Composing with a transposition on the right swaps two one-line entries.
        images[i - 1], images[j - 1] = images[j - 1], images[i - 1]
    while len(prefixes) <= n:
        prefixes.append(tuple(images))
    return prefixes


def column_max_permutation(ideal: RegularIdeal) -> Permutation:
    """Greedy permutation: w(t) is the largest unused row i with (i,t) free.

    Pairs (i,t) with i <= t never lie in the ideal, so a choice always
    exists.
    """
    n = ideal.n
    used: set[int] = set()
    images = []
    for t in range(1, n + 1):
        i = max(
            i
            for i in range(1, n + 1)
            if i not in used and (i, t) not in ideal
        )
        used.add(i)
        images.append(i)
    return Permutation(tuple(images))


@dataclass(frozen=True)
class CrossData:
    """What one cross xi = (k,t) determines: the reflection product ``w``
    through xi, h = w(t), the case, and the columns and rows of the
    characteristic minor.

    Case 1 means h > t (no cross left of xi in its row, and then h = k);
    case 2 means h < t.  The columns are the j <= t with w(j) >= h, a
    segment ending at t.  The rows are the images of the columns in case 1,
    and in case 2 the segment [h,t] followed by the rows above t whose
    image falls below h.
    """

    xi: Root
    w: Permutation
    h: int
    case: int
    cols: tuple[int, ...]
    rows: tuple[int, ...]


def cross_data(n: int, crosses: Sequence[Root]) -> tuple[CrossData, ...]:
    """The data of every cross in one pass: each product through a cross is
    the previous one with one more transposition on the right.

    Raises InputError when the crosses are not strictly decreasing, and
    ConstructionError when a cross breaks the case split or gives a
    malformed minor.
    """
    _check_decreasing(n, crosses)
    images = list(range(1, n + 1))
    result = []
    for k, t in crosses:
        xi = (k, t)
        images[k - 1], images[t - 1] = images[t - 1], images[k - 1]
        h = images[t - 1]
        case = 1 if h > t else 2
        if h == t:
            raise ConstructionError(f"cross {xi} fixes its own column index")
        if case == 1 and h != k:
            raise ConstructionError(f"case-1 cross {xi} maps its column to {h} != {k}")
        cols = tuple(j for j in range(1, t + 1) if images[j - 1] >= h)
        if cols != tuple(range(cols[0], t + 1)):
            raise ConstructionError(f"columns of {xi} are not a segment ending at {t}: {cols}")
        if case == 1:
            rows = tuple(sorted(images[j - 1] for j in cols))
        else:
            rows = tuple(range(h, t + 1)) + tuple(
                i for i in range(t + 1, n + 1) if images[i - 1] < h
            )
        if len(rows) != len(cols):
            raise ConstructionError(f"row and column counts differ for {xi}: {rows} vs {cols}")
        result.append(CrossData(xi, Permutation(tuple(images)), h, case, cols, rows))
    return tuple(result)


def _descend_once(t: int, v: int, prefixes: Sequence[tuple[int, ...]]):
    """One chain step from v for a cross in column t: run the reflection
    sequence down the columns and return the first value below v, or None
    when nothing descends.

    With P_c the product over the columns up to c (``prefixes[c]``, taken
    over the crosses up to the cross, so that ``prefixes[t]`` is the
    product W through it), the value after column c is P_(c-1)^-1(W(v))
    for c = t, ..., 1 when v > t, and P_(c-1)^-1(P_(v-1)(v)) for
    c = v-1, ..., 1 when v <= t.  The running value only rises while it
    stays at or above v (it jumps up through crosses in its row); the
    first drop lands on the index of the column that produced it, and
    later values are irrelevant.
    """
    if v > t:
        x, top = prefixes[t][v - 1], t
    else:
        x, top = prefixes[v - 1][v - 1], v - 1
    for c in range(top, 0, -1):
        # P^-1(x) is the position of x in P's one-line images.
        u = prefixes[c - 1].index(x) + 1
        if u < v:
            return u
    return None


def _chain(data: CrossData, i: int, prefixes: Sequence[tuple[int, ...]]) -> list[int]:
    c, h = data.cols[0], data.h
    chain = [i]
    v = i
    while not (c <= v < h):
        nxt = _descend_once(data.xi[1], v, prefixes)
        if nxt is None:
            raise InputError(f"row {v} admits no descent for cross {data.xi}")
        chain.append(nxt)
        v = nxt
    return chain


@dataclass(frozen=True)
class SegmentData:
    """Chain bookkeeping for a case-2 cross.

    The window [h, col_end] splits into the rows covered by some chain
    (``chained``) and the rest (``unchained``); both decompose into maximal
    runs that strictly alternate, starting with an unchained run at h and
    ending with a chained run at col_end.  ``d_star`` is the total size of
    the leading unchained runs contained in the minor's column set; it
    predicts the degree of the characteristic minor.
    """

    xi: Root
    h: int
    c: int
    col_end: int
    i_star: tuple[int, ...]
    chains: tuple[tuple[int, ...], ...]
    chained: tuple[int, ...]
    unchained: tuple[int, ...]
    chained_segments: tuple[tuple[int, ...], ...]
    unchained_segments: tuple[tuple[int, ...], ...]
    nu: int
    d_star: int


def _runs(values: list[int]) -> list[tuple[int, ...]]:
    """Maximal runs of consecutive integers in an ascending list."""
    runs: list[list[int]] = []
    for v in values:
        if runs and v == runs[-1][-1] + 1:
            runs[-1].append(v)
        else:
            runs.append([v])
    return [tuple(r) for r in runs]


def segment_data(
    ideal: RegularIdeal, crosses: Sequence[Root], data: CrossData
) -> SegmentData:
    """Chains, chained/unchained split, and the degree prediction d_star for
    the case-2 cross ``data`` describes.  The crosses up to ``data.xi``
    must be strictly decreasing."""
    n = ideal.n
    xi = data.xi
    k, t = xi
    h, cols = data.h, data.cols
    if data.case != 2:
        raise InputError(f"segment data is defined only for case-2 crosses, {xi} is case 1")
    c = cols[0]
    col_end = max(i for i in range(1, n + 1) if (i, t) not in ideal)
    # The case-2 rows are [h,t] followed by the rows above t whose image
    # falls below h.
    i_star = data.rows[t - h + 1:]

    if k not in i_star:
        raise ConstructionError(f"cross row {k} missing from the extra rows of {xi}")
    if any(i > col_end for i in i_star):
        raise ConstructionError(f"extra rows of {xi} leave the column window")

    upto = [r for r in crosses if prec_key(r) <= prec_key(xi)]
    _check_decreasing(n, upto)
    prefixes = _column_prefixes(n, upto)
    chains = tuple(tuple(_chain(data, i, prefixes)) for i in i_star)
    covered: set[int] = set()
    for chain in chains:
        if covered & set(chain):
            raise ConstructionError(f"chains of {xi} intersect")
        covered |= set(chain)
    endpoints = {chain[-1] for chain in chains}
    if endpoints != set(range(c, h)):
        raise ConstructionError(f"chain endpoints of {xi} do not fill [{c},{h})")

    window = list(range(h, col_end + 1))
    chained = tuple(v for v in window if v in covered)
    unchained = tuple(v for v in window if v not in covered)
    if h in chained:
        raise ConstructionError(f"window start {h} lies on a chain for {xi}")
    if t not in chained:
        raise ConstructionError(f"column index {t} lies on no chain for {xi}")
    if not set(i_star) <= set(chained):
        raise ConstructionError(f"extra rows of {xi} are not all chained")

    chained_segments = _runs(list(chained))
    unchained_segments = _runs(list(unchained))
    if len(chained_segments) != len(unchained_segments) or col_end not in chained:
        raise ConstructionError(f"runs of {xi} do not alternate as expected")

    col_set = set(cols)
    nu = 0
    for run in unchained_segments:
        if set(run) <= col_set:
            nu += 1
        else:
            break
    d_star = sum(len(run) for run in unchained_segments[:nu])
    return SegmentData(
        xi=xi,
        h=h,
        c=c,
        col_end=col_end,
        i_star=i_star,
        chains=chains,
        chained=chained,
        unchained=unchained,
        chained_segments=tuple(chained_segments),
        unchained_segments=tuple(unchained_segments),
        nu=nu,
        d_star=d_star,
    )
