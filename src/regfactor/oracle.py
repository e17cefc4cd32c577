"""Brute-force low-degree invariant oracle.

The invariants of degree at most d are the common kernel of the brackets
with the generators (i+1,i) on the nonconstant monomials of degree at
most d.  A bracket shifts a monomial's torus weight, so the kernel splits
into one equation system per weight, written as sparse integer rows
straight from each monomial's bracket with each generator.

An equation with one term forces its monomial's coefficient to zero.
``_columns`` settles most of these on supports alone, before any monomial
is built.  A generator i moves a variable b onto at most one variable r,
and no two onto the same r, so the equation of an image has one term per
i-target it holds, and b is never one.  In the first round a monomial is
forced when its support misses, for one of its moves, the guard: every
i-target but r.  The walk goes over ascending supports of at most d
variables depth first, carrying the unmet guards; it cuts a branch when an
unmet guard has no bit above the last variable, and takes the last
variable from the AND of the unmet guards.  The later rounds sweep the
walked supports until a sweep forces none.  A support S is forced when,
for one of its moves b -> r, no other i-target r' in S has a live preimage
support: with F = S | {r, source_i(r')}, none of F, F - {b}, F - {r'} and
F - {b, r'} is still live.  Then the image's equation holds S's monomial
alone, whatever its exponents.  A preimage has S's degree, so a support
that is not live is forced.  On the n=7 reference at degree 4 the walk
keeps 204 supports of the 5984 monomials, and the later rounds leave 28
of them, 89 monomials, each carrying its position code.  ``_system``
settles the rest with a worklist (a forced column leaves its equations,
and an equation left with one term forces on); a weight with one kept
monomial is forced by any move or kept with no equations, and a weight
that its one-term equations force whole is dropped before the worklist
is indexed.  Forcing is a least fixed point, so what is kept does not
depend on how much the support rounds settle.  ``oracle_invariants``
solves what is left; ``_containment``, the report's ``oracle_containment``
line, only counts on it, and ranks only the weights left with equations.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .errors import DEFAULT_BUDGET, BudgetError, _monomial_scan
from .poly import Polynomial, _generator_moves, _monomial, _Moves
from .roots import RegularIdeal

# Per weight code, the kept columns (key -> combo) and sparse rows.
_System = dict[int, tuple[dict[int, tuple[int, ...]], list[dict[int, int]]]]


def oracle_invariants(
    ideal: RegularIdeal,
    max_degree: int,
    budget: int = DEFAULT_BUDGET,
) -> list[Polynomial]:
    """Brute-force basis of all polynomial invariants up to ``max_degree``.

    Solves ``_system`` weight by weight: each weight's kernel vectors over
    its kept monomials in the library's monomial order (fewest distinct
    variables first, then by the tuples), from ``linalg._kernel``.  A
    forced column is never free in the reduced echelon form, so the basis
    is the full system's: integer coprime coefficients, positive leading
    term, sorted by degree and then by string.  Raises InputError when
    ``max_degree`` or ``budget`` is not an int, when ``max_degree`` is
    below 1 or ``budget`` below 0, and BudgetError when there are more than
    ``budget`` monomials.
    """
    variables = ideal.free_roots()
    total = _monomial_scan(len(variables), max_degree, budget, "budget")
    if total > budget:
        raise BudgetError(f"oracle would scan {total} monomials, budget is {budget}")
    basis = []
    for kept, rows in _system(ideal, max_degree, _generator_moves(ideal)).values():
        monos = {c: _monomial([variables[k] for k in combo]) for c, combo in kept.items()}
        order = sorted(kept, key=lambda c: (len(monos[c]), monos[c]))
        for vector in linalg._kernel([[row.get(c, 0) for c in order] for row in rows], len(order)):
            basis.append(Polynomial(dict(zip([monos[c] for c in order], vector))).normalize_sign())
    basis.sort(key=lambda p: (p.degree(), str(p)))
    return basis


def _containment(
    ideal: RegularIdeal,
    max_degree: int,
    moves: _Moves,
    compiled: list[list[tuple[int, tuple[int, ...]]]],
) -> tuple[list[bool], int]:
    """Whether each compiled polynomial, of degree at most ``max_degree``,
    lies in the oracle's kernel, and the size of the oracle's basis, with
    no basis built; ``moves`` is the ideal's ``_generator_moves``.

    A polynomial lies in the kernel exactly when each of its terms is a
    kept column of ``_system`` and every remaining row of each weight it
    holds vanishes on its coefficients.  The basis size sums kept columns
    less the rank of the rows (``linalg._rank``, if any) over the weights.
    """
    system = _system(ideal, max_degree, moves)
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
    return answers, sum(
        len(kept) - linalg._rank([[row.get(c, 0) for c in kept] for row in rows], len(kept))
        if rows else len(kept) for kept, rows in system.values())


def _system(ideal: RegularIdeal, max_degree: int, generators: _Moves) -> _System:
    """The oracle's equations less every coefficient they force to zero: for
    each weight code that keeps a column, the kept columns and the rows left
    on them, whose kernel is the generator brackets' kernel in that weight.
    ``generators`` is the ideal's ``_generator_moves``.
    """
    moves, groups = _columns(ideal, max_degree, generators)
    system: _System = {}
    for weight, members in groups.items():
        if len(members) == 1:
            # Any move of a lone member is alone in its equation and forces
            # it; with no move it is kept, with no equations.
            (support, slots, _, _), = members
            if not any(map(moves.__getitem__, support)):
                system[weight] = ({0: tuple([support[s] for s in slots])}, [])
            continue
        # One sparse row (column -> coefficient) per generator i and image
        # code; the bracket with b^e is s*e*(mono/b)*r.  Distinct variables
        # a != b move to distinct images (r and a differ in weight), so each
        # sets its own entry and no entry cancels.
        equations: dict[int, dict[int, int]] = {}
        for col, (support, _, exps, start) in enumerate(members):
            for k, e in zip(support, exps):
                for sign, move, _, _ in moves[k]:
                    equations.setdefault(start + move, {})[col] = sign * e
        # A row with one entry here lost its others to the support rounds
        # and forces its column; a forced column leaves the (indexed) rows of
        # two or more entries it is in, and one left with one entry forces on.
        forced: set[int] = set()
        rows: list[dict[int, int]] = []
        for row in equations.values():
            if len(row) == 1:
                forced.update(row)
            else:
                rows.append(row)
        if len(forced) == len(members):
            continue  # forced whole by its one-entry rows
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
                    for c, (support, slots, _, _) in enumerate(members) if c not in forced}
            system[weight] = (kept, [row for row in rows if row])
    return system


def _columns(
    ideal: RegularIdeal, max_degree: int, generators: _Moves
) -> tuple[list[list[tuple[int, int, int, int]]], dict[int, list]]:
    """The oracle's bracket moves per variable, and its monomials of degree
    1..``max_degree`` by weight code, less those the support rounds force;
    ``generators`` is the ideal's ``_generator_moves``.

    The walk keeps the supports that meet the guard ``targets[i] & ~bit(r)``
    of each of their moves, and the later rounds drop each support with a
    move whose every other target has no live preimage support (see the
    module docstring).  Each support left gives one member per exponent
    vector (every exponent at least 1, total at most ``max_degree``),
    (support, slots, exponents, n * position code) with the combo of its
    copies ``support[s]`` for s in slots, in no set order within a group.
    """
    n = ideal.n
    variables = ideal.free_roots()
    # A combo is its variables' positions, nondecreasing, one per copy.  Its
    # position code sums power[k] = base**k over them; base exceeds every
    # exponent, so the code is one-to-one, and moving a copy of k to r adds
    # power[r] - power[k].  Its weight code sums big**(i-1) - big**(j-1) over
    # the variables (i,j); big = 2 * max_degree + 1 spans a weight
    # coordinate, so codes are weights.  Both are summed in one pass.
    #
    # moves[k] lists (s, shift * n + i, i, r) for each generator (i+1,i)
    # whose bracket with variable k is s*r, r outside the ideal, so the
    # equation key (code + shift) * n + i is one add.  rules[k] holds, per
    # move, its guard targets & ~bit(r), where targets masks every r that
    # generator i reaches, then bit(r), then generator i's map from the bit
    # of each target to the bit of its source; guards[k] holds the guards.
    base = max_degree + 1
    power = [base**k for k in range(len(variables))]
    moves: list[list[tuple[int, int, int, int]]] = [[] for _ in variables]
    rules: list[list[tuple[int, int, dict[int, int]]]] = [[] for _ in variables]
    for i, table in generators.items():
        source = {1 << r: 1 << k for k, (_, r) in table.items()}
        targets = sum(source)
        for k, (sign, r) in table.items():
            moves[k].append((sign, (power[r] - power[k]) * n + i, i, r))
            rules[k].append((targets & ~(1 << r), 1 << r, source))
    guards = [[g for g, _, _ in rk] for rk in rules]
    big = 2 * max_degree + 1
    torus = [big ** (i - 1) - big ** (j - 1) for i, j in variables]
    # patterns[s] holds, per exponent vector of a support of s variables,
    # the nondecreasing slots of the monomial's copies and the exponents.
    patterns: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [[((), ())]]
    for s in range(min(max_degree, len(variables))):
        patterns.append([(slots + (s,) * x, exps + (x,)) for slots, exps in patterns[-1]
                         for x in range(1, max_degree - len(slots) + 1)])
    everything = (1 << len(variables)) - 1
    kept: list[tuple[tuple[int, ...], int]] = []
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
                    kept.append((support + (v,), now))
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
                kept.append((support + (v,), now))
            if not left or min(left) >> v + 1:
                stack.append((support + (v,), now, left))
    # The later rounds, on supports: sweep the live masks, dropping each
    # forced one at once, until a sweep drops none.
    live = {mask for _, mask in kept}

    def forced(support: tuple[int, ...], mask: int) -> bool:
        for v in support:
            vbit = 1 << v
            for g, rbit, source in rules[v]:
                others = mask & g
                while others:
                    low = others & -others
                    f = mask | rbit | source[low]
                    # F - {b, r'} first: the preimage's support when b and r' occur once.
                    if f ^ vbit ^ low in live or f ^ vbit in live or f in live or f ^ low in live:
                        break
                    others ^= low
                else:
                    return True
        return False

    while True:
        left = []
        for support, mask in kept:
            if forced(support, mask):
                live.discard(mask)
            else:
                left.append((support, mask))
        if len(left) == len(kept):
            break
        kept = left
    groups: dict[int, list] = {}
    for support, _ in kept:
        for slots, exps in patterns[len(support)]:
            weight = code = 0
            for s in slots:
                k = support[s]
                weight += torus[k]
                code += power[k]
            groups.setdefault(weight, []).append((support, slots, exps, code * n))
    return moves, groups
