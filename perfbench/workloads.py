"""Workload inputs, made from the workload seed by the benchmark alone.

Regular ideals are built here with the benchmark's own closure rule, so the
program under test only ever sees the problem files and flags it is given.
A regular ideal of the strictly lower triangle is fixed by one boundary per
column: column j holds the rows b_j..n, with j+1 <= b_j <= n+1 and
b_1 <= b_2 <= ... (closure pulls every root left along its row and down its
column).  These sequences are counted by the Catalan numbers
(Cellini-Papi 2000).
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

REFERENCE = (7, ((5, 1), (7, 2)))
SCALING_NS = (9, 10, 11, 12)
SWEEP_N = 6
SWEEP_MAX_DEGREE = "2"
VERIFY_SEEDS = 3
# extremal-scan: every n=6 ideal of this size (14 of them, in seeded order)
# holds the median operation, so it does not hinge on a seeded draw; one
# seeded n=7 ideal of each listed size scans above them and below the two
# fixed n=7 inputs, which keeps the slowest tenth of operations fixed.
SCAN_N6_SIZE = 12
SCAN_N7_SIZES = (16, 18)

WORKLOADS = ("reference-verify", "scaling-invariants", "catalan-sweep", "extremal-scan")


@dataclass(frozen=True)
class Op:
    """One CLI call: its argument list and the ideal its problem file holds."""

    argv: tuple[str, ...]
    n: int
    ideal: frozenset

    @property
    def command(self) -> str:
        return self.argv[0]


def closure(n: int, generators) -> frozenset:
    """Smallest root set holding ``generators`` and, with each (i,j), the
    roots (i,j-1) to its left and (i+1,j) below it."""
    ideal: set = set()
    stack = []
    for i, j in generators:
        if not (isinstance(i, int) and isinstance(j, int) and 1 <= j < i <= n):
            raise ValueError(f"({i},{j}) is not a root for n={n}")
        stack.append((i, j))
    while stack:
        i, j = stack.pop()
        if (i, j) in ideal:
            continue
        ideal.add((i, j))
        if j > 1:
            stack.append((i, j - 1))
        if i < n:
            stack.append((i + 1, j))
    return frozenset(ideal)


@functools.cache
def regular_ideals(n: int) -> tuple[frozenset, ...]:
    """Every regular ideal for size n, from nondecreasing column boundaries.

    Checks its own output: Catalan(n) ideals, none repeated, each closed.
    Cached: the list does not depend on the seed.
    """
    out = []

    def extend(j: int, low: int, bounds: list) -> None:
        if j == n:
            out.append(frozenset((i, c) for c, b in enumerate(bounds, 1) for i in range(b, n + 1)))
            return
        for b in range(max(low, j + 1), n + 2):
            extend(j + 1, b, bounds + [b])

    extend(1, 2, [])
    if len(out) != comb(2 * n, n) // (n + 1):
        raise AssertionError(f"{len(out)} regular ideals for n={n}, expected Catalan({n})")
    if len(set(out)) != len(out):
        raise AssertionError(f"a regular ideal repeats for n={n}")
    for ideal in out:
        if closure(n, ideal) != ideal:
            raise AssertionError(f"enumerated set is not closed: {sorted(ideal)}")
    return tuple(out)


def minimal_generators(ideal: frozenset) -> list[tuple[int, int]]:
    """Roots of the ideal with neither their upper nor their right
    neighbour in it; their closure is the ideal."""
    return sorted(r for r in ideal if (r[0] - 1, r[1]) not in ideal and (r[0], r[1] + 1) not in ideal)


def scan_ideals(rng: random.Random) -> list[tuple[int, frozenset]]:
    """Inputs of extremal-scan besides the two fixed n=7 ones."""
    picks = [(6, ideal) for ideal in regular_ideals(6) if len(ideal) == SCAN_N6_SIZE]
    rng.shuffle(picks)
    for size in SCAN_N7_SIZES:
        picks.append((7, rng.choice([i for i in regular_ideals(7) if len(i) == size])))
    return picks


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Op], dict[Path, str]]:
    """The workload's fixed list of operations and the text of each problem
    file under ``workdir`` that they name, still to be written.  The same
    seed gives the same list and files."""
    rng = random.Random(f"{workload}:{seed}")
    json_flag = ("--format", "json")
    ops: list[Op] = []
    files: dict[Path, str] = {}

    def _problem(name: str, n: int, generators) -> str:
        generators = [list(g) for g in generators]
        rng.shuffle(generators)
        path = workdir / f"{name}.json"
        files[path] = json.dumps({"n": n, "ideal_generators": generators})
        return str(path)

    if workload == "reference-verify":
        n, gens = REFERENCE
        ideal = closure(n, gens)
        path = _problem("reference", n, gens)
        for _ in range(VERIFY_SEEDS):
            flag_seed = str(rng.randrange(2**31))
            ops.append(Op(("verify", path, *json_flag, "--seed", flag_seed), n, ideal))
    elif workload == "scaling-invariants":
        for n in SCALING_NS:
            gens = ((n - 1, 1), (n, 3))
            path = _problem(f"scaling{n}", n, gens)
            ops.append(Op(("invariants", path, *json_flag), n, closure(n, gens)))
    elif workload == "catalan-sweep":
        ideals = list(regular_ideals(SWEEP_N))
        rng.shuffle(ideals)
        for k, ideal in enumerate(ideals):
            gens = minimal_generators(ideal)
            if closure(SWEEP_N, gens) != ideal:
                raise AssertionError(f"generators of {sorted(ideal)} do not close back to it")
            path = _problem(f"sweep{k}", SWEEP_N, gens)
            argv = ("verify", path, *json_flag, "--max-degree", SWEEP_MAX_DEGREE,
                    "--seed", str(rng.randrange(2**31)))
            ops.append(Op(argv, SWEEP_N, ideal))
    elif workload == "extremal-scan":
        n, gens = REFERENCE
        inputs = [(n, closure(n, gens)), (n, frozenset())] + scan_ideals(rng)
        for k, (n, ideal) in enumerate(inputs):
            gens = minimal_generators(ideal)
            path = _problem(f"scan{k}", n, gens)
            ops.append(Op(("extremal-scan", path, *json_flag), n, ideal))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return ops, files
