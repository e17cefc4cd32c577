"""Command-line front end.

Every subcommand reads one problem file of the form
``{"n": int, "ideal_generators": [[i, j], ...]}`` and writes a text or JSON
document to stdout.  Identical inputs and seeds produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 resource budget exceeded; in JSON mode exit 3 also prints
``{"valid": false, "error", "partial"}`` with whatever was computed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import diagram, invariants, minors, oracle, roots, verify, weyl
from .errors import DEFAULT_BUDGET, BudgetError, ConstructionError, InputError, require_ints

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def load_problem(path: str, strict: bool = False) -> roots.RegularIdeal:
    """Read and validate a problem file, returning the closed ideal."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"problem file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("problem file must contain a JSON object")
    unknown = set(doc) - {"n", "ideal_generators"}
    if unknown:
        raise InputError(f"unknown problem keys: {sorted(unknown)}")
    if "n" not in doc or "ideal_generators" not in doc:
        raise InputError('problem file needs "n" and "ideal_generators"')
    n = doc["n"]
    require_ints((n,), '"n" must be a positive integer, got {!r}', n)
    if n < 1:
        raise InputError(f'"n" must be a positive integer, got {n!r}')
    generators = doc["ideal_generators"]
    if not isinstance(generators, list):
        raise InputError('"ideal_generators" must be a list of [i, j] pairs')
    return roots.close_ideal(n, generators, strict=strict)


def _emit(doc: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(text)


def cmd_diagram(ideal: roots.RegularIdeal, args) -> int:
    diag = diagram.build_diagram(ideal)
    counts = diag.counts()
    lines = []
    for step in range(diag.step_count + 1):
        lines.append(f"after step {step}:")
        lines.append(diag.render(upto_step=step))
    lines.append(
        f"crosses={counts.crosses} plus_minus={counts.plus_minus} bullets={counts.bullets}"
    )
    _emit(diag.to_json(), "\n".join(lines), args.format)
    return EXIT_OK


def cmd_permutation(ideal: roots.RegularIdeal, args) -> int:
    diag = diagram.build_diagram(ideal)
    w = weyl.column_max_permutation(ideal)
    product = weyl.reflection_product(ideal.n, diag.crosses)
    doc = {
        "n": ideal.n,
        "w": w.to_json(),
        "inversions": weyl.inversions(w),
        "dim": ideal.dim,
        "crosses": [list(r) for r in diag.crosses],
        "reflection_product_matches": product == w,
    }
    text = "\n".join(
        [
            f"w: {doc['w']}",
            f"inversions: {doc['inversions']}",
            f"dim: {doc['dim']}",
            f"crosses: {doc['crosses']}",
            f"reflection product matches: {doc['reflection_product_matches']}",
        ]
    )
    _emit(doc, text, args.format)
    return EXIT_OK


def cmd_invariants(ideal: roots.RegularIdeal, args) -> int:
    records = invariants.all_invariants(ideal)
    # to_json renders each polynomial, and so does the text listing: build one.
    if args.format == "json":
        _emit({"n": ideal.n, "invariants": [r.to_json() for r in records]}, "", "json")
        return EXIT_OK
    lines = []
    for r in records:
        lines.append(
            f"xi={list(r.xi)} case={r.case} h={r.h} rows={list(r.rows)} "
            f"cols={list(r.cols)} degree={r.degree} d_star={r.d_star}"
        )
        lines.append(f"  P = {r.invariant}")
    print("\n".join(lines) if lines else "no invariants (zero factor)")
    return EXIT_OK


def cmd_verify(ideal: roots.RegularIdeal, args) -> int:
    report = verify.full_report(
        ideal,
        trials=args.trials,
        seed=args.seed,
        max_degree=args.max_degree,
        oracle_budget=args.budget,
    )
    _emit(report.to_json(), "\n".join(report.lines()), args.format)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_extremal_scan(ideal: roots.RegularIdeal, args) -> int:
    specs = minors.enumerate_extremal(ideal, max_size=args.max_size, budget=args.budget)
    entries = [
        {**spec.to_json(), "degree": minors.minor_degree(ideal, spec), "extremal": True}
        for spec in specs
    ]
    text = "\n".join(
        f"rows={e['rows']} cols={e['cols']} degree={e['degree']}" for e in entries
    )
    _emit({"n": ideal.n, "extremal_minors": entries}, text or "none", args.format)
    return EXIT_OK


def cmd_orbit_stats(ideal: roots.RegularIdeal, args) -> int:
    counts = diagram.build_diagram(ideal).counts()
    stats = verify.skew_rank_stats(ideal)
    doc = {
        "n": ideal.n,
        "max_rank": stats.max_rank,
        "corank": stats.corank,
        "plus_minus": counts.plus_minus,
        "crosses": counts.crosses,
        "match": stats.max_rank == counts.plus_minus and stats.corank == counts.crosses,
    }
    text = "\n".join(
        [
            f"max skew rank: {stats.max_rank}",
            f"corank: {stats.corank}",
            f"diagram plus/minus: {counts.plus_minus}",
            f"diagram crosses: {counts.crosses}",
            f"match: {doc['match']}",
        ]
    )
    _emit(doc, text, args.format)
    return EXIT_OK if doc["match"] else EXIT_VERIFICATION


def cmd_oracle(ideal: roots.RegularIdeal, args) -> int:
    basis = [str(p) for p in
             oracle.oracle_invariants(ideal, max_degree=args.max_degree, budget=args.budget)]
    doc = {"n": ideal.n, "max_degree": args.max_degree, "basis": basis}
    text = "\n".join(basis)
    _emit(doc, text or "no invariants up to this degree", args.format)
    return EXIT_OK


_FLAGS = {"--seed": 0, "--trials": 100, "--max-degree": 4, "--budget": DEFAULT_BUDGET,
          "--max-size": None}

# command -> (handler, help, the flags it reads besides problem, --format
# and --strict).  A flag a command does not read is an argparse error.
_COMMANDS = {
    "diagram": (cmd_diagram, "grid and step trace", ()),
    "permutation": (cmd_permutation, "column-max permutation data", ()),
    "invariants": (cmd_invariants, "per-cross invariant records", ()),
    "verify": (cmd_verify, "run the full verification report",
               ("--seed", "--trials", "--max-degree", "--budget")),
    "extremal-scan": (cmd_extremal_scan, "enumerate extremal minors",
                      ("--budget", "--max-size")),
    "orbit-stats": (cmd_orbit_stats, "skew form rank at the distinct-prime point", ()),
    "oracle": (cmd_oracle, "brute-force low-degree invariants", ("--max-degree", "--budget")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regfactor",
        description="Diagrams, permutations, and coadjoint invariants of "
        "regular factors of the unitriangular Lie algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, flags) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=text)
        cmd.add_argument("problem", help="path to the JSON problem file")
        cmd.add_argument("--format", choices=["text", "json"], default="text")
        cmd.add_argument(
            "--strict",
            action="store_true",
            help="reject generator sets that are not already closed",
        )
        for flag in flags:
            cmd.add_argument(flag, type=int, default=_FLAGS[flag])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built on the first one.  Parsing
    leaves no state in it: each call gets a fresh namespace."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        ideal = load_problem(args.problem, strict=args.strict)
        return _COMMANDS[args.command][0](ideal, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.format == "json":
            partial = [item.to_json() for item in exc.partial]
            _emit({"valid": exc.valid, "error": str(exc), "partial": partial}, "", "json")
        return EXIT_BUDGET
    except ConstructionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
