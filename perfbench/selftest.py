"""Show that every output check of the benchmark can fail.

    python3 perfbench/selftest.py

Run it from the repository root.  It checks the enumeration of regular
ideals, runs the program once per subcommand on the n=7 reference, confirms
that the clean documents pass, and then feeds each check deliberately
corrupted documents that it must reject.  Exits 1 if a clean document is
rejected or a corrupted one is accepted.
"""

from __future__ import annotations

import contextlib
import copy
import json
import random
import shutil
import sys
from pathlib import Path

import checks
import workloads
from run import call, import_program, judge

CATALAN = (1, 2, 5, 14, 42, 132, 429)


def corrupt_invariants(doc: dict) -> dict:
    records = doc["invariants"]
    multi = next(r for r in records if " + " in r["P"] or " - " in r["P"])

    def wrong_degree(d):
        d["invariants"][0]["degree"] += 1

    def dropped_term(d):
        rec = next(r for r in d["invariants"] if r["xi"] == multi["xi"])
        rec["P"] = rec["P"].rsplit(" + ", 1)[0] if " + " in rec["P"] else rec["P"].rsplit(" - ", 1)[0]

    def flipped_term(d):
        rec = next(r for r in d["invariants"] if r["xi"] == multi["xi"])
        rec["P"] = rec["P"].replace(" + ", " - ", 1) if " + " in rec["P"] else rec["P"].replace(" - ", " + ", 1)

    def swapped_p(d):
        a, b = d["invariants"][0], d["invariants"][-1]
        a["P"], b["P"] = b["P"], a["P"]

    def ideal_variable(d):
        d["invariants"][0]["P"] += " + y[7,1]"

    def repeated_record(d):
        d["invariants"].append(copy.deepcopy(d["invariants"][0]))

    return {f.__name__: f for f in (wrong_degree, dropped_term, flipped_term, swapped_p,
                                    ideal_variable, repeated_record)}


def corrupt_scan(doc: dict) -> dict:
    def missing_spec(d):
        d["extremal_minors"].pop(len(d["extremal_minors"]) // 2)

    def duplicate_spec(d):
        d["extremal_minors"].append(dict(d["extremal_minors"][0]))

    def constant_top_coefficient(d):
        d["extremal_minors"].append({"rows": [3], "cols": [3], "degree": 1, "extremal": True})

    def wrong_degree(d):
        d["extremal_minors"][-1]["degree"] += 1

    return {f.__name__: f for f in (missing_spec, duplicate_spec, constant_top_coefficient, wrong_degree)}


def _detail(d, name, old, new):
    check = next(c for c in d["checks"] if c["name"] == name)
    check["detail"] = check["detail"].replace(old, new)


def corrupt_verify(doc: dict) -> dict:
    def not_passed(d):
        d["passed"] = False

    def oracle_skipped(d):
        d["checks"][-1]["status"] = "skipped"

    def check_dropped(d):
        del d["checks"][3]

    def wrong_bullets(d):
        _detail(d, "diagram_counts", "bullets=4", "bullets=5")

    def wrong_length(d):
        _detail(d, "permutation_length", "l(w)=17", "l(w)=16")

    def wrong_corank(d):
        _detail(d, "skew_rank", "corank=5", "corank=4")

    def wrong_jacobian_rank(d):
        _detail(d, "jacobian_rank", "rank=5", "rank=4")

    return {f.__name__: f for f in (not_passed, oracle_skipped, check_dropped, wrong_bullets,
                                    wrong_length, wrong_corank, wrong_jacobian_rank)}


def main(root: Path) -> int:
    failures = []

    def expect(label: str, errors: list, rejected: bool) -> None:
        ok = bool(errors) == rejected
        print(f"{'PASS' if ok else 'FAIL'} {label}: {'rejected' if errors else 'accepted'}"
              + (f" ({errors[0]})" if errors else ""))
        if not ok:
            failures.append(label)

    for n, count in enumerate(CATALAN, 1):
        found = len(workloads.regular_ideals(n))
        expect(f"enumeration n={n} gives {found}", [] if found == count else ["count"], False)
    n, gens = workloads.REFERENCE
    ideal = workloads.closure(n, gens)
    expect("closure of the reference", [] if ideal == {(5, 1), (6, 1), (7, 1), (7, 2)} else ["closure"], False)

    src = root / "src"
    sys.path.insert(0, str(src))
    cli = import_program(src)
    workdir = root / ".perfbench_out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        path = workdir / "reference.json"
        path.write_text(json.dumps({"n": n, "ideal_generators": [list(g) for g in gens]}))
        runs = {
            "invariants": (("invariants", str(path), "--format", "json"), corrupt_invariants),
            "extremal-scan": (("extremal-scan", str(path), "--format", "json"), corrupt_scan),
            "verify": (("verify", str(path), "--format", "json", "--max-degree", "2"), corrupt_verify),
        }
        for command, (argv, corruptions) in runs.items():
            op = workloads.Op(argv, n, ideal)
            code, _, stdout, stderr = call(cli, argv)
            _, errors = judge(op, code, stdout, stderr, random.Random(command))
            expect(f"{command}: clean output", errors, False)
            doc = json.loads(stdout)
            for name, corrupt in corruptions(doc).items():
                bad = copy.deepcopy(doc)
                corrupt(bad)
                expect(f"{command}: {name}", checks.check(op, bad, random.Random(name)), True)
        failing = workloads.Op(("verify", str(workdir / "missing.json")), n, ideal)
        code, _, stdout, stderr = call(cli, failing.argv)
        _, errors = judge(failing, code, stdout, stderr, random.Random(0))
        expect("nonzero exit counts as failed", errors, True)
        non_invariant = [("y[2,1]", checks.parse_poly("y[2,1]"))]
        expect("coadjoint check on y[2,1]",
               checks.check_coadjoint(n, ideal, non_invariant, random.Random(0)), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(f"{len(failures)} self-test failures" if failures else "every check passes clean output and rejects each corruption")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(Path.cwd()))
