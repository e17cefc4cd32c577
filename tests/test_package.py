"""The package's public name list."""

import ast
from pathlib import Path

import regfactor

# Public names that no code under src/regfactor/ reaches, each with the
# reason it stays public.
UNREFERENCED_OK = {
    # The record of one cross.  all_invariants builds every record in one
    # pass over the crosses instead; the benchmark's per-layer metric
    # invariants.invariant_for.calls names this function.
    "invariant_for",
    # The chain bookkeeping of one case-2 cross.  The library calls the
    # private form, which takes the column products that the crosses of
    # one diagram share.
    "segment_data",
}


def test_all_names_resolve_without_duplicates():
    missing = [name for name in regfactor.__all__ if not hasattr(regfactor, name)]
    assert missing == []
    assert len(set(regfactor.__all__)) == len(regfactor.__all__)


def test_every_public_name_is_used_inside_the_package():
    # A name counts as used when some module other than the package
    # re-export loads it or reads it as an attribute; its own def or class
    # statement and import lines do not count.
    used = set()
    for path in Path(regfactor.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(regfactor.__all__) - used - UNREFERENCED_OK) == []
    assert sorted(UNREFERENCED_OK & used) == []
    assert UNREFERENCED_OK <= set(regfactor.__all__)
