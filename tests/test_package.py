"""The package's public name list, its lazy modules, and its one number
type."""

import ast
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

import regfactor
from regfactor import (
    BudgetError,
    DualPoint,
    GroupElement,
    InputError,
    MinorSpec,
    Permutation,
    Polynomial,
    RegularIdeal,
    build_diagram,
    check_invariance,
    close_ideal,
    enumerate_extremal,
    full_report,
    oracle_invariants,
    positive_roots,
    reflection_product,
    shift_spec,
)
from regfactor.cli import load_problem
from regfactor.errors import _monomial_scan
from regfactor.roots import check_root

# Public names, functions and methods ("Class.method") that no code under
# src/regfactor/ reaches, each with the reason it stays public.
UNREFERENCED_OK = {
    # The record of one cross.  all_invariants builds every record in one
    # pass over the crosses instead; the benchmark's per-layer metric
    # invariants.invariant_for.calls names this function.
    "invariant_for",
    # Poisson annihilation and the coadjoint trials on any records, a
    # hand-made one included.  full_report calls the private form, which
    # takes the terms it compiles once for the Jacobian rows as well.
    "check_invariance",
    # The one-step shift with every check.  is_extremal walks the shifts
    # through the private form, which skips the checks on its own indices.
    "shift_spec",
    # A public constructor: the polynomial of one variable, for building
    # polynomials by hand.
    "Polynomial.variable",
    # Public constructors of a seeded random point and group element: the
    # way to rebuild a failing trial's witness from its seed.
    "DualPoint.random",
    "GroupElement.random",
}


def test_all_names_resolve_without_duplicates():
    missing = [name for name in regfactor.__all__ if not hasattr(regfactor, name)]
    assert missing == []
    assert len(set(regfactor.__all__)) == len(regfactor.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from regfactor import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(regfactor.__all__)
    for name, module in regfactor._HOME.items():
        assert namespace[name] is vars(sys.modules[f"regfactor.{module}"])[name], name
    assert set(regfactor.__all__) <= set(dir(regfactor))
    with pytest.raises(AttributeError):
        regfactor.no_such_name


_LIBRARY = ["cli", "diagram", "errors", "invariants", "linalg", "minors", "oracle", "poly",
            "roots", "verify", "weyl"]


def _loaded_after(code: str, tmp_path) -> list[str]:
    """The regfactor modules whose code has run after a fresh interpreter runs
    ``code``.  A lazy module is a ModuleType subclass until its first
    attribute access; the type check itself reads no attribute."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"n": 7, "ideal_generators": [[5, 1], [7, 2]]}))
    src = str(Path(regfactor.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = (
        "import contextlib, io, sys, types\n"
        f"PROBLEM = {str(problem)!r}\n"
        f"{code}\n"
        "print(sorted(m.split('.')[1] for m, mod in list(sys.modules.items())\n"
        "             if m.startswith('regfactor.') and type(mod) is types.ModuleType))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    return ast.literal_eval(done.stdout.splitlines()[-1])


_RUN = ("from regfactor import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main([{!r}, PROBLEM]) == 0\n")


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import regfactor.cli", ["cli", "errors"]),
        (_RUN.format("extremal-scan"), ["cli", "errors", "minors", "poly", "roots"]),
        (_RUN.format("invariants"),
         ["cli", "diagram", "errors", "invariants", "minors", "poly", "roots", "weyl"]),
        (_RUN.format("verify"), _LIBRARY),
        ("import regfactor", []),
        # linalg exports no public name; oracle holds it as a lazy module.
        ("from regfactor import *", [m for m in _LIBRARY if m not in ("cli", "linalg")]),
    ],
    ids=["import-cli", "extremal-scan", "invariants", "verify", "import-package", "star"],
)
def test_a_process_runs_only_the_modules_it_uses(code, loaded, tmp_path):
    assert _loaded_after(code, tmp_path) == loaded


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
    # an allowed entry is a public name or a method of a public class
    assert {name.split(".")[0] for name in UNREFERENCED_OK} <= set(regfactor.__all__)


def test_every_public_function_and_method_is_used_inside_the_package():
    # Every public module-level function and every public method of a public
    # class, in every module but the package re-export.  A function counts
    # as used when another module imports it by name or reads it as an
    # attribute, or when its own module loads it; a method when some module
    # reads it as an attribute.  Dunders are out of scope.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(regfactor.__file__).parent.glob("*.py")
        if path.name != "__init__.py"
    }
    functions, methods = {}, set()
    loads, reads, imports = defaultdict(set), defaultdict(set), defaultdict(set)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions[node.name] = module
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                methods.update(
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[node.id].add(module)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr].add(module)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imports[node.module.split(".")[-1], alias.name].add(module)
    unused = {
        name for name, home in functions.items()
        if home not in loads[name] and not (reads[name] | imports[home, name]) - {home}
    }
    unused |= {method for method in methods if not reads[method.split(".")[1]]}
    assert sorted(unused - UNREFERENCED_OK) == []
    assert sorted(UNREFERENCED_OK - unused) == []


def _imported_modules(path: Path) -> set[str]:
    """The modules a file imports, a relative import by its module name
    (``from . import linalg`` as "linalg", ``from .roots import x`` as
    "roots")."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module)
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_no_module_imports_fractions():
    # int is the only number type the package accepts or produces, so no
    # module needs the fractions module.
    importers = [
        path.name
        for path in sorted(Path(regfactor.__file__).parent.glob("*.py"))
        if any(name.split(".")[0] == "fractions" for name in _imported_modules(path))
    ]
    assert importers == []


def test_poly_imports_neither_linalg_nor_verify():
    # poly is sparse polynomials and structure constants; the checks that
    # rank or bracket records live in verify, on compiled terms, and the
    # oracle's equations in oracle.
    path = Path(regfactor.__file__).parent / "poly.py"
    assert _imported_modules(path) & {"linalg", "verify", "oracle"} == set()


def test_oracle_imports_no_report_and_the_report_reads_one_oracle_name():
    # The oracle needs neither the report, the records nor the CLI; the
    # report reaches the oracle through its one containment entry.
    package = Path(regfactor.__file__).parent
    assert _imported_modules(package / "oracle.py") & {"verify", "invariants", "cli"} == set()
    read = set()
    for node in ast.walk(ast.parse((package / "verify.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[-1] == "oracle":
                read.update(alias.name for alias in node.names)
            elif any(alias.name.split(".")[-1] == "oracle" for alias in node.names):
                read.add("the module itself")
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "oracle" for alias in node.names):
                read.add("the module itself")
    assert read == {"_containment"}


_Y = Polynomial.variable((2, 1))
_IDEAL = close_ideal(3, [])
_TRIVIAL = RegularIdeal(1, frozenset())
_SPEC = MinorSpec((2,), (1,))
_DIAGRAM = build_diagram(_IDEAL)

# Each public entry that takes a number, called with the value v in one
# numeric place; with v = 2 every call goes through.
_NUMBER_ENTRIES = {
    "Polynomial": lambda v: Polynomial({(): v}),
    "Polynomial.constant": lambda v: Polynomial.constant(v),
    "Polynomial.evaluate": lambda v: _Y.evaluate({(2, 1): v}),
    "Polynomial.__add__": lambda v: _Y + v,
    "Polynomial.__rsub__": lambda v: v - _Y,
    "Polynomial.__mul__": lambda v: _Y * v,
    "Polynomial.__pow__": lambda v: _Y ** v,
    "check_root": lambda v: check_root(3, (v, 1)),
    "RegularIdeal": lambda v: RegularIdeal(v, frozenset()),
    "close_ideal.n": lambda v: close_ideal(v, [(2, 1)]),
    "close_ideal.generators": lambda v: close_ideal(3, [(3, v)]),
    "positive_roots": lambda v: positive_roots(v),
    "Permutation": lambda v: Permutation((v, 1)),
    "Diagram.render": lambda v: _DIAGRAM.render(upto_step=v),
    "reflection_product": lambda v: reflection_product(v, []),
    "MinorSpec.rows": lambda v: MinorSpec((v,), (1,)),
    "MinorSpec.cols": lambda v: MinorSpec((2,), (v,)),
    "shift_spec": lambda v: shift_spec(_SPEC, v, "down"),
    "enumerate_extremal.budget": lambda v: enumerate_extremal(_TRIVIAL, budget=v),
    "enumerate_extremal.max_size": lambda v: enumerate_extremal(_IDEAL, max_size=v),
    "DualPoint": lambda v: DualPoint(_IDEAL, {r: v for r in _IDEAL.free_roots()}),
    "GroupElement": lambda v: GroupElement(((1, 0), (v, 1))),
    "GroupElement.random": lambda v: GroupElement.random(v, random.Random(0)),
    "check_invariance.trials": lambda v: check_invariance([], _IDEAL, trials=v),
    "check_invariance.seed": lambda v: check_invariance([], _IDEAL, seed=v),
    "oracle_invariants.max_degree": lambda v: oracle_invariants(_IDEAL, v),
    "oracle_invariants.budget": lambda v: oracle_invariants(_TRIVIAL, 2, budget=v),
    "full_report.trials": lambda v: full_report(_IDEAL, trials=v),
    "full_report.seed": lambda v: full_report(_IDEAL, seed=v),
    "full_report.max_degree": lambda v: full_report(_IDEAL, max_degree=v),
}


@pytest.mark.parametrize("value", [Fraction(1, 2), 1.5, True], ids=repr)
@pytest.mark.parametrize("entry", sorted(_NUMBER_ENTRIES))
def test_every_number_entry_rejects_non_ints(entry, value):
    with pytest.raises(InputError):
        _NUMBER_ENTRIES[entry](value)
    _NUMBER_ENTRIES[entry](2)


def _load_n(n):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "problem.json"
        path.write_text(json.dumps({"n": n, "ideal_generators": []}), encoding="utf-8")
        return load_problem(str(path))


# Each count, size, budget, index or exponent a caller passes: the name its
# messages give it, its minimum, and a call with the value v in its place.
_COUNT_ENTRIES = {
    "load_problem.n": ('"n"', 1, _load_n),
    "RegularIdeal": ("matrix size", 1, lambda v: RegularIdeal(v, frozenset())),
    "GroupElement.random": ("n", 1, lambda v: GroupElement.random(v, random.Random(0))),
    "shift_spec": ("shift index", 1, lambda v: shift_spec(_SPEC, v, "down")),
    "enumerate_extremal.budget": ("budget", 0, lambda v: enumerate_extremal(_TRIVIAL, budget=v)),
    "enumerate_extremal.max_size": ("max_size", 1, lambda v: enumerate_extremal(_IDEAL, max_size=v)),
    "_monomial_scan.max_degree": ("max_degree", 1, lambda v: _monomial_scan(2, v, 0)),
    "_monomial_scan.budget": ("budget", 0, lambda v: _monomial_scan(2, 1, v)),
    "check_invariance.trials": ("trials", 1, lambda v: check_invariance([], _IDEAL, trials=v)),
    "Polynomial.__pow__": ("exponent", 0, lambda v: _Y ** v),
    "full_report.trials": ("trials", 1, lambda v: full_report(_IDEAL, trials=v)),
    "full_report.max_degree": ("max_degree", 1, lambda v: full_report(_IDEAL, max_degree=v)),
    "oracle_invariants.max_degree": ("max_degree", 1, lambda v: oracle_invariants(_IDEAL, v)),
    "oracle_invariants.budget": ("budget", 0, lambda v: oracle_invariants(_TRIVIAL, 2, budget=v)),
}


@pytest.mark.parametrize("entry", sorted(_COUNT_ENTRIES))
def test_every_count_rejects_one_below_its_minimum_with_one_message(entry):
    name, low, call = _COUNT_ENTRIES[entry]
    with pytest.raises(InputError, match=f"^{name} must be at least {low}$"):
        call(low - 1)
    try:
        call(low)
    except BudgetError:
        pass  # a zero budget runs out only after the count was accepted
