"""Every name defined in `src/orthocount` is reached by a caller.

The scan parses each module with `ast` and lists its top-level functions and
classes, the methods of its classes and their class-level constants.  The
roots are the console script `cli.main`, the `__init__` exports, the
module-level code of every module and, separately, `perfbench/*.py`, which
is only read here.  A definition is reached when a reached piece of code
uses its identifier, and then so is every identifier it uses.  Identifiers
are matched by name: a bare name, an attribute (`x.name`), an imported
name, a keyword argument, and in `perfbench` the words of string constants
(it wraps functions named in strings).  Dunder methods run whenever their
class is used.  The tests are no callers: an oracle that only a test
compares against lives in the tests.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orthocount"
PERFBENCH = ROOT / "perfbench"

# Forms of the paper's budget inequality with no caller yet: the truncation
# cap and the exact contradiction shape, until a `budget compare` subcommand
# prints them.
BUDGET_PENDING = {
    "budget.truncation_cap",
    "budget.ContradictionShape",
    "budget.contradiction_shape",
}

# Reached only through the benchmark (`perfbench/`), which cannot change
# together with the package.  `Coefficient.pi_half` is not listed: a local
# variable of `_coeff_common` has its name.
PERFBENCH_ONLY = {
    "eisenstein.Coefficient.is_exact",
    "eisenstein.Coefficient.sqrt_arg",
    "eisenstein.Coefficient.exact_fraction",
    "valcomb.predicted_index",
    "valcomb._windows",
    "valcomb.DecaySchedule",
    "valcomb.build_schedule",
    "_enum.short_vectors",
    "crystal.superspecial_F",
    "crystal.monomial_substitution",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _identifiers(node, strings=False):
    """Every identifier the subtree uses: names, attributes, imported names,
    keyword arguments and, with strings, the words of string constants."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.keyword) and sub.arg:
            found.add(sub.arg)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", sub.value))
    return found


def _definitions():
    """(qualified name, identifier, identifiers used) for every top-level
    def and class of the package and every method of its classes, and the
    identifiers of the code that runs whatever is called: module-level
    statements, the `__init__` exports and the console script `cli.main`.
    A class's own identifiers are those of its body outside its methods,
    plus its dunder methods, which run whenever the class is used."""
    defs, roots = [], {"main"}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((f"{mod}.{node.name}", node.name, _identifiers(node)))
            elif isinstance(node, ast.ClassDef):
                own = set()
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not _is_dunder(item.name):
                        defs.append((f"{mod}.{node.name}.{item.name}", item.name,
                                     _identifiers(item)))
                    elif isinstance(item, ast.Assign) and not any(
                            _is_dunder(t.id) for t in item.targets):
                        for t in item.targets:
                            defs.append((f"{mod}.{node.name}.{t.id}", t.id,
                                         _identifiers(item.value)))
                    else:
                        own |= _identifiers(item)
                for sub in node.decorator_list + node.bases:
                    own |= _identifiers(sub)
                defs.append((f"{mod}.{node.name}", node.name, own))
            elif mod == "__init__" or not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _identifiers(node)
    return defs, roots


def _reached(defs, roots):
    """The qualified names reached from the root identifiers, following the
    identifiers each reached definition uses, matched by name."""
    names, reached, changed = set(roots), set(), True
    while changed:
        changed = False
        for qual, name, uses in defs:
            if qual not in reached and name in names:
                reached.add(qual)
                names |= uses
                changed = True
    return reached


def _scan():
    defs, roots = _definitions()
    bench = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        bench |= _identifiers(ast.parse(path.read_text(), str(path)), strings=True)
    by_src = _reached(defs, roots)
    by_bench = _reached(defs, roots | bench)
    kept = {name.split(".")[-1] for name in BUDGET_PENDING}
    by_all = _reached(defs, roots | bench | kept)
    return {q for q, _, _ in defs}, by_src, by_bench, by_all


@pytest.fixture(scope="module")
def scan():
    return _scan()


def test_every_name_is_reached(scan):
    names, _, _, by_all = scan
    assert sorted(names - by_all) == []


def test_perfbench_only_list_is_exact(scan):
    _, by_src, by_bench, _ = scan
    assert by_bench - by_src == PERFBENCH_ONLY


def test_budget_allowlist_is_exact(scan):
    names, _, by_bench, _ = scan
    assert names - by_bench == BUDGET_PENDING
