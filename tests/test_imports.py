"""Import hygiene: every name a module imports is used in that module, and
every top-level definition in the package is reached from its entry points."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "superjack"

# jack binds solve_exact without using it: the benchmark's tracer test
# (perfbench/test_perfbench.py::test_tracer_wraps_every_binding) reads it
ALLOWED = {("jack", "solve_exact")}


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = {name for name in _unused_imports(ast.parse(path.read_text()))
              if (path.stem, name) not in ALLOWED}
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def test_unused_import_is_caught():
    tree = ast.parse("from fractions import Fraction\nimport math\n"
                     "def f(x: Fraction):\n    return x\n")
    assert _unused_imports(tree) == {"math"}


# documented in README but called by no module in the package
ENTRY_POINTS = {"main", "integral_form", "clear_caches"}


def _references(node: ast.AST) -> set[str]:
    """Names, attribute names and string constants under the node."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs.add(sub.value)
        elif isinstance(sub, ast.alias):
            refs.add(sub.name)
    return refs


def _unreached(modules: dict[str, ast.Module]) -> set[str]:
    """Top-level defs and classes that no walk from the roots reaches.

    The roots are every module-level statement other than a definition (and,
    outside ``__init__``, other than an import), plus ENTRY_POINTS.  A reached
    name reaches everything its definitions refer to; definitions are matched
    by name across modules.
    """
    defs: dict[str, list[ast.AST]] = {}
    todo = set(ENTRY_POINTS)
    for stem, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append(stmt)
            elif stem == "__init__" or not isinstance(
                    stmt, (ast.Import, ast.ImportFrom)):
                todo |= _references(stmt)
    reached = set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in defs.get(name, ()):
            todo |= _references(node)
    return set(defs) - reached


def test_every_definition_has_a_caller():
    modules = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    unreached = _unreached(modules)
    assert not unreached, f"defined in src but never reached: {sorted(unreached)}"


def test_unreached_definition_is_caught():
    modules = {
        "__init__": ast.parse("from .a import main\n"),
        "a": ast.parse("TABLE = {'x': 'f'}\n"
                       "def main():\n    return g()\n"
                       "def f():\n    pass\n"
                       "def g():\n    pass\n"
                       "def h():\n    return f()\n"),
    }
    assert _unreached(modules) == {"h"}


def test_only_run_entry_points_take_allow_noncoprime():
    # coprimality is a hypothesis of a run, checked once where it starts;
    # admissibility and the ideal layer compute for any (k, r)
    takers = {node.name for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef)
              and "allow_noncoprime" in {a.arg for a in node.args.args
                                         + node.args.kwonlyargs}}
    assert takers == {"check_kr", "suite_stability", "suite_regularity"}


def test_ideals_expands_no_jack():
    # every check in ideals reads P_L through its m-coordinates: columns
    # per monomial, never the orbit terms of the whole polynomial, and dim F
    # reads the coincidence columns, never an expanded monomial
    tree = ast.parse((SRC / "ideals.py").read_text())
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not called & {"polynomial", "from_mbasis", "monomial_msym"}
