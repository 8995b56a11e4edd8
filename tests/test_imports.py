"""Import hygiene: every name a module imports is used in that module."""

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
