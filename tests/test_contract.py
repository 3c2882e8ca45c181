"""Source-level contract of the library.

Every public function returns an exact object or raises a typed error from
infoval.errors: no bare RuntimeError and no assert (which vanishes under
python -O and raises AssertionError otherwise). Every number is exact, so
no float literal appears in the source. The forward geometry comes from one
lifted double description, so no library module imports the exact LP in
linprog.py, which stays only as a test oracle.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "infoval").glob("*.py"))


def _violations(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name) and target.id == "RuntimeError":
                found.append((node.lineno, "raise RuntimeError"))
        elif isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
    return found


def _linprog_imports(tree: ast.AST) -> list[int]:
    """Lines that import the linprog module or a name from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [f"{module}.{alias.name}" for alias in node.names] + [module]
        else:
            continue
        if any("linprog" in name.split(".") for name in names):
            found.append(node.lineno)
    return found


def test_sources_found():
    assert any(path.name == "identification.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_bare_runtime_error_assert_or_float(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _violations(tree) == []


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "linprog.py"], ids=lambda path: path.name
)
def test_library_does_not_import_linprog(path):
    assert _linprog_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_scanner_catches_each_kind():
    source = "raise RuntimeError('x')\nraise RuntimeError\nassert True\nx = 0.5\n"
    kinds = [kind for _, kind in _violations(ast.parse(source))]
    assert kinds == ["raise RuntimeError", "raise RuntimeError", "assert", "float literal 0.5"]
    source = (
        "from . import linprog\nfrom .linprog import maximize\nimport infoval.linprog\n"
        "from infoval import linprog as lp\nfrom .geometry import vertices_of\nimport math\n"
    )
    assert _linprog_imports(ast.parse(source)) == [1, 2, 3, 4]
