"""Intra-package imports point down one order of layers, so no cycle can form.

Order, lowest first: geometry <- oracle <- general <- fermat <- circuit <- cli.
The oracle and the solvers it checks (``general``, ``fermat``) import nothing
from each other, so each stays an independent check on the other.
``errors``, ``config`` and ``records`` are leaves: any module may import
them and they import no sibling. The package ``__init__`` sits on top and
re-exports. No module imports a name it never uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "starsolve"
LAYERS = ("geometry", "oracle", "general", "fermat", "circuit", "cli")
LEAVES = ("errors", "config", "records")


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def package_imports(path: Path) -> set[str]:
    """Sibling modules a module imports at run time, at any nesting depth.

    Imports under ``if TYPE_CHECKING:`` only feed annotations and never
    run, so they are left out.
    """
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.level == 0 and (node.module or "").startswith("starsolve."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("starsolve."))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def test_every_module_is_placed():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS) | set(LEAVES)


@pytest.mark.parametrize("module", LAYERS + LEAVES)
def test_imports_point_down(module):
    below = set() if module in LEAVES else \
        set(LAYERS[:LAYERS.index(module)]) | set(LEAVES)
    upward = package_imports(PACKAGE / f"{module}.py") - below - {module}
    assert not upward, f"{module} imports {sorted(upward)} from above its layer"


def test_oracle_imports_no_solver():
    assert not package_imports(PACKAGE / "oracle.py") & {"general", "fermat"}


def test_solvers_import_no_oracle():
    assert [solver for solver in ("general", "fermat")
            if "oracle" in package_imports(PACKAGE / f"{solver}.py")] == []


def unused_imports(path: Path) -> set[str]:
    """Names a module imports and never mentions again.

    A name counts as used when it is read anywhere, or when a string
    constant equals it: a quoted annotation or an ``__all__`` entry.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return imported - used


@pytest.mark.parametrize("module", LAYERS + LEAVES + ("__init__",))
def test_no_unused_imports(module):
    unused = unused_imports(PACKAGE / f"{module}.py")
    assert not unused, f"{module} imports {sorted(unused)} and never uses them"
