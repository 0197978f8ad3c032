"""Intra-package imports point down one order of layers, so no cycle can form.

Order, lowest first: kernel <- oracle_kernel <- geometry <- oracle <-
general <- fermat <- circuit <- cli. ``kernel`` holds the float kernels and
imports only the leaves ``errors`` and ``config``; ``oracle_kernel`` holds
only what ``synth`` runs, the planted draw and forward map, and imports
only ``kernel``. The oracle and the solvers it checks (``general``,
``fermat``) import nothing from each other, and neither oracle module
reads a solver formula in ``kernel``, so each stays an independent check
on the other; nor does ``verify_record`` read the feasibility predicate
that ``solve`` decides by. ``errors``, ``config`` and ``records`` are leaves: any module may import them and they
import no sibling. The package ``__init__`` sits on top and re-exports. No
module imports a name it never uses, and no module defines a name that
nothing in the package reads and the package does not export, nor a
method or property on a class the package does not export that nothing
in the package reads as an attribute.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import starsolve

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "starsolve"
LAYERS = ("kernel", "oracle_kernel", "geometry", "oracle", "general", "fermat",
          "circuit", "cli")
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


def test_kernel_imports_only_errors_and_config():
    assert package_imports(PACKAGE / "kernel.py") <= {"errors", "config"}


# The solver formulas in ``kernel``, which share a module with the
# primitives the oracle reads.
SOLVER_KERNELS = {"circle_distances", "check_interior_point",
                  "line_voltage_kernel", "_joint_vertex_distance"}


def mentioned(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_oracle_imports_no_solver():
    assert not package_imports(PACKAGE / "oracle.py") & {"general", "fermat"}
    assert package_imports(PACKAGE / "oracle_kernel.py") <= {"kernel"}
    for module in ("oracle", "oracle_kernel"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert not mentioned(tree) & SOLVER_KERNELS, module


def test_oracle_kernel_holds_only_what_synth_runs():
    # Each function it defines is called by the CLI or by another of its own;
    # the library's oracle entries live in ``oracle``.
    tree = ast.parse((PACKAGE / "oracle_kernel.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    read = names_read(PACKAGE / "cli.py") | names_read(PACKAGE / "oracle_kernel.py")
    assert defined and defined <= read, sorted(defined - read)


def test_verify_tests_a_failure_status_by_its_own_angles():
    # A row that says no star point exists is checked by verify's own
    # angle margin, not by the predicate that decided it in solve.
    functions = {node.name: node
                 for node in ast.parse((PACKAGE / "cli.py").read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    assert "_interior_margin" in mentioned(functions["verify_record"])
    for name in ("verify_record", "_interior_margin"):
        assert "check_interior_point" not in mentioned(functions[name]), name


def test_solvers_import_no_oracle():
    assert [solver for solver in ("general", "fermat")
            if {"oracle", "oracle_kernel"} & package_imports(PACKAGE / f"{solver}.py")
            ] == []


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


def module_level_names(path: Path) -> set[str]:
    """Functions, classes and constants a module defines at its top level;
    dunder names such as ``__all__`` and ``__version__`` left out."""
    names: set[str] = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def names_read(path: Path) -> set[str]:
    return {node.id for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_defined_name_is_read_or_exported():
    read = set(starsolve.__all__).union(*map(names_read, PACKAGE.glob("*.py")))
    dead = sorted(f"{module}.{name}" for module in LAYERS + LEAVES
                  for name in module_level_names(PACKAGE / f"{module}.py") - read)
    assert not dead, f"defined, never read in the package and not exported: {dead}"


def class_members(path: Path) -> set[tuple[str, str]]:
    """``(class, member)`` for each method and property of the classes a
    module defines at its top level; dunder methods left out."""
    return {(node.name, member.name)
            for node in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(node, ast.ClassDef)
            for member in node.body
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (member.name.startswith("__") and member.name.endswith("__"))}


def attributes_read(path: Path) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


# argparse calls the parser's error() itself.
CALLED_FROM_OUTSIDE = {"cli._Parser.error"}


def test_every_class_member_is_read_or_exported():
    read = set().union(*map(attributes_read, PACKAGE.glob("*.py")))
    dead = sorted({f"{module}.{cls}.{member}" for module in LAYERS + LEAVES
                   for cls, member in class_members(PACKAGE / f"{module}.py")
                   if cls not in starsolve.__all__ and member not in read}
                  - CALLED_FROM_OUTSIDE)
    assert not dead, f"members of unexported classes, never read in the package: {dead}"
