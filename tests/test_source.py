"""Source hygiene checks that read the package's modules as syntax trees."""

import ast
import functools
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flowpath"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that its code never reads."""
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") \
                != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module's top-level functions, classes and constants, by name."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defined.update((name, node) for name in names)
    return defined


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module's top-level `_`-prefixed functions, classes and constants, by name."""
    return {name: node for name, node in definitions(tree).items()
            if name.startswith("_") and not name.endswith("__")}


def public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module's top-level functions and classes without a `_` prefix, by name."""
    return {name: node for name, node in definitions(tree).items() if not name.startswith("_")
            and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def names_read(node: ast.AST) -> set[str]:
    """Every name loaded, or read as an attribute, anywhere under `node`."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


@functools.cache
def package_reads() -> set[str]:
    """Names read in the package's modules, leaving out each definition's reads of
    its own name, so a helper that only calls itself is still unread.  The
    `__init__.py` re-exports are not reads."""
    reads = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        defined = definitions(tree)
        for node in tree.body:
            reads |= names_read(node) - {name for name, d in defined.items() if d is node}
    return reads


@functools.cache
def outside_reads() -> set[str]:
    """Names read anywhere in the tests and the benchmark package."""
    return {name for path in sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
            for name in names_read(ast.parse(path.read_text(), str(path)))}


DISPATCHED_TYPES = {"ModelDynamics", "WorldDynamics", "FunctionDynamics", "CostNet"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_type_dispatch_on_dynamics_or_costs(path):
    """Dynamics and costs are reached through their batch interfaces, never by type."""
    tree = ast.parse(path.read_text(), str(path))
    dispatches = [f"line {node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  and DISPATCHED_TYPES & names_read(node.args[1])]
    assert dispatches == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_definitions_are_read_in_the_package(path):
    defined = private_definitions(ast.parse(path.read_text(), str(path)))
    assert sorted(set(defined) - package_reads()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_definitions_are_read(path):
    defined = public_definitions(ast.parse(path.read_text(), str(path)))
    assert sorted(set(defined) - package_reads() - outside_reads()) == []
