"""Source hygiene checks that read the package's modules as syntax trees."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flowpath"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module's top-level `_`-prefixed functions, classes and constants, by name."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defined.update((name, node) for name in names
                       if name.startswith("_") and not name.endswith("__"))
    return defined


def names_read(node: ast.AST) -> set[str]:
    """Every name loaded, or read as an attribute, anywhere under `node`."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def package_reads() -> set[str]:
    """Names read in the package, leaving out each private definition's reads of
    its own name, so a helper that only calls itself is still unread."""
    reads = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        defined = private_definitions(tree)
        for node in tree.body:
            reads |= names_read(node) - {name for name, d in defined.items() if d is node}
    return reads


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_definitions_are_read_in_the_package(path):
    defined = private_definitions(ast.parse(path.read_text(), str(path)))
    assert sorted(set(defined) - package_reads()) == []
