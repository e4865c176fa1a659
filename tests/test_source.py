"""Source hygiene checks that read the package's modules as syntax trees."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flowpath"


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


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []
