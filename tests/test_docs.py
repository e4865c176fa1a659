"""The README's documented entry points must stay importable from flowpath."""

import ast
import re
from pathlib import Path

import flowpath

README = Path(__file__).resolve().parents[1] / "README.md"


def entry_point_names() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [alias.name for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "flowpath"
            for alias in node.names]


def test_readme_entry_points_are_exported():
    names = entry_point_names()
    assert names
    missing = [n for n in names if not hasattr(flowpath, n)]
    assert not missing, f"README imports names flowpath does not export: {missing}"
