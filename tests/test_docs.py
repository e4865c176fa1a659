"""The README's documented entry points must stay importable from flowpath,
and its documented CLI commands must parse."""

import ast
import re
import shlex
from pathlib import Path

import flowpath
from flowpath import cli

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


def cli_command_lines() -> list[str]:
    """Every `flowpath ...` line of the README's sh blocks, comments dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line.split("#", 1)[0].strip() for block in blocks
             for line in block.splitlines()]
    return [line for line in lines if line.startswith("flowpath ")]


def test_readme_cli_commands_parse():
    commands = cli_command_lines()
    assert commands
    parser = cli.build_parser()
    for line in commands:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0]
