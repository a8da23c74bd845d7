"""Module boundaries inside ``src/semdiff``, checked on the source text.

No module imports a ``_``-prefixed name from a sibling, and the command-line
front end leaves every choice of output format to ``render``: it imports no
per-format renderer and names no ``OutputFormat`` member.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "semdiff"
PER_FORMAT_RENDERERS = {"print_om", "print_trace", "diff_json", "_json_dump"}


def sibling_imports(path):
    """(module, name) for every name imported from another semdiff module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "semdiff"
        ):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    private = [f"{module}.{name}" for module, name in sibling_imports(path) if name.startswith("_")]
    assert private == []


def test_cli_imports_no_per_format_renderer():
    names = {name for _, name in sibling_imports(SRC / "cli.py")}
    renderers = {
        n for n in names
        if n in PER_FORMAT_RENDERERS or n.startswith(("om_", "trace_"))
    }
    assert renderers == set()


def test_cli_names_no_output_format_member():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    members = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "OutputFormat"
    ]
    assert members == []
