"""Module boundaries inside ``src/semdiff``, checked on the source text.

No module imports a ``_``-prefixed name from a sibling, and the command-line
front end leaves every choice of output format to ``render``: it imports no
per-format renderer and names no ``OutputFormat`` member. The test oracles
take only data types and ``print_om`` from ``semdiff``, and the package's
public names are pinned.
"""

import ast
from pathlib import Path

import pytest

import semdiff

SRC = Path(__file__).resolve().parents[1] / "src" / "semdiff"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
PER_FORMAT_RENDERERS = {"print_om", "print_trace", "diff_json", "_json_dump"}
ORACLE_IMPORTS = {"ObjectModel", "Trace", "Nfa", "EPSILON", "print_om"}
PUBLIC_NAMES = [
    "ActivityDiagram", "ClassDiagram", "Diagnostic", "DiffResult", "DomainMismatchError",
    "HistoryRow", "Multiplicity", "ObjectModel", "OutputFormat", "ParseError", "Trace",
    "UnsafeMarkingError", "Verdict", "VerdictValue", "Violation", "ViolationKind", "accepts",
    "addiff", "build_config_nfa", "cddiff", "compare_ad", "compare_cd", "history_report",
    "input_valuations", "is_instance", "main", "parse_ad", "parse_cd", "parse_om",
    "parse_trace", "print_ad", "print_cd", "print_om", "print_trace", "render_om",
    "render_trace", "run",
]


def sibling_imports(path):
    """(module, name) for every name imported from another semdiff module;
    a plain ``import semdiff...`` yields the module with name None."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "semdiff"
        ):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "semdiff":
                    yield alias.name, None


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


def test_oracles_import_only_data_types_from_semdiff():
    names = {name for _, name in sibling_imports(ORACLES)}
    assert names and names <= ORACLE_IMPORTS


def test_public_names_are_pinned_and_resolve():
    assert sorted(semdiff.__all__) == PUBLIC_NAMES
    for name in semdiff.__all__:
        assert name in dir(semdiff)
        assert getattr(semdiff, name) is not None
