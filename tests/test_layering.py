"""Module boundaries inside ``src/semdiff``, checked on the source text.

No module imports a ``_``-prefixed name from a sibling, and the command-line
front end leaves every choice of output format to ``render``: it imports no
per-format renderer and names no ``OutputFormat`` member. The test oracles
take only data types and ``print_om`` from ``semdiff``, the class-diagram
membership check imports nothing from the diff search it checks, and the
package's public names are pinned. No module calls ``exec``, ``eval`` or
``compile``. ``import semdiff`` loads every module of the package and none of
the costly standard modules, which only a command line needs, and every
annotation in the package still resolves with ``typing.get_type_hints``.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import typing
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_exec_eval_or_compile(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        f"{node.func.id} at line {node.lineno}" for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in {"exec", "eval", "compile"}
    ]
    assert calls == []


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


def test_the_membership_check_imports_nothing_from_the_search():
    modules = {module for module, _ in sibling_imports(SRC / "cd_semantics.py")}
    assert modules == {"cd_lang", "lexer"}


def test_public_names_are_pinned_and_resolve():
    assert sorted(semdiff.__all__) == PUBLIC_NAMES
    for name in semdiff.__all__:
        assert name in dir(semdiff)
        assert getattr(semdiff, name) is not None


# Modules that ``import semdiff`` must not load; ``dataclasses`` alone brings
# ``inspect``, ``ast``, ``dis`` and ``tokenize``.
COSTLY_MODULES = ["argparse", "dataclasses", "inspect", "pathlib", "typing"]
# The modules the benchmark's tracer finds in ``sys.modules`` by name.
TRACED_MODULES = ["lexer", "cd_lang", "ad_lang", "cd_semantics", "cd_diff", "ad_semantics",
                  "ad_diff", "render", "cli"]
FOOTPRINT = """
import io, json, sys
import semdiff
after_import = sorted(sys.modules)
code = semdiff.run(["--help"], io.StringIO(), io.StringIO())
print(json.dumps([after_import, "argparse" in sys.modules, code]))
"""


def test_import_loads_every_module_but_no_costly_standard_one():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT], env=env,
                          capture_output=True, text=True, check=True)
    after_import, argparse_after_help, code = json.loads(proc.stdout)
    assert [m for m in COSTLY_MODULES if m in after_import] == []
    assert [m for m in TRACED_MODULES if f"semdiff.{m}" not in after_import] == []
    assert argparse_after_help and code == 0


def annotated_objects():
    """Every function and class defined in a ``semdiff`` module, functions
    unwrapped from their caches, and every method, property and cached
    property those classes define."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"semdiff.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    member = getattr(member, "fget", None) or getattr(member, "func", None) or member
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif inspect.isfunction(inspect.unwrap(obj)):
                yield f"{module.__name__}.{name}", inspect.unwrap(obj)


def test_every_annotation_resolves():
    objects = list(annotated_objects())
    assert len(objects) > 200
    unresolved = []
    for name, obj in objects:
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []
