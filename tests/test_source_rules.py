"""Library postconditions are explicit errors: an ``assert`` disappears
under ``python -O``, and an AssertionError escapes the CLI's error JSON.
The rule covers every module of the package, the property suite included."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import stallings

_PACKAGE = Path(stallings.__file__).resolve().parent
_MODULES = sorted(_PACKAGE.glob("*.py"))


def _asserts(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


# pytest.fail rather than assert, so that the rule holds under -O as well.


def test_every_library_module_is_checked():
    if len(_MODULES) < 10:
        pytest.fail(f"only {len(_MODULES)} modules found under {_PACKAGE}")


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_library_module_has_no_assert(path):
    lines = _asserts(ast.parse(path.read_text(), filename=str(path)))
    if lines:
        pytest.fail(f"{path.name}: assert or AssertionError at lines {lines}")


def test_the_rule_sees_both_forms():
    tree = ast.parse("assert x\nraise AssertionError\nraise AssertionError('no')\n")
    if _asserts(tree) != [1, 2, 3]:
        pytest.fail(f"rule found {_asserts(tree)}, not [1, 2, 3]")


# Every function, method and class the library defines is named somewhere:
# in an import, an attribute, a name or a string constant (the benchmark's
# tracer wraps functions by string) of src/, tests/ or bench/. Dunders are
# called by Python itself, and CLI callbacks by click through their
# decorator.

_ROOT = Path(__file__).resolve().parents[1]
_SOURCES = sorted(
    p for d in ("src", "tests", "bench") for p in (_ROOT / d).rglob("*.py")
)


def _is_cli_callback(node: ast.AST) -> bool:
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if isinstance(f, ast.Attribute) and f.attr in ("command", "group"):
            return True
    return False


def _unused_definitions(trees: dict[str, ast.AST]) -> list[str]:
    named: set[str] = set()
    defined: list[tuple[str, str, int]] = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if path.startswith("src/") and not dunder and not _is_cli_callback(node):
                    defined.append((node.name, path, node.lineno))
    return [f"{path}:{line} {name}" for name, path, line in defined if name not in named]


def test_every_library_definition_is_named_somewhere():
    if not any(p.name == "tracing.py" for p in _SOURCES):
        pytest.fail(f"bench/tracing.py not found under {_ROOT}")
    trees = {
        p.relative_to(_ROOT).as_posix(): ast.parse(p.read_text(), filename=str(p))
        for p in _SOURCES
    }
    unused = _unused_definitions(trees)
    if unused:
        pytest.fail(f"defined but named nowhere: {unused}")


def test_the_naming_rule_sees_definitions_and_uses():
    trees = {
        "src/m.py": ast.parse(
            "import click\n"
            "def used(): pass\n"
            "def by_string(): pass\n"
            "def dead(): pass\n"
            "class Dead:\n"
            "    def __init__(self): pass\n"
            "    def method(self): pass\n"
            "@main.command('x')\n"
            "def callback(): pass\n"
        ),
        "tests/t.py": ast.parse("from m import used\nx.method()\nwrap('by_string')\n"),
    }
    found = [entry.split()[1] for entry in _unused_definitions(trees)]
    if found != ["dead", "Dead"]:
        pytest.fail(f"rule found {found}, not ['dead', 'Dead']")


# A module-level import that no code of its module reads is dead weight;
# ``__init__`` imports to re-export, and ``__future__`` imports are
# directives.


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line} {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize(
    "path", [p for p in _MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_library_module_has_no_unused_import(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    if unused:
        pytest.fail(f"{path.name}: unused imports at {unused}")


def test_the_import_rule_sees_unused_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Any, Callable\n"
        "from .graphs import fold\n"
        "def f(x: Callable) -> None:\n"
        "    return os.path.join(fold(x))\n"
    )
    if _unused_imports(tree) != ["3 np", "4 Any"]:
        pytest.fail(f"rule found {_unused_imports(tree)}, not ['3 np', '4 Any']")


# The naming rule counts the strings of ``__all__`` as uses, so it cannot see
# a stale export; this one can.


def test_all_lists_exactly_the_imported_names():
    init = _PACKAGE / "__init__.py"
    imported = [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init.read_text(), filename=str(init)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    exported = list(stallings.__all__)
    if sorted(exported) != sorted(imported) or len(set(exported)) != len(exported):
        pytest.fail(f"__all__ differs from the imports: {sorted(set(exported) ^ set(imported))}")
    unbound = [name for name in exported if not hasattr(stallings, name)]
    if unbound:
        pytest.fail(f"__all__ names unbound attributes: {unbound}")


# The benchmark's tracer wraps library functions by name, and a name that is
# gone only shows up as an absent wrap when bench/tests runs; tier-1 runs
# tests/ only, so it reads the tracer's WRAPS list itself.


def _traced_names() -> list[tuple[str, str]]:
    path = _ROOT / "bench" / "tracing.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    pytest.fail(f"no WRAPS list in {path}")


def test_every_traced_name_resolves():
    names = _traced_names()
    if len(names) < 30:
        pytest.fail(f"only {len(names)} traced names read from bench/tracing.py")
    absent = []
    for module, attr in names:
        owner = importlib.import_module(f"stallings.{module}")
        for part in attr.split("."):  # "FpMatrix.solve" names a method
            owner = getattr(owner, part, None)
        if owner is None:
            absent.append(f"{module}.{attr}")
    if absent:
        pytest.fail(f"traced names missing from the library: {absent}")
