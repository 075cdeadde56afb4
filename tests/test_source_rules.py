"""Library postconditions are explicit errors: an ``assert`` disappears
under ``python -O``, and an AssertionError escapes the CLI's error JSON.
The property suite's own test-style checks are exempt."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import stallings

_PACKAGE = Path(stallings.__file__).resolve().parent
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "suite.py")


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
