"""Every name a package module imports is used in that module, and every name
it loads is bound in it: imported, defined, assigned, an argument, an
``except ... as`` name or a builtin."""

import ast
import builtins
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "towergen"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.AST) -> dict:
    """Name -> line of every name an import statement binds, ``__future__`` aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = _imported(tree).items()
    return sorted(f"{name} (line {line})" for name, line in imported if name not in used)


def unbound_names(source: str) -> list:
    """Names the module loads but binds nowhere, scopes ignored.

    Annotations count as loads even under ``from __future__ import
    annotations``, which only defers their evaluation.
    """
    tree = ast.parse(source)
    bound = set(dir(builtins)) | {"__file__"} | set(_imported(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    loads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            loads.setdefault(node.id, node.lineno)
    return sorted(f"{name} (line {line})" for name, line in loads.items())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbound_names(path):
    assert unbound_names(path.read_text()) == []


def test_guard_flags_an_unused_name():
    source = "from .units import rank, subrank\nimport numpy as np\n\nx = subrank((2,))\n"
    assert unused_imports(source) == ["np (line 2)", "rank (line 1)"]


def test_guard_flags_a_name_never_bound():
    """An annotation naming an unimported type, which ``from __future__ import
    annotations`` keeps from raising NameError at run time."""
    source = (
        "from __future__ import annotations\n"
        "from typing import List, Tuple\n\n"
        "def f(keys: List[Tuple[int, int]], scale):\n"
        "    out: Dict[Tuple[int, int], float] = {k: scale for k in keys}\n"
        "    try:\n"
        "        return out, len(out)\n"
        "    except TypeError as exc:\n"
        "        raise ValueError(missing) from exc\n"
    )
    assert unbound_names(source) == ["Dict (line 5)", "missing (line 9)"]
