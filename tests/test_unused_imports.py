"""Every module-level import in the package modules, the scripts and the tests is used.

A stdlib ``ast`` walk, so the check needs no linter: it collects the names a
module binds through top-level imports and fails for any that the module
never reads.  ``__init__.py`` is skipped, since its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(
    [p for p in (REPO / "src" / "mmfusion").glob("*.py") if p.name != "__init__.py"]
    + list((REPO / "scripts").glob("*.py"))
    + list((REPO / "tests").glob("*.py"))
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, mapped to the line it is bound on."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((name, line) for name, line in imported_names(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for name, line in unused
    )


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from typing import Mapping, Sequence\n"
        "def f(x: 'Mapping') -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == [("Sequence", 4), ("system", 3)]
