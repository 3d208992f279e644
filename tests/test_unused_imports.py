"""Every module-level import in the package modules, the scripts and the tests is used.

A stdlib ``ast`` walk, so the check needs no linter: it collects the names a
module binds through top-level imports and fails for any that the module
never reads.  ``__init__.py`` reads none of its imports, since they are
re-exports: each must instead be imported from ``mmfusion``, or read as
``mmfusion.<name>``, by a top-level reader, that is a file under ``perfbench/``
or ``scripts/``, the acceptance suite or a python block of ``README.md``.
The imports of those README blocks must also run.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
INIT = REPO / "src" / "mmfusion" / "__init__.py"
MODULES = sorted(
    [p for p in (REPO / "src" / "mmfusion").glob("*.py") if p != INIT]
    + list((REPO / "scripts").glob("*.py"))
    + list((REPO / "tests").glob("*.py"))
)
TOP_LEVEL_READERS = sorted(
    list((REPO / "perfbench").glob("*.py"))
    + list((REPO / "scripts").glob("*.py"))
    + [REPO / "tests" / "test_acceptance.py"]
)


def python_blocks(markdown: str) -> list[str]:
    """The source of each fenced python block of a markdown text."""
    return re.findall(r"^```python\n(.*?)^```", markdown, flags=re.MULTILINE | re.DOTALL)


README_BLOCKS = python_blocks((REPO / "README.md").read_text(encoding="utf-8"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, mapped to the line it is bound on."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = alias.lineno
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


# ---------------------------------------------------------------- re-exports


def top_level_reads(tree: ast.Module) -> set[str]:
    """Every name a module imports from ``mmfusion`` or reads as ``mmfusion.<name>``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mmfusion" and not node.level:
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "mmfusion":
            read.add(node.attr)
    return read


def unread_reexports(init_source: str, readers: list[str]) -> list[tuple[str, int]]:
    """``(name, line)`` of each name ``init_source`` imports that no reader takes from the top level."""
    read = set().union(*(top_level_reads(ast.parse(source)) for source in readers))
    names = imported_names(ast.parse(init_source))
    return sorted((name, line) for name, line in names.items() if name not in read)


def test_every_reexport_has_a_top_level_reader():
    readers = [p.read_text(encoding="utf-8") for p in TOP_LEVEL_READERS] + README_BLOCKS
    unread = unread_reexports(INIT.read_text(encoding="utf-8"), readers)
    assert not unread, f"{len(unread)} re-exports no reader imports from mmfusion: " + ", ".join(
        f"{name} (line {line})" for name, line in unread
    )


def test_checker_flags_an_unread_reexport():
    init = (
        "from .a import Box, helper\n"
        "from .b import (\n"
        "    LIMIT,\n"
        "    spare,\n"
        ")\n"
    )
    readers = [
        "from mmfusion import Box\n",
        "import mmfusion\nmmfusion.LIMIT\n",
        # a submodule import and a module's own name read no re-export
        "from mmfusion import cli\nfrom mmfusion.a import helper\nhelper()\n",
    ]
    assert unread_reexports(init, readers) == [("helper", 1), ("spare", 4)]


def test_readme_python_blocks_import_what_exists():
    assert README_BLOCKS, "README.md has no python block"
    for source in README_BLOCKS:
        imports = [node for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
