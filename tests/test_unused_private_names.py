"""Every module-level private name in the package is read somewhere in the package.

A stdlib ``ast`` walk, like the unused-import check next to it: it collects
the ``_name`` bindings at the top level of each ``src/mmfusion`` module and
fails for any that no package module ever loads, so a refactor cannot leave a
dead helper behind.  A private name that only tests read counts as dead.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = sorted((REPO / "src" / "mmfusion").glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name != "_"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private name bound by each top-level def, class or assignment, mapped to its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update((name, node.lineno) for name in bound if is_private(name))
    return names


def loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare or as an attribute of something else."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
    return loaded


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """``(module, name, line)`` of each private definition no module in ``sources`` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set().union(*(loaded_names(tree) for tree in trees.values()))
    return sorted(
        (module, name, line)
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in loaded
    )


def test_every_private_name_is_read_in_the_package():
    unread = unread_private_names({p.name: p.read_text(encoding="utf-8") for p in PACKAGE})
    assert not unread, "private names nothing reads: " + ", ".join(
        f"{module}:{line} {name}" for module, name, line in unread
    )


def test_checker_flags_an_unread_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_dead, _SPARE = 1, 2\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _orphan():\n"
            "    return _orphan\n"
            "class _Box:\n"
            "    pass\n"
            "__all__ = ['_Box']\n"
        ),
        "b.py": "from a import _helper\nimport a\nx = _helper() + a._SPARE\n",
    }
    # _orphan reads itself, which the walk cannot tell from a caller
    assert unread_private_names(sources) == [("a.py", "_Box", 7), ("a.py", "_dead", 2)]
