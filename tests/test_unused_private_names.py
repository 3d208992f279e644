"""Every name the package defines is read where it counts.

Two stdlib ``ast`` walks over one name reader, like the unused-import check
next to them, so a refactor cannot leave a dead definition behind:

* A ``_name`` bound at the top level of a ``src/mmfusion`` module must be
  loaded by some package module.  A private name that only tests read
  counts as dead.
* A public function, class or constant at the top level of a package
  module, and a public method of such a class, must be read in the
  package, ``scripts/`` or ``perfbench/``.  An import does not read a name,
  so the re-exports in ``__init__.py`` do not count.  The acceptance suite counts too, since it
  pins the names it uses.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = sorted((REPO / "src" / "mmfusion").glob("*.py"))
READERS = (
    PACKAGE
    + sorted((REPO / "scripts").glob("*.py"))
    + sorted((REPO / "perfbench").glob("*.py"))
    + [REPO / "tests" / "test_acceptance.py"]
)


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare or as an attribute of something else."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


# ------------------------------------------------------------- private names


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name != "_"


def top_level_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level def, class or assignment, mapped to its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update((name, node.lineno) for name in bound)
    return names


def private_definitions(tree: ast.Module) -> dict[str, int]:
    return {name: line for name, line in top_level_names(tree).items() if is_private(name)}


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """``(module, name, line)`` of each private definition no module in ``sources`` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set().union(*(read_names(tree) for tree in trees.values()))
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


# -------------------------------------------------------------- public names


def is_public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Each public top-level function, class or constant, and ``Class.method``, to its line."""
    names = {name: line for name, line in top_level_names(tree).items() if is_public(name)}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update(
                (f"{node.name}.{item.name}", item.lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and is_public(item.name)
            )
    return names


def uncalled_public_names(
    definitions: dict[str, str], readers: dict[str, str]
) -> list[tuple[str, str, int]]:
    """``(module, name, line)`` of each public definition no module in ``readers`` reads."""
    read = set().union(*(read_names(ast.parse(source)) for source in readers.values()))
    return sorted(
        (module, name, line)
        for module, source in definitions.items()
        for name, line in public_definitions(ast.parse(source)).items()
        if name.rpartition(".")[2] not in read
    )


def test_every_public_name_has_a_caller_outside_the_tests():
    uncalled = uncalled_public_names(
        {p.name: p.read_text(encoding="utf-8") for p in PACKAGE},
        {str(p.relative_to(REPO)): p.read_text(encoding="utf-8") for p in READERS},
    )
    assert not uncalled, "public names only tests call: " + ", ".join(
        f"{module}:{line} {name}" for module, name, line in uncalled
    )


def test_checker_flags_a_name_only_tests_call():
    package = {
        "a.py": (
            "def used():\n"
            "    return Box().size()\n"
            "def orphan():\n"
            "    return 1\n"
            "def _private():\n"
            "    return 2\n"
            "class Box:\n"
            "    def size(self):\n"
            "        return 3\n"
            "    def spare(self):\n"
            "        return 4\n"
            "    def __len__(self):\n"
            "        return 5\n"
        ),
        "__init__.py": "from .a import orphan, used\n",
    }
    readers = dict(package, **{"script.py": "import a\na.used()\n"})
    assert uncalled_public_names(package, readers) == [
        ("a.py", "Box.spare", 10),
        ("a.py", "orphan", 3),
    ]


def test_checker_flags_a_constant_only_tests_read():
    package = {
        "a.py": (
            "LIMIT = 3\n"
            "WIDTH, SPARE = 1, 2\n"
            "TABLE: dict = {}\n"
            "__all__ = ['LIMIT']\n"
            "def used():\n"
            "    return LIMIT + WIDTH\n"
        ),
        "__init__.py": "from .a import SPARE, TABLE, used\n",
    }
    readers = dict(package, **{"script.py": "import a\na.used()\n"})
    assert uncalled_public_names(package, readers) == [("a.py", "SPARE", 2), ("a.py", "TABLE", 3)]
