"""Every public function, class and method of the package has a caller outside the tests.

A stdlib ``ast`` walk, like the private-name check next to it: it collects the
public functions and classes at the top level of each ``src/mmfusion`` module,
and the public methods of those classes, and fails for any whose name nothing
reads in the package, ``scripts/`` or ``perfbench/``.  An import does not read a
name, so the re-exports in ``__init__.py`` do not count.  The acceptance suite
counts too, since it pins the names it uses.
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


def is_public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Each public top-level function and class, and ``Class.method``, mapped to its line."""
    names = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if is_public(node.name):
            names[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            names.update(
                (f"{node.name}.{item.name}", item.lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and is_public(item.name)
            )
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare or as an attribute of something else."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


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
