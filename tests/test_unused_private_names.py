"""Every name the package defines is read where it counts.

Stdlib ``ast`` walks over one name reader, like the unused-import check
next to them, so a refactor cannot leave a dead definition behind:

* A ``_name`` bound at the top level of a ``src/mmfusion`` module must be
  loaded by some package module.  A private name that only tests read
  counts as dead.
* A public function, class or constant at the top level of a package
  module, and a public method of such a class, must be read in the
  package, ``scripts/`` or ``perfbench/``.  An import does not read a name,
  so the re-exports in ``__init__.py`` do not count.  The acceptance suite counts too, since it
  pins the names it uses.
* No module under ``scripts/`` or ``perfbench/`` imports a ``_name`` from
  ``mmfusion``: what runs the package from outside reads its public names only.

A walk over ``errors.py`` keeps the error types documented and live: README
names each class, and each class with no subclass is raised in the package,
by a ``raise`` or as the error type a call hands to the helper that raises it.

A last walk keeps each head fact in one home: outside docstrings, a string
that names a head kind appears only in the head table and ``FUSION_SETS``,
and one that names an attention parameter only in the attention-parameter
table and ``attention.py``.
"""

import ast
from dataclasses import fields
from pathlib import Path

from mmfusion.attention import AttentionParams
from mmfusion.fusion import HEAD_KINDS

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


# ---------------------------------------------------------- private imports


def private_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of each private name the module imports from ``mmfusion``."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mmfusion"
        for alias in node.names
        if is_private(alias.name)
    )


def test_no_script_imports_a_private_name():
    outside = sorted((REPO / "scripts").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    found = [(path.relative_to(REPO), line, name)
             for path in outside
             for line, name in private_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, "private names imported from mmfusion: " + ", ".join(
        f"{path}:{line} {name}" for path, line, name in found
    )


def test_checker_flags_a_private_import():
    source = (
        "from mmfusion.training import TrainConfig, _check\n"
        "from mmfusion import _HIDDEN as shown\n"
        "from tracer import _local\n"
        "from . import _sibling\n"
    )
    assert private_imports(ast.parse(source)) == [(1, "_check"), (2, "_HIDDEN")]


# --------------------------------------------------------------- error types


def class_bases(tree: ast.Module) -> dict[str, set[str]]:
    """Each top-level class of the module, mapped to the names of its bases."""
    return {node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
            for node in tree.body if isinstance(node, ast.ClassDef)}


def raised_names(tree: ast.Module) -> set[str]:
    """Names read in a ``raise`` statement, or passed bare to a call, as an error type is
    passed to a helper that raises it (``_check_type(..., DatasetError)``)."""
    raised = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised |= read_names(node.exc)
        elif isinstance(node, ast.Call):
            raised.update(arg.id for arg in node.args + [kw.value for kw in node.keywords]
                          if isinstance(arg, ast.Name))
    return raised


def unraised_leaf_errors(errors_source: str, sources: dict[str, str]) -> list[str]:
    """The classes of ``errors_source`` that no class derives from and no module raises."""
    bases = class_bases(ast.parse(errors_source))
    parents = set().union(*bases.values())
    raised = set().union(*(raised_names(ast.parse(source)) for source in sources.values()))
    return sorted(name for name in bases if name not in parents and name not in raised)


ERRORS = REPO / "src" / "mmfusion" / "errors.py"


def test_every_error_type_is_named_in_the_readme():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    unnamed = [name for name in class_bases(ast.parse(ERRORS.read_text(encoding="utf-8")))
               if f"`{name}`" not in readme]
    assert not unnamed, "error types README does not name: " + ", ".join(unnamed)


def test_every_leaf_error_type_is_raised_in_the_package():
    unraised = unraised_leaf_errors(ERRORS.read_text(encoding="utf-8"),
                                    {p.name: p.read_text(encoding="utf-8") for p in PACKAGE})
    assert not unraised, "error types nothing raises: " + ", ".join(unraised)


def test_checker_flags_an_error_type_nothing_raises():
    errors = (
        "class Base(Exception): pass\n"
        "class Raised(Base): pass\n"
        "class Handed(Base): pass\n"
        "class Caught(Base): pass\n"
        "class Spare(Base): pass\n"
    )
    module = (
        "def check(x, error=Caught):\n"
        "    if x:\n"
        "        raise Raised(f'{x}')\n"
        "    _check_type('x', x, int, Handed)\n"
        "    try:\n"
        "        pass\n"
        "    except Caught:\n"
        "        pass\n"
    )
    # Base has subclasses; a default value or an except clause raises nothing
    assert unraised_leaf_errors(errors, {"a.py": module}) == ["Caught", "Spare"]


# ------------------------------------------------------------ head-fact homes

# the top-level tables of the package that may name each kind of fact
KIND_TABLES = {"_FINAL_COLUMNS", "FUSION_SETS"}
ATTENTION_TABLES = {"_ATTENTION_PARAMS"}


def stray_constants(source: str, names: set[str], tables: set[str]) -> list[tuple[int, str]]:
    """``(line, value)`` of each string in ``names`` outside the top-level ``tables`` and docstrings."""
    tree = ast.parse(source)
    allowed = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if {t.id for t in targets if isinstance(t, ast.Name)} & tables:
            allowed.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            allowed.add(id(node.body[0].value))
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names and id(node) not in allowed
    )


def test_head_facts_are_named_only_in_their_tables():
    kinds, attention = set(HEAD_KINDS), {field.name for field in fields(AttentionParams)}
    stray = []
    for path in PACKAGE:
        source = path.read_text(encoding="utf-8")
        stray += [(path.name, line, value) for line, value in stray_constants(source, kinds, KIND_TABLES)]
        if path.name != "attention.py":
            stray += [(path.name, line, value)
                      for line, value in stray_constants(source, attention, ATTENTION_TABLES)]
    assert not stray, "head facts named outside their tables: " + ", ".join(
        f"{module}:{line} {value!r}" for module, line, value in stray
    )


def test_checker_flags_a_stray_head_fact():
    source = (
        '"""Docs may say wq."""\n'
        "TABLE = {'wq': 1}\n"
        "def run(p):\n"
        "    'wq'\n"
        "    return p['wq'] if p.get('kind') != 'wq' else f'{p} wq'\n"
    )
    # the docstrings and the table pass; an f-string's text is no name
    assert stray_constants(source, {"wq"}, {"TABLE"}) == [(5, "wq"), (5, "wq")]
