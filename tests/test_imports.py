"""Every module-level import of src/roughforms is used by its module, and
every top-level function and class is read by some module of src/.

No linter runs on this tree, so these tests guard against imports left
behind when code is deleted. A name counts as used when the module reads
it anywhere (a bare name, or the root of an attribute chain) or lists it
in __all__; `from __future__ import ...` is a compiler directive, not a
name. Library code whose only callers are tests belongs in the tests: a
definition counts as read when a statement other than the definition
itself names it (a bare name, an attribute, or a `from` import), and only
the public calculus and what the benchmark calls are kept unread.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "roughforms"

# the public calculus, and subdivision.iterate, which the benchmark calls
KEPT_UNREAD = {
    "embedding.iota_cochain",
    "forms.constant_function",
    "forms.identity_map",
    "forms.increment_form",
    "forms.zust_form",
    "gaussian.delta_Q_sobolev",
    "subdivision.iterate",
    "subdivision.whitney_partition",
}


def _unused_imports(tree):
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_module_level_imports_are_used():
    unused = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert unused == [], f"unused imports: {unused}"


def test_unused_import_scan_sees_what_it_should():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f():\n"
        "    return os.sep, d\n"
    )
    assert _unused_imports(tree) == ["np", "b"]


def _names_read(node):
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read |= {a.name for a in n.names}
    return read


def _unread_definitions(sources):
    """module.name of every top-level function or class that no statement
    of the sources, other than its own definition, reads."""
    statements = [
        (module, node)
        for module, text in sources.items()
        for node in ast.parse(text).body
    ]
    reads = [_names_read(node) for _, node in statements]
    return [
        f"{module}.{node.name}"
        for i, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(
            node.name in read for j, read in enumerate(reads) if j != i
        )
    ]


def test_every_definition_is_read_in_src():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unread = set(_unread_definitions(sources)) - KEPT_UNREAD
    assert unread == set(), f"read only outside src/: {sorted(unread)}"


def test_unread_definition_scan_sees_what_it_should():
    sources = {
        "a": (
            "def imported(): pass\n"
            "def by_attribute(): pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Unread:\n"
            "    def imported(self): pass\n"
        ),
        "b": (
            "from .a import imported\n"
            "from . import a\n"
            "def caller():\n"
            "    return a.by_attribute()\n"
        ),
    }
    assert _unread_definitions(sources) == [
        "a.recursive",
        "a.Unread",
        "b.caller",
    ]
