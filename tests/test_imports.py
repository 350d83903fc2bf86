"""Every module-level import of src/roughforms is used by its module, and
every top-level function and class, and every method and property of a
top-level class, is read by some module of src/.

No linter runs on this tree, so these tests guard against imports left
behind when code is deleted. A name counts as used when the module reads
it anywhere (a bare name, or the root of an attribute chain) or lists it
in __all__; `from __future__ import ...` is a compiler directive, not a
name. Library code whose only callers are tests belongs in the tests: a
definition counts as read when a statement other than the definition
itself names it (a bare name, an attribute, a `from` import, or a string
constant that is an identifier, as a `getattr` name is), and only the
public calculus and what the benchmark calls are kept unread. Dunder
methods are called by Python itself and are not scanned.
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

# methods and properties read only by the tests, each with why it stays
KEPT_UNREAD_METHODS = {
    # the exact cube integral the Gaussian tests check quadrature against
    "gaussian.FieldSample.integral_cube",
    # one simplex's children as Simplex objects, the subdivision tests' view
    "subdivision.SubdivisionScheme.children",
    # the observable proxy for strong regularity that the tests assert
    "subdivision.SubdivisionStats.strongly_regular_observed",
    # the unit cube, the sampling region of the norm and germ tests
    "sampling.Box.unit",
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
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if n.value.isidentifier():
                read.add(n.value)
    return read


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _units(sources):
    """(qualified name or None, index of its top-level statement, names
    read) for every top-level statement, a top-level class split into its
    header and its body statements; methods and properties but dunders are
    named module.Class.name."""
    statements = [
        (module, node)
        for module, text in sources.items()
        for node in ast.parse(text).body
    ]
    units = []
    for i, (module, node) in enumerate(statements):
        name = f"{module}.{node.name}" if isinstance(node, _DEFS) else None
        if not isinstance(node, ast.ClassDef):
            units.append((name, i, _names_read(node)))
            continue
        header = node.bases + node.keywords + node.decorator_list
        units.append((name, i, set().union(*map(_names_read, header))))
        for item in node.body:
            method = isinstance(item, _FUNCS) and not (
                item.name.startswith("__") and item.name.endswith("__")
            )
            qualified = f"{name}.{item.name}" if method else None
            units.append((qualified, i, _names_read(item)))
    return units


def _unread_definitions(sources):
    """module.name of every top-level function or class, and
    module.Class.name of every method or property of a top-level class but
    dunders, that no statement of the sources, other than its own
    definition, reads."""
    units = _units(sources)
    unread = []
    for name, top, _ in units:
        if name is None or name in unread:
            continue
        # a class's own definition is its whole statement, a method's its
        # own body statements (a property's getter and setter alike)
        top_level = name.count(".") == 1
        others = [
            read
            for other, i, read in units
            if (i != top if top_level else other != name)
        ]
        if not any(name.rsplit(".", 1)[1] in read for read in others):
            unread.append(name)
    return unread


def test_every_definition_is_read_in_src():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    kept = KEPT_UNREAD | KEPT_UNREAD_METHODS
    unread = set(_unread_definitions(sources)) - kept
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


def test_unread_method_scan_sees_what_it_should():
    sources = {
        "a": (
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.grow()\n"
            "    def grow(self): pass\n"
            "    def recursive(self):\n"
            "        return self.recursive()\n"
            "    @property\n"
            "    def unread(self): pass\n"
            "    def by_getattr(self): pass\n"
            "    def by_other_module(self): pass\n"
        ),
        "b": (
            "from .a import Box\n"
            "def caller(box):\n"
            "    return getattr(box, 'by_getattr'), box.by_other_module()\n"
        ),
    }
    assert _unread_definitions(sources) == [
        "a.Box.recursive",
        "a.Box.unread",
        "b.caller",
    ]
