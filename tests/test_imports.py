"""Every module-level import of src/roughforms is used by its module.

No linter runs on this tree, so this test guards against imports left
behind when code is deleted. A name counts as used when the module reads
it anywhere (a bare name, or the root of an attribute chain) or lists it
in __all__; `from __future__ import ...` is a compiler directive, not a
name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "roughforms"


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
