"""Every third-party module that src/ or tests/ imports is declared in
pyproject.toml, as a dependency or in an optional extra.

A test module whose import fails is reported as a collection error, and
the tier-1 command runs with --continue-on-collection-errors, so an
undeclared test dependency would drop its tests without failing the run.
Imports anywhere in a file count, lazy ones inside functions too. The
standard library, the package itself and the local modules (the test
modules, conftest, and the benchmark's modules, such as the tracer the
trace tests import) need no declaration. A module maps to the
distributions that install it through importlib.metadata, so `yaml`
counts as declared by `PyYAML`.
"""

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LOCAL = {"roughforms"} | {
    p.stem for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")
}


def _normalized(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def _declared(pyproject):
    """Normalized names of the dependencies and of every optional extra."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(pyproject)["project"]
    extras = project.get("optional-dependencies", {}).values()
    reqs = project.get("dependencies", []) + [r for e in extras for r in e]
    return {_normalized(re.match(r"[A-Za-z0-9_.-]+", r).group()) for r in reqs}


def _imported_top_levels(tree):
    """Top-level names of every absolute import in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _undeclared(modules, declared, providers):
    """The modules, outside the standard library and LOCAL, that no
    declared distribution provides."""
    return sorted(
        m
        for m in modules
        if m not in sys.stdlib_module_names
        and m not in LOCAL
        and not {_normalized(d) for d in providers.get(m, [m])} & declared
    )


def test_every_third_party_import_is_declared():
    declared = _declared((ROOT / "pyproject.toml").read_text())
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    modules = set()
    for path in files:
        modules |= _imported_top_levels(ast.parse(path.read_text()))
    missing = _undeclared(modules, declared, packages_distributions())
    assert missing == [], f"imported but not declared in pyproject.toml: {missing}"


def test_undeclared_import_scan_sees_what_it_should():
    pyproject = (
        '[project]\ndependencies = ["numpy>=1.25"]\n'
        '[project.optional-dependencies]\ntest = ["Pillow_SIMD[extra]", "py.test"]\n'
    )
    assert _declared(pyproject) == {"numpy", "pillow-simd", "py-test"}
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from scipy import integrate\n"
        "from . import sibling\n"
        "import conftest, roughforms.forms\n"
        "def f():\n"
        "    import yaml\n"
        "    from PIL import Image\n"
    )
    modules = _imported_top_levels(tree)
    assert modules == {
        "__future__", "os", "numpy", "scipy", "conftest", "roughforms", "yaml", "PIL",
    }
    providers = {"PIL": ["Pillow-SIMD"], "yaml": ["PyYAML"]}
    assert _undeclared(modules, _declared(pyproject), providers) == ["scipy", "yaml"]
