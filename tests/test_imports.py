"""No module imports a name that it never uses, and no private name is dead.

No linter runs on this repository, so this AST scan stands in for the F401
check of pyflakes on ``src/verblunsky`` and ``tests``.  An import kept on
purpose, such as a name that perfbench looks up on a module, carries
``# noqa: F401`` on its line.  Names listed in ``__all__`` count as used.

A second scan requires that every module-level ``_private`` name defined in
``src/verblunsky`` is read, as a bare name or an attribute, somewhere in
``src/verblunsky`` or ``perfbench``: a helper that only tests read is dead code.

A third check guards the weight of a CLI call: a fresh interpreter that
imports ``verblunsky.cli`` and runs a command loads none of ``HEAVY``, whose
import cost each benchmark pass and each CLI user would otherwise pay.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/verblunsky/*.py"))
FILES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])
READERS = [*PACKAGE, *sorted(ROOT.glob("perfbench/**/*.py"))]


def _unused_imports(source: str) -> list[str]:
    """``"line: name"`` for every imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                # "import a.b" binds a; "from m import *" binds no one name.
                name = alias.asname or alias.name.partition(".")[0]
                if name != "*":
                    imported.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = "from dataclasses import dataclass\nimport numpy as np\n\nnp.zeros(1)\n"
    assert _unused_imports(source) == ["1: dataclass"]


def test_scan_accepts_noqa_all_and_future():
    source = (
        "from __future__ import annotations\n"
        "from math import (  # noqa: F401\n    comb,\n)\n"
        "import os.path\nfrom fractions import Fraction\n"
        "__all__ = ['Fraction']\nos.sep\n"
    )
    assert _unused_imports(source) == []


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def _private_definitions(source: str) -> list[str]:
    """The module-level names, defined or assigned, that start with one underscore."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _reads(source: str) -> set[str]:
    """Every name that a module loads, bare or as an attribute."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
    return reads


def _dead_private_names(defining: dict[str, str], reading: list[str]) -> list[str]:
    """``"module: name"`` for every private name in ``defining`` that no ``reading`` source reads."""
    read = set().union(*map(_reads, reading))
    return [f"{module}: {name}" for module, source in defining.items()
            for name in _private_definitions(source) if name not in read]


def test_scan_finds_a_dead_private_name():
    source = (
        "_live: int = 1\n_dead = 2\n__all__ = []\n\n"
        "def _helper():\n    return _live\n\nclass _Kept:\n    _field = 0\n"
    )
    reader = "import m\nm._helper()\nm._Kept\n"
    assert _dead_private_names({"m": source}, [source, reader]) == ["m: _dead"]
    assert _dead_private_names({"m": source}, [source]) == ["m: _dead", "m: _helper", "m: _Kept"]


def test_no_dead_private_name():
    defining = {str(path.relative_to(ROOT)): path.read_text() for path in PACKAGE}
    assert _dead_private_names(defining, [path.read_text() for path in READERS]) == []


HEAVY = ("argparse", "gettext", "locale")


def _heavy_loaded(code: str, path: pathlib.Path) -> list[str]:
    """The HEAVY modules loaded after a fresh interpreter runs code with path on sys.path."""
    probe = f"{code}\nimport sys\nprint([m for m in {HEAVY!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(path)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_weight_check_flags_a_module_that_imports_argparse(tmp_path):
    (tmp_path / "heavy.py").write_text("import argparse\n")
    assert "argparse" in _heavy_loaded("import heavy", tmp_path)


def test_cli_call_loads_no_heavy_module():
    code = "from verblunsky import cli\ncli.run(['variance', '--n', '3'])"
    assert _heavy_loaded(code, ROOT / "src") == []
