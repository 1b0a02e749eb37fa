"""No module imports a name that it never uses.

No linter runs on this repository, so this AST scan stands in for the F401
check of pyflakes on ``src/verblunsky`` and ``tests``.  An import kept on
purpose, such as a name that perfbench looks up on a module, carries
``# noqa: F401`` on its line.  Names listed in ``__all__`` count as used.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/verblunsky/*.py"), *ROOT.glob("tests/*.py")])


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
