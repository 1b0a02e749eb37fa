"""Names of the package that the benchmark in ``perfbench/`` looks up.

The benchmark traces the package by rebinding the functions listed in
``perfbench/spans.py``'s ``BINDINGS`` and reports the kernel and rational
backends on every pass.  A refactor that removes one of these names would
otherwise show up only when a benchmark pass dies.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BINDINGS


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"verblunsky.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize(
    "module, attr", sorted({(mod, attr) for _layer, mod, attr, _count in _bindings()})
)
def test_traced_binding_resolves(module, attr):
    assert callable(_resolve(module, attr))


def test_run_report_names_resolve():
    assert _resolve("alphamoments", "_mpq") is Fraction
    assert _resolve("kernels", "backend_name")() == "numpy"
