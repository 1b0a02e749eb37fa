"""Names and command lines of the package that the benchmark in ``perfbench/`` uses.

The benchmark traces the package by rebinding the functions listed in
``perfbench/spans.py``'s ``BINDINGS``, reports the kernel and rational
backends on every pass, and runs the CLI argvs that
``perfbench/workloads.py`` generates.  A refactor that removes one of these
names or options would otherwise show up only as failed benchmark
operations.
"""

import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from verblunsky import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return _perfbench("spans").BINDINGS


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


def test_sweep_level_count_reads_max_index():
    # spans._levels counts a sweep's levels from max_index, keyword or 4th positional.
    for module in ("alphamoments", "cli", "montecarlo"):
        params = list(inspect.signature(_resolve(module, "alpha_x_moment")).parameters)
        assert params[3] == "max_index", module


def test_run_report_names_resolve():
    assert _resolve("alphamoments", "_mpq") is Fraction
    assert _resolve("kernels", "backend_name")() == "numpy"


WORKLOADS = _perfbench("workloads")


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_benchmark_argvs_parse(workload, tmp_path):
    parser = cli.build_parser()
    for seed in range(3):
        for op in WORKLOADS.generate(workload, seed, str(tmp_path)):
            if op["lane"] != "cli":
                continue
            try:
                parser.parse_args(op["argv"])
            except SystemExit:
                pytest.fail(f"benchmark argv does not parse: {op['argv']}")
