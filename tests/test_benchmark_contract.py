"""Names, command lines and reports of the package that the benchmark in ``perfbench/`` uses.

The benchmark traces the package by rebinding the functions listed in
``perfbench/spans.py``'s ``BINDINGS``, reports the kernel and rational
backends on every pass, runs the CLI argvs that ``perfbench/workloads.py``
generates, and checks their reports with ``perfbench/checks.py``.  A
refactor that removes one of these names or options, or changes a report
those checks read, would otherwise show up only as failed benchmark
operations.
"""

import importlib
import importlib.util
import inspect
import io
from contextlib import redirect_stderr, redirect_stdout
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
def test_benchmark_argvs_parse(workload, tmp_path, capsys):
    for seed in range(3):
        for op in WORKLOADS.generate(workload, seed, str(tmp_path)):
            if op["lane"] != "cli":
                continue
            try:
                cli._parse(op["argv"])
            except SystemExit:
                pytest.fail(f"benchmark argv does not parse: {op['argv']}: {capsys.readouterr().err}")


@pytest.mark.parametrize("workload", ["identity-sweep", "small-checks"])
def test_benchmark_reports_pass_its_checks(workload, tmp_path):
    # One seed's operations, run in-process as perfbench/worker.py runs them,
    # then judged by the benchmark's own per-pass output checks.
    ops = WORKLOADS.generate(workload, 0, str(tmp_path))
    assert {op["lane"] for op in ops} == {"cli"}
    outs = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(op["argv"])
        outs.append({"exc": None, "rc": rc, "out": out.getvalue(), "err": err.getvalue()})
    assert _perfbench("checks").check_pass(ops, outs, None) == {}
