"""The README's Python examples and command lines run as written against the
current API, and its Kernels section names every test oracle module."""

import pathlib
import re
import shlex

import pytest

from verblunsky import cli

TESTS = pathlib.Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    for line in block.splitlines()
    if line.startswith("verblunsky ")
]


def test_readme_has_python_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(capsys, index):
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {})
    out = capsys.readouterr().out.splitlines()
    assert out
    if "report.passed" in BLOCKS[index]:
        assert out[-1] == "True"


def test_readme_has_commands():
    assert len(COMMANDS) == 8


@pytest.mark.parametrize("command", COMMANDS)
def test_command_runs(capsys, command):
    assert cli.run(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out


def test_kernels_section_names_every_test_oracle():
    kernels = re.search(r"^## Kernels\n(.*?)^## ", README.read_text(), re.S | re.M).group(1)
    named = set(re.findall(r"`(\w+_oracle\.py)`", kernels))
    assert named == {path.name for path in TESTS.glob("*_oracle.py")}
