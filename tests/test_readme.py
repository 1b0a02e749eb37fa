"""The README's Python examples run as written against the current API."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


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
