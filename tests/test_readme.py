"""The README's examples run: every `normsum ...` line of its shell blocks
exits 0 through cli.main in process, and its Quick start block executes."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from normsum import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
SH_BLOCKS = re.findall(r"```sh\n(.*?)```", README, re.S)
# each `normsum ...` line without its comment
CLI_LINES = [
    shlex.join(shlex.split(line, comments=True))
    for block in SH_BLOCKS
    for line in block.splitlines()
    if line.startswith("normsum ")
]
QUICK_START = re.search(r"## Quick start.*?```python\n(.*?)```", README, re.S).group(1)

# the P5 adjacency, for the example that reads a matrix file
M_CSV = "0,1,0,0,1\n1,0,1,0,0\n0,1,0,1,0\n0,0,1,0,1\n1,0,0,1,0\n"


def test_readme_has_the_examples():
    assert len(CLI_LINES) >= 18
    assert "exhaustive_max(" in QUICK_START


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_example_exits_zero(tmp_path, line):
    matrix = tmp_path / "m.csv"
    matrix.write_text(M_CSV, encoding="utf-8")
    argv = [str(matrix) if a == "m.csv" else a for a in shlex.split(line)[1:]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0, err.getvalue()


def test_readme_quick_start_runs():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(QUICK_START, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-1] == "5"  # the 5-cycle's edge count
