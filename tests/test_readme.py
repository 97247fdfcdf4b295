"""The README's examples run against the code as it is.

The ``python`` block is executed as written, and every ``cpvquad integrate``
line of its ``sh`` blocks goes through ``cli.main`` in process, so a README
that names a removed function or flag fails here.
"""

import math
import re
import shlex
from pathlib import Path

import pytest

from cpvquad.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def _integrate_commands():
    """argv of each ``cpvquad integrate`` line, trailing comment dropped."""
    return [
        shlex.split(line, comments=True)
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("cpvquad integrate ")
    ]


def test_library_block_runs_and_gives_log_3():
    (block,) = _blocks("python")
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    (line,) = [line for line in block.splitlines() if line.endswith("# log 3")]
    value = eval(line.partition("#")[0], namespace)
    assert value == pytest.approx(math.log(3.0), abs=1e-12)


def test_readme_has_integrate_examples():
    assert len(_integrate_commands()) >= 4


@pytest.mark.parametrize("argv", _integrate_commands(), ids=" ".join)
def test_integrate_example_runs(argv, capsys):
    assert argv[0] == "cpvquad"
    assert main(argv[1:]) in (0, 1)
    assert capsys.readouterr().out
