"""The README's examples run against the code as it is.

The ``python`` block is executed as written, and every ``cpvquad integrate``
and ``cpvquad bench`` line of its ``sh`` blocks goes through ``cli.main`` in
process, so a README that names a removed function, flag or output key
fails here.  The "Public names" paragraph is checked against the modules'
``__all__``, so a public name the paragraph leaves out fails here too.
"""

import csv
import importlib
import json
import math
import re

import pytest

from cpvquad.cli import main

from helpers import README, readme_blocks, readme_commands


def _named_keys(lead):
    """The backquoted names of the README sentence that starts with `lead`."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    (sentence,) = re.findall(rf"{lead}(.*?)\.(?:\s|$)", text)
    return re.findall(r"`(\w+)`", sentence)


def _paragraph_names(lead):
    """The backquoted names of the README paragraph that starts with
    `lead`."""
    text = README.read_text(encoding="utf-8")
    (paragraph,) = [p for p in text.split("\n\n") if p.startswith(lead)]
    return set(re.findall(r"`(\w+)`", paragraph))


@pytest.mark.parametrize("module", [
    "cpvquad", "cpvquad.quadrature", "cpvquad.error_model",
    "cpvquad.logbound", "cpvquad.expressions",
])
def test_public_names_paragraph_names_every_export(module):
    exported = set(importlib.import_module(module).__all__)
    assert exported - _paragraph_names("Public names.") == set()


def test_library_block_runs_and_gives_log_3():
    (block,) = readme_blocks("python")
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    (line,) = [line for line in block.splitlines() if line.endswith("# log 3")]
    value = eval(line.partition("#")[0], namespace)
    assert value == pytest.approx(math.log(3.0), abs=1e-12)


def test_readme_has_integrate_examples():
    assert len(readme_commands("integrate")) >= 4


@pytest.mark.parametrize("argv", readme_commands("integrate"), ids=" ".join)
def test_integrate_example_runs(argv, capsys):
    assert main(argv[1:]) in (0, 1)
    assert capsys.readouterr().out


def test_readme_has_bench_examples():
    assert [argv[2:3] for argv in readme_commands("bench")] == [
        [], ["--csv"], ["--json"],
    ]


@pytest.mark.parametrize("argv", readme_commands("bench"), ids=" ".join)
def test_bench_example_writes_the_keys_it_names(argv, capsys, tmp_path,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out
    if "--json" in argv:
        with open(argv[-1], encoding="utf-8") as fp:
            rows = json.load(fp)
        assert rows
        named = _named_keys("A JSON row holds")
        assert [list(row) for row in rows] == [named] * len(rows)
    elif "--csv" in argv:
        with open(argv[-1], encoding="utf-8", newline="") as fp:
            header = next(csv.reader(fp))
        assert header == _named_keys("The CSV has the columns")
