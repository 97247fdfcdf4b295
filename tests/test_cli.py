"""End-to-end tests of the command line interface via main(argv)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cpvquad
import cpvquad.benchmarks
import cpvquad.logbound
from cpvquad import cli
from cpvquad.cli import main
from cpvquad.cpv import CpvProblem, cpv_general, cpv_standard
from cpvquad.error_model import ErrorBudget
from cpvquad.expressions import compile_expression

from helpers import read_csv, readme_commands


def _extract(out: str, key: str) -> float:
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split(" = ", 1)[1])
    raise AssertionError(f"no '{key}' line in output:\n{out}")


def _never_called(*args, **kwargs):
    raise AssertionError("ran before its output path was opened")


class TestIntegrate:
    def test_constant_integrand(self, capsys):
        code = main(["integrate", "--f", "1", "--tau", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert _extract(out, "value") == pytest.approx(
            math.log(1.0 / 3.0), rel=1e-13
        )
        assert _extract(out, "estimate") < 1e-12
        assert _extract(out, "evaluations") > 0

    def test_exponential(self, capsys):
        code = main(["integrate", "--f", "exp(x)", "--tau", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert _extract(out, "value") == pytest.approx(
            0.9137864317236624, rel=1e-12
        )

    def test_json_output(self, capsys):
        code = main(["integrate", "--f", "exp(x)", "--tau", "0.5", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {
            "value", "estimate", "budget", "evaluations", "converged",
            "stop_reasons",
        }
        assert obj["converged"] is True
        assert list(obj["budget"]) == list(ErrorBudget._fields)
        assert obj["value"] == pytest.approx(0.9137864317236624, rel=1e-12)
        assert obj["estimate"] >= 0.0

    def test_json_stop_reasons(self, capsys):
        code = main(["integrate", "--f", "exp(x)", "--tau", "0.5", "--json"])
        obj = json.loads(capsys.readouterr().out)
        assert code == 0
        assert obj["stop_reasons"] == {
            "quad_left": "tolerance",
            "quad_right": "tolerance",
            "quad_h": "tolerance",
        }

    def test_plain_output_names_stop_reasons(self, capsys):
        main(["integrate", "--f", "exp(x)", "--tau", "0.5"])
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == (
            "stop_reasons = quad_left:tolerance quad_right:tolerance "
            "quad_h:tolerance"
        )

    def test_jump_at_tau_exits_one_with_strict_json(self, capsys):
        # sign(x - 0.3), with f(0.3) = 0: no principal value exists
        code = main(["integrate", "--f", "(x-0.3)/(abs(x-0.3)+1e-300)",
                     "--tau", "0.3", "--json"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NaN" not in out and "Infinity" not in out
        obj = json.loads(out)
        assert obj["converged"] is False
        assert obj["value"] is None and obj["estimate"] is None
        assert obj["evaluations"] == 0
        assert set(obj["stop_reasons"].values()) == {"discontinuous_at_tau"}

    def test_tolerance_below_floor_exits_one(self, capsys):
        code = main(["integrate",
                     "--f", "exp(-100*(x + 0.4)^2)*sin(exp(-10*x))",
                     "--tau", "-0.41", "--tol", "1e-15", "--json"])
        obj = json.loads(capsys.readouterr().out)
        assert code == 1
        assert obj["converged"] is True
        assert obj["estimate"] > 1e-15
        assert "floor" in obj["stop_reasons"].values()
        assert obj["evaluations"] <= 30_000

    def test_json_matches_plain(self, capsys):
        main(["integrate", "--f", "exp(x)", "--tau", "0.5"])
        plain = _extract(capsys.readouterr().out, "value")
        main(["integrate", "--f", "exp(x)", "--tau", "0.5", "--json"])
        as_json = json.loads(capsys.readouterr().out)["value"]
        assert as_json == plain

    def test_general_interval(self, capsys):
        code = main(
            ["integrate", "--f", "1", "--tau", "1", "--a", "0", "--b", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert _extract(out, "value") == pytest.approx(math.log(3.0), rel=1e-12)

    def test_near_endpoint_fails_gate_but_prints(self, capsys):
        code = main(["integrate", "--f", "exp(x)", "--tau", "0.9999999"])
        captured = capsys.readouterr()
        assert code == 1
        value = _extract(captured.out, "value")
        assert value == pytest.approx(-42.111561793322385, rel=1e-7)
        # gate fails because the honest floor exceeds the default tolerance
        assert _extract(captured.out, "estimate") > 1e-12

    def test_loose_tolerance_accepts_near_endpoint(self, capsys):
        code = main(
            ["integrate", "--f", "exp(x)", "--tau", "0.9999999", "--tol", "1e-6"]
        )
        capsys.readouterr()
        assert code == 0

    def test_cutoff_method(self, capsys):
        code = main(
            [
                "integrate", "--f", "exp(x)", "--tau", "0.5",
                "--method", "cutoff", "--mu", "1e-10",
            ]
        )
        out = capsys.readouterr().out
        # cutoff budget dominates the default tolerance: result printed,
        # gate failed
        assert code == 1
        assert _extract(out, "value") == pytest.approx(0.91378643, rel=1e-7)

    def test_invalid_expression_is_usage_error(self, capsys):
        code = main(["integrate", "--f", "2+", "--tau", "0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid --f expression" in captured.err
        assert captured.out == ""

    def test_too_deep_expression_is_usage_error(self, capsys):
        source = "(" * 400 + "x" + ")" * 400
        code = main(["integrate", "--f", source, "--tau", "0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "nested too deeply" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "source,message",
        [
            ("log(x)", "integrand returned a non-finite value"),
            ("1e308*x", "difference quotient overflowed"),
            ("6e307*x", "symmetric quotient overflowed"),
        ],
    )
    def test_nonfinite_integrand_exits_one(self, capsys, source, message):
        code = main(["integrate", "--f", source, "--tau", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.err
        assert captured.out == ""

    def test_tau_on_endpoint_is_usage_error(self, capsys):
        code = main(["integrate", "--f", "exp(x)", "--tau", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_interval_wider_than_the_double_range_is_usage_error(self, capsys):
        code = main(["integrate", "--f=1", "--tau=0", "--a=-1e308",
                     "--b=1e308", "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert "wider than the largest double" in captured.err
        assert captured.out == ""

    def test_missing_tau_is_usage_error(self, capsys):
        code = main(["integrate", "--f", "exp(x)"])
        capsys.readouterr()
        assert code == 2

    def test_mu_is_in_the_units_of_x(self, capsys):
        # delta = 0.25 on [2, 4]: mu = 0.2 is a valid cutoff, 0.3 is not
        base = ["integrate", "--f", "cos(x)", "--tau", "2.25", "--a", "2",
                "--b", "4", "--method", "cutoff"]
        assert main(base + ["--mu", "0.2"]) in (0, 1)
        assert main(base + ["--mu", "0.3"]) == 2
        assert "(0, 0.25]" in capsys.readouterr().err

    def test_tau_whose_near_endpoint_does_not_round_back(self, capsys):
        # 0.3 - (0.3 + 0.1) lands an ulp below a = -0.1
        code = main(["integrate", "--f", "cos(x)", "--tau", "0.3",
                     "--a", "-0.1", "--b", "10"])
        capsys.readouterr()
        assert code == 0

    def test_bad_mu_is_usage_error(self, capsys):
        code = main(
            [
                "integrate", "--f", "exp(x)", "--tau", "0.5",
                "--method", "cutoff", "--mu", "0.9",
            ]
        )
        capsys.readouterr()
        assert code == 2

    def test_cutoff_too_small_for_the_interval_names_mu(self, capsys):
        code = main(["integrate", "--f", "sin(x)", "--tau", "0", "--a=-4",
                     "--b", "4", "--method", "cutoff", "--mu", "5e-324"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cutoff mu ")
        assert captured.err.endswith("got 5e-324\n")


class TestNegativeNumbers:
    """A number flag takes the expression language's numbers with a leading
    minus; argparse alone reads -1e-3 as a flag."""

    @pytest.mark.parametrize("flags, problem", [
        (["--tau", "-1e-3"], {"tau": -1e-3}),
        (["--tau", "0.5", "--a", "-1e-5", "--b", "1"],
         {"tau": 0.5, "a": -1e-5, "b": 1.0}),
        (["--tau", "-1", "--a", "-2.5E+2"], {"tau": -1.0, "a": -250.0}),
    ], ids=["tau", "a", "capital-exponent"])
    def test_number_with_an_exponent(self, capsys, flags, problem):
        code = main(["integrate", "--f", "exp(x)", "--json"] + flags)
        expected = cpv_standard(
            CpvProblem(f=compile_expression("exp(x)"), **problem))
        assert code == 0
        assert json.loads(capsys.readouterr().out) == json.loads(
            json.dumps(expected.as_json_dict()))

    @pytest.mark.parametrize("flag, message", [
        ("--tol", "tolerance must be positive"),
        ("--mu", "cutoff mu must lie in"),
    ])
    def test_negative_value_reaches_the_problem_check(self, capsys, flag,
                                                      message):
        code = main(["integrate", "--f", "exp(x)", "--tau", "0.5",
                     "--method", "cutoff", flag, "-1e-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {message}")

    def test_expression_beginning_with_minus_needs_the_equals_form(
            self, capsys):
        assert main(["integrate", "--f", "-x", "--tau", "0.5"]) == 2
        assert "argument --f: expected one argument" in (
            capsys.readouterr().err)
        assert main(["integrate", "--f=-x", "--tau", "0.5"]) == 0
        capsys.readouterr()


#: The README's `integrate` examples, without --json, with the problem each
#: one states.
_README_EXAMPLES = [
    (["--f", "exp(x)", "--tau", "0.5"], {"f": "exp(x)", "tau": 0.5}),
    (["--f", "exp(-100*(x+0.4)^2)*sin(exp(-10*x))", "--tau", "-0.41"],
     {"f": "exp(-100*(x+0.4)^2)*sin(exp(-10*x))", "tau": -0.41}),
    (["--f", "1", "--tau", "1", "--a", "0", "--b", "4"],
     {"f": "1", "tau": 1.0, "a": 0.0, "b": 4.0}),
    (["--f", "exp(x)", "--tau", "0.5", "--method", "cutoff", "--mu", "1e-10"],
     {"f": "exp(x)", "tau": 0.5, "method": "cutoff", "mu": 1e-10}),
]


class TestOneJsonForm:
    """`integrate --json` prints a result's one JSON form, and each
    `bench --json` row is that form with its case around it."""

    def test_examples_are_the_readme_s(self):
        documented = [[arg for arg in argv[2:] if arg != "--json"]
                      for argv in readme_commands("integrate")]
        assert documented == [flags for flags, _ in _README_EXAMPLES]

    @pytest.mark.parametrize("flags,fields", _README_EXAMPLES,
                             ids=[" ".join(f) for f, _ in _README_EXAMPLES])
    def test_integrate_prints_the_result_s_form(self, capsys, flags, fields):
        assert main(["integrate", *flags, "--json"]) in (0, 1)
        problem = CpvProblem(**{**fields, "f": compile_expression(fields["f"])})
        expected = json.dumps(cpv_standard(problem).as_json_dict())
        assert "\n" not in expected
        assert capsys.readouterr().out == expected + "\n"

    def test_bench_rows_are_the_form_with_their_case(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        assert main(["bench", "--json", str(target)]) == 0
        capsys.readouterr()
        with open(target, encoding="utf-8") as fp:
            rows = json.load(fp)
        form = set(cpv_general(math.exp, 0.5, -1.0, 1.0).as_json_dict())
        case = {"name", "tau", "abs_error", "elapsed_seconds"}
        assert not form & case
        assert [set(row) for row in rows] == [form | case] * 9


class TestRepeatedCalls:
    """main() reuses one argument parser; no call may leak into the next."""

    PLAIN = ["integrate", "--f", "exp(x)", "--tau", "0.5"]

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_options_do_not_carry_over(self, capsys):
        main(self.PLAIN)
        first = capsys.readouterr().out
        code = main(self.PLAIN + ["--method", "cutoff", "--mu", "1e-10",
                                  "--json"])
        cutoff = json.loads(capsys.readouterr().out)
        assert code == 1
        assert main(self.PLAIN) == 0
        again = capsys.readouterr().out
        assert again == first
        assert _extract(again, "value") != cutoff["value"]

    def test_invalid_call_changes_nothing(self, capsys):
        main(self.PLAIN)
        first = capsys.readouterr()
        assert main(["integrate", "--f", "exp(x)", "--tau", "0.5",
                     "--method", "midpoint"]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(self.PLAIN) == 0
        again = capsys.readouterr()
        assert (again.out, again.err) == (first.out, first.err)


class TestBench:
    def test_table_run_passes(self, capsys):
        code = main(["bench"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 10
        assert any(line.startswith("case7") for line in lines)

    def test_near_endpoint_tau_not_rounded_in_table(self, capsys):
        main(["bench"])
        out = capsys.readouterr().out
        case7 = next(l for l in out.splitlines() if l.startswith("case7"))
        assert "0.9999999" in case7

    def test_csv_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code = main(["bench", "--csv", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"wrote 9 rows to {target}" in out
        with open(target, encoding="utf-8") as fp:
            parsed = read_csv(fp)
        assert [rec["name"] for rec in parsed] == [
            "case1", "case2", "case3", "case4", "case5",
            "case6", "case6b", "case7", "case8",
        ]

    def test_json_file(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        code = main(["bench", "--json", str(target)])
        capsys.readouterr()
        assert code == 0
        with open(target, encoding="utf-8") as fp:
            parsed = json.load(fp)
        assert len(parsed) == 9
        assert all("budget" in obj for obj in parsed)

    def test_csv_and_json_conflict(self, capsys, tmp_path):
        code = main(
            [
                "bench",
                "--csv", str(tmp_path / "a.csv"),
                "--json", str(tmp_path / "a.json"),
            ]
        )
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("flag", ["--csv", "--json"])
    def test_unwritable_path_is_usage_error(self, capsys, tmp_path, flag,
                                             monkeypatch):
        # the path is opened before the battery runs
        monkeypatch.setattr(cpvquad.benchmarks, "run_benchmark", _never_called)
        target = tmp_path / "missing" / "rows.out"
        code = main(["bench", flag, str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert not target.exists()

    def test_bad_tolerance(self, capsys):
        code = main(["bench", "--tol", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_bad_tolerance_with_output_path(self, capsys, tmp_path):
        # the path opens first; the run's own usage error still exits 2
        target = tmp_path / "rows.csv"
        code = main(["bench", "--tol", "0", "--csv", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: tolerance")
        assert "wrote" not in captured.out

    def test_usage_error_removes_a_file_it_created(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        assert main(["bench", "--tol", "-1", "--json", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: tolerance")
        assert not target.exists()

    def test_usage_error_leaves_an_existing_file_as_it_was(self, capsys,
                                                            tmp_path):
        target = tmp_path / "rows.csv"
        old = b"old,content\n" * 1000
        target.write_bytes(old)
        assert main(["bench", "--tol", "-1", "--csv", str(target)]) == 2
        assert target.read_bytes() == old
        # a run that writes replaces the whole of the longer old content
        assert main(["bench", "--csv", str(target)]) == 0
        capsys.readouterr()
        with open(target, encoding="utf-8") as fp:
            assert len(read_csv(fp)) == 9


class TestObservation:
    def test_small_sweep(self, capsys):
        code = main(
            [
                "observation", "--m-min", "2", "--m-max", "3",
                "--n-max", "2", "--trials", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cells: 4" in out
        assert "max ratio:" in out

    def test_boundary_case_reported_when_included(self, capsys):
        code = main(
            [
                "observation", "--m-min", "1", "--m-max", "2",
                "--n-max", "1", "--trials", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "boundary case" in out
        assert "2.8853900817779268" in out

    def test_large_rule_summary_line(self, capsys):
        code = main(
            [
                "observation", "--m-min", "14", "--m-max", "15",
                "--n-max", "1", "--trials", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rules with >= 15 points" in out

    def test_csv_file(self, capsys, tmp_path):
        target = tmp_path / "cells.csv"
        code = main(
            [
                "observation", "--m-min", "2", "--m-max", "3",
                "--n-max", "2", "--trials", "3", "--csv", str(target),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"wrote 4 cells to {target}" in out
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "m,n,trials,max_ratio,witness_seed,witness_scheme"
        assert len(lines) == 5

    def test_unwritable_path_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # the path is opened before the sweep runs
        monkeypatch.setattr(cpvquad.logbound, "sweep", _never_called)
        target = tmp_path / "missing" / "cells.csv"
        code = main(
            [
                "observation", "--m-min", "2", "--m-max", "2",
                "--n-max", "1", "--trials", "2", "--csv", str(target),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert not target.exists()

    def test_bad_trials(self, capsys):
        code = main(["observation", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_bad_trials_with_output_path(self, capsys, tmp_path):
        target = tmp_path / "cells.csv"
        code = main(["observation", "--trials", "0", "--csv", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "wrote" not in captured.out

    def test_usage_error_removes_a_file_it_created(self, capsys, tmp_path):
        target = tmp_path / "cells.csv"
        code = main(["observation", "--trials", "0", "--csv", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.exists()

    def test_usage_error_leaves_an_existing_file_as_it_was(self, capsys,
                                                            tmp_path):
        target = tmp_path / "cells.csv"
        old = b"old,content\n" * 1000
        target.write_bytes(old)
        code = main(["observation", "--trials", "0", "--csv", str(target)])
        assert code == 2
        assert target.read_bytes() == old
        # a run that writes replaces the whole of the longer old content
        assert main(["observation", "--m-max", "2", "--n-max", "1",
                     "--trials", "2", "--csv", str(target)]) == 0
        capsys.readouterr()
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "m,n,trials,max_ratio,witness_seed,witness_scheme"
        assert len(lines) == 2

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_csv_to_a_pipe(self, capsys):
        # a pipe cannot seek, so there is nothing to empty before writing
        read_end, write_end = os.pipe()
        try:
            code = main(["observation", "--m-max", "2", "--n-max", "1",
                         "--trials", "2", "--csv", f"/dev/fd/{write_end}"])
        finally:
            os.close(write_end)
        with os.fdopen(read_end, encoding="utf-8") as pipe:
            written = pipe.read()
        capsys.readouterr()
        assert code == 0
        assert written.startswith("m,n,trials,max_ratio,")
        assert len(written.splitlines()) == 2


class TestTopLevel:
    def test_version(self, capsys):
        code = main(["--version"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cpvquad 0.1.0" in out

    def test_missing_subcommand(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code = main(["solve"])
        capsys.readouterr()
        assert code == 2

    def test_help(self, capsys):
        assert main(["-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: cpvquad [-h]")

    def test_command_help(self, capsys):
        assert main(["integrate", "-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: cpvquad integrate")

    def test_reads_sys_argv_when_given_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["cpvquad", "integrate", "--f", "1",
                                          "--tau", "0.5", "--json"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True

    @pytest.mark.parametrize(
        "argv",
        [["integrate", "--f", "x", "--tau=--"],
         ["integrate", "--f", "x", "--tau", "0.5", "--method=--"],
         ["integrate", "--tau", "0.5", "--f=--"],
         ["bench", "--tol=--"],
         ["bench", "--json=--"],
         ["observation", "--seed=--"],
         ["observation", "--csv=--"],
         ["observation", "--m-min=--"]],
        ids=" ".join,
    )
    def test_double_dash_as_a_value_is_usage_error(self, capsys, tmp_path,
                                                   monkeypatch, argv):
        # argparse drops "--" given as --name=-- and stores [] for the
        # flag; the command's parser refuses it before anything runs
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        flag = argv[-1].partition("=")[0]
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage: cpvquad {argv[0]} ")
        assert captured.err.endswith(
            f"cpvquad {argv[0]}: error: argument {flag}: expected one "
            "argument\n")
        assert list(tmp_path.iterdir()) == []


class TestOneParse:
    """A named command is parsed by its own parser alone, to the namespace
    the top-level parser would have made."""

    ARGV = [argv[1:] for argv in readme_commands("integrate")] + [
        ["integrate", "--f", "exp(x)", "--tau", "0.5", "--js"],
        ["bench", "--tol", "1e-10", "--csv", "rows.csv"],
        ["observation", "--m-max", "3", "--n-max", "2", "--trials", "5",
         "--seed", "4"],
    ]

    @pytest.mark.parametrize("argv", ARGV, ids=" ".join)
    def test_command_parser_agrees_with_the_top_level(self, argv):
        parser, commands = cli._build_parser()
        top = vars(parser.parse_args(argv))
        assert top.pop("command") == argv[0]
        assert vars(commands[argv[0]].parse_args(argv[1:])) == top

    def test_top_level_parser_is_not_used_for_a_command(self, capsys,
                                                        monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parsed by the top-level parser")

        parser, _ = cli._build_parser()
        monkeypatch.setattr(parser, "parse_known_args", refuse)
        with pytest.raises(AssertionError):
            main(["--version"])
        assert main(["integrate", "--f", "exp(x)", "--tau", "0.5",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True

    def test_extra_positional_is_a_usage_error(self, capsys):
        code = main(["integrate", "--f", "1", "--tau", "0.5", "extra"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "cpvquad integrate: error: unrecognized arguments: extra" in (
            captured.err)

    def test_abbreviated_flag_is_accepted(self, capsys):
        assert main(["integrate", "--f", "1", "--tau", "0.5", "--js"]) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True


class TestStartup:
    """What a command-line call loads: no numpy, no mpmath, no argparse for
    a well-formed integrate, and none of the modules the dataclasses
    machinery imports."""

    SETUP = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import cpvquad, cpvquad.cli, cpvquad.benchmarks; "
        "cpvquad.kronrod_pair_g7k15(); cpvquad.benchmarks.reference_values(); "
        "status = cpvquad.cli.main("
        "['integrate', '--f', 'exp(x)', '--tau', '0.5', '--json']); "
        "print(status, sorted({'numpy', 'mpmath', 'dataclasses', 'inspect', "
        "'argparse'} & set(sys.modules)))"
    )

    def test_setup_and_integrate_leave_numpy_unloaded(self):
        src = str(Path(cpvquad.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", self.SETUP, src],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        *result, last = done.stdout.splitlines()
        assert json.loads("\n".join(result))["converged"] is True
        assert last == "0 []"

    def test_observation_still_runs(self, capsys):
        code = main([
            "observation", "--m-min", "2", "--m-max", "3",
            "--n-max", "3", "--trials", "5",
        ])
        assert code == 0
        assert "max ratio" in capsys.readouterr().out



def _argparse_reads(argv):
    """vars() of the namespace integrate's argparse parser makes of `argv`,
    or None where it exits."""
    _, commands = cli._build_parser()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(commands["integrate"].parse_args(argv))
        except SystemExit:
            return None


def _same(x, y):
    return x == y or (isinstance(x, float) and isinstance(y, float)
                      and math.isnan(x) and math.isnan(y))


_FLAGS = ["--f", "--tau", "--a", "--b", "--tol", "--method", "--mu"]
_NUMBERS = ["0.5", "-0.41", "-1e-3", "-.5", "-2.5E+2", "1e-10", "-1", "0",
            "inf", "nan", "1e999"]
_VALUES = _NUMBERS + ["-inf", "x", "-x", "-2 * x", "exp(x)", "open",
                      "cutoff", "closed", "", "-", "--", "-h", "--json"]
_WORDS = ["--json", "--json=1", "--json=", "-h", "--help", "--", "--ta",
          "--js", "--t", "--m", "--fx", "--eps", "---f", "-f", "extra"]


def _flag_and_value(flags, values):
    """[flag, value] or [flag=value]."""
    pair = st.tuples(st.sampled_from(flags), st.sampled_from(values))
    return pair.map(list) | pair.map(lambda fv: ["=".join(fv)])


class TestFlagReader:
    """integrate's flags read without argparse: wherever the reader returns
    a namespace it is argparse's, and wherever argparse exits the reader
    declines."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from([[], ["--f=x", "--tau=0.5"],
                         ["--f", "exp(x)", "--tau", "-0.41"]]),
        # mostly flags argparse reads, so that most calls are read
        st.lists(st.one_of(
            *[_flag_and_value(["--f", "--tau", "--a", "--b", "--tol", "--mu"],
                              _NUMBERS)] * 4,
            _flag_and_value(["--method"], ["open", "cutoff"]),
            _flag_and_value(_FLAGS + ["--json", "--ta", "--t"], _VALUES),
            st.sampled_from(_WORDS + _VALUES).map(lambda word: [word]),
        ), max_size=5),
    )
    @example([], [["--tau", "nan"], ["--f", "-2 * x"]])
    @example(["--f=x", "--tau=0.5"], [["--a", "-inf"]])
    @example(["--tau", "-1e-3"], [["--f", "-x"]])
    @example(["--f=x", "--tau=0.5"], [["--f=--"]])
    @example(["--f=x", "--tau=0.5"], [["--tau=x"], ["--tau", "0.1"]])
    def test_reader_agrees_with_argparse(self, head, items):
        argv = head + [word for item in items for word in item]
        ours = cli._read_integrate(argv)
        theirs = _argparse_reads(argv)
        if theirs is None:
            assert ours is None
        if ours is not None:
            ours = vars(ours)
            assert ours.keys() == theirs.keys()
            assert all(_same(ours[key], theirs[key]) for key in ours), (
                ours, theirs)

    @pytest.mark.parametrize("argv", [
        argv[2:] for argv in readme_commands("integrate")] + [
        ["--f=exp(x)", "--tau=-1e-3", "--a", "-2.5E+2", "--json", "--json"],
        ["--tau", "0.1", "--f", "x", "--tau", "-.5", "--method=cutoff"],
    ], ids=" ".join)
    def test_well_formed_calls_are_read(self, argv):
        ours = cli._read_integrate(argv)
        assert ours is not None
        assert vars(ours) == _argparse_reads(argv)


class TestWithoutArgparse:
    """A well-formed integrate runs with argparse unimportable, and prints
    what the argparse-read call prints; help and usage errors still come
    from argparse."""

    ARGV = [argv[1:] for argv in readme_commands("integrate")] + [
        ["integrate", "--f", "exp(x)", "--json", "--tau", "-1e-3"],
        ["integrate", "--f", "exp(x)", "--tau", "-1", "--a", "-2.5E+2"],
    ]

    SCRIPT = (
        "import contextlib, io, json, sys; sys.path.insert(0, sys.argv[1]); "
        "sys.modules['argparse'] = None; "
        "from cpvquad.cli import main; runs = []\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        runs.append([main(argv), out.getvalue()])\n"
        "print(json.dumps(runs))"
    )

    @staticmethod
    def _run(*args, **kwargs):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, timeout=60, **kwargs)

    def test_readme_calls_print_their_usual_output(self, capsys):
        src = str(Path(cpvquad.__file__).resolve().parents[1])
        done = self._run("-c", self.SCRIPT, src, json.dumps(self.ARGV))
        assert done.returncode == 0, done.stderr
        _, commands = cli._build_parser()
        usual = []
        for argv in self.ARGV:
            args = commands["integrate"].parse_args(argv[1:])
            usual.append([args.run(args), capsys.readouterr().out])
        assert json.loads(done.stdout) == usual

    @pytest.mark.parametrize("argv, status", [
        (["--help"], 0),
        (["integrate", "--help"], 0),
        (["integrate", "--f", "exp(x)"], 2),
    ], ids=["help", "integrate-help", "missing-tau"])
    def test_help_and_usage_errors_are_argparse_s(self, monkeypatch, argv,
                                                  status):
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(cpvquad.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = self._run("-m", "cpvquad.cli", *argv, env=env)
        parser, commands = cli._build_parser()
        parser = commands.get(argv[0], parser)
        assert done.returncode == status
        if status == 0:
            assert (done.stdout, done.stderr) == (parser.format_help(), "")
        else:
            assert done.stdout == ""
            assert done.stderr == (
                parser.format_usage() + "cpvquad integrate: error: the "
                "following arguments are required: --tau\n")
