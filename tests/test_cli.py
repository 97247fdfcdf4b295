"""End-to-end tests of the command line interface via main(argv)."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import cpvquad
from cpvquad import cli
from cpvquad.cli import main

from helpers import read_csv


def _extract(out: str, key: str) -> float:
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split(" = ", 1)[1])
    raise AssertionError(f"no '{key}' line in output:\n{out}")


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
        assert set(obj["budget"]) == {
            "quad_left",
            "quad_right",
            "quad_h",
            "roundoff",
            "log_sensitivity",
            "curvature_sensitivity",
            "cutoff",
        }
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
    def test_unwritable_path_is_usage_error(self, capsys, tmp_path, flag):
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
        assert lines[0] == "m,n,trials,max_ratio,witness_seed"
        assert len(lines) == 5

    def test_unwritable_path_is_usage_error(self, capsys, tmp_path):
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


class TestStartup:
    """What a command-line call loads: no numpy, no mpmath."""

    SETUP = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import cpvquad, cpvquad.cli, cpvquad.benchmarks; "
        "cpvquad.kronrod_pair_g7k15(); cpvquad.benchmarks.reference_values(); "
        "status = cpvquad.cli.main("
        "['integrate', '--f', 'exp(x)', '--tau', '0.5', '--json']); "
        "print(status, sorted({'numpy', 'mpmath'} & set(sys.modules)))"
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

