"""Tests for the benchmark battery, its frozen references and serialization."""

import io
import json
import math
import random

import mpmath as mp
import pytest

from cpvquad.benchmarks import (
    CALIBRATION_TOL,
    BenchmarkCase,
    BenchmarkRow,
    builtin_problems,
    reference_values,
    run_benchmark,
    write_csv,
    write_json,
)
from cpvquad import benchmarks
from cpvquad.cpv import CpvResult, StopReasons
from cpvquad.error_model import ErrorBudget
from cpvquad.quadrature import (
    _patterson_extension,
    gauss_legendre_rule,
    kronrod_pair_g10k21,
)
from cpvquad.expressions import compile_expression

from helpers import clear_engine_caches, compiled_kernels, read_csv
from oracles import (
    _TAUS,
    oracle_breakpoints,
    oracle_integrand,
    pv_decomposed,
    pv_exp_closed,
    pv_sin_interval,
    pv_split,
)

EXPECTED_NAMES = (
    "case1",
    "case2",
    "case3",
    "case4",
    "case5",
    "case6",
    "case6b",
    "case7",
    "case8",
)

EXPECTED_TAUS = {
    "case1": 0.5,
    "case2": 0.8,
    "case3": 0.7,
    "case4": 0.99,
    "case5": -0.6,
    "case6": 0.5,
    "case6b": 0.9,
    "case7": 0.9999999,
    "case8": -0.41,
}


def _case(name: str) -> BenchmarkCase:
    return next(c for c in builtin_problems() if c.name == name)


class TestCaseTable:
    def test_names_and_order(self):
        assert tuple(c.name for c in builtin_problems()) == EXPECTED_NAMES

    def test_taus(self):
        for case in builtin_problems():
            assert case.tau == EXPECTED_TAUS[case.name]
            assert case.tau == float(case.tau_text)

    def test_tau_text_is_the_oracles_decimal(self):
        # tau_text is tau's shortest repr; the oracles keep the decimals on
        # their own, so a tau not written as its shortest decimal fails
        assert set(_TAUS) == set(EXPECTED_NAMES)
        for case in builtin_problems():
            assert case.tau_text == _TAUS[case.name]

    def test_error_bounds(self):
        for case in builtin_problems():
            assert case.error_bound == (5e-9 if case.name == "case7" else 5e-12)

    @pytest.mark.parametrize("first,second",
                             [("case1", "case7"), ("case6", "case6b")])
    def test_one_integrand_at_two_singularities(self, first, second):
        a, b = _case(first), _case(second)
        assert a.integrand is b.integrand
        assert a.expression == b.expression
        assert a.tau != b.tau


class TestReferenceIntegrity:
    def test_pair_agreement(self):
        # the two stored decimal routes must agree to 1e-13 relative,
        # tighter than the 1e-12 build guard
        with mp.workdps(40):
            for case in builtin_problems():
                primary = mp.mpf(case.reference_text)
                check = mp.mpf(case.crosscheck_text)
                scale = max(abs(primary), abs(check))
                assert abs(primary - check) <= mp.mpf("1e-13") * scale, case.name

    def test_reference_value_parses_primary(self):
        for case in builtin_problems():
            assert case.reference_value() == float(case.reference_text)

    def test_tampered_pair_is_rejected(self):
        case = _case("case1")
        bad = case._replace(crosscheck_text="0.913786432723662428316752218177")
        with pytest.raises(RuntimeError, match="cross-check failed"):
            bad.reference_value()

    def test_reference_values_covers_battery(self):
        values = reference_values()
        assert set(values) == set(EXPECTED_NAMES)
        assert all(math.isfinite(v) for v in values.values())


class TestReferenceRegeneration:
    """Frozen strings recomputed from scratch at reduced precision.

    Full regeneration is ``python tests/oracles.py``; here a
    cheaper rerun of the closed forms and two fast numeric cases confirms
    the stored digits are reproducible, not copy-paste artifacts.
    """

    def _relative_gap(self, value: mp.mpf, text: str) -> mp.mpf:
        stored = mp.mpf(text)
        return abs(value - stored) / abs(stored)

    def test_closed_forms(self):
        with mp.workdps(40):
            gaps = [
                self._relative_gap(pv_exp_closed("0.5", dps=40), _case("case1").reference_text),
                self._relative_gap(pv_sin_interval(550, "0.8", -1, 1), _case("case2").reference_text),
                self._relative_gap(pv_exp_closed("0.9999999", dps=40), _case("case7").reference_text),
            ]
            assert all(gap <= mp.mpf("1e-24") for gap in gaps), gaps

    @pytest.mark.parametrize("name,dps", [("case1", 30), ("case4", 25)])
    def test_numeric_route(self, name, dps):
        case = _case(name)
        value = pv_decomposed(
            oracle_integrand(name),
            case.tau_text,
            oracle_breakpoints(name),
            dps=dps,
            mu_exponent=-40,
        )
        with mp.workdps(40):
            assert self._relative_gap(value, case.reference_text) <= mp.mpf("1e-12")

    def test_split_route(self):
        case = _case("case1")
        value = pv_split(oracle_integrand("case1"), "0.5", (-1.0, 1.0), dps=25)
        with mp.workdps(40):
            assert self._relative_gap(value, case.reference_text) <= mp.mpf("1e-12")


class TestExpressionMirror:
    @pytest.mark.parametrize("case", builtin_problems(), ids=lambda c: c.name)
    def test_parsed_matches_native_within_one_ulp(self, case):
        parsed = compile_expression(case.expression)
        rng = random.Random(1234)
        for _ in range(1000):
            x = rng.uniform(-1.0, 1.0)
            native = case.integrand(x)
            mirrored = parsed(x)
            if native == mirrored:
                continue
            scale = max(abs(native), abs(mirrored))
            assert abs(native - mirrored) <= math.ulp(scale), (case.name, x)


class TestRunBenchmark:
    def test_battery_passes_at_calibration_tolerance(self):
        rows = run_benchmark(tol=CALIBRATION_TOL)
        assert [row.name for row in rows] == list(EXPECTED_NAMES)
        assert all(row.result.converged for row in rows)
        assert all(row.passed for row in rows)
        for row in rows:
            assert row.abs_error <= row.bound
            assert row.result.error_estimate >= row.abs_error

    def test_battery_evaluations_stay_within_budget(self):
        # 76,830 before the pieces stopped at the roundoff floor, 75,630
        # after, 67,740 with one queue over the three pieces, 55,020 with
        # the 10/21 pair, and 51,556 with the 43-point extension; a change
        # that spends more must say why
        rows = run_benchmark()
        assert sum(row.result.evaluations for row in rows) <= 51_556

    def test_deterministic_apart_from_timing(self):
        first = run_benchmark(tol=CALIBRATION_TOL)
        second = run_benchmark(tol=CALIBRATION_TOL)
        for a, b in zip(first, second):
            assert a.result == b.result
            assert a.abs_error == b.abs_error

    def test_rule_build_precedes_the_first_timed_case(self, monkeypatch):
        gauss_legendre_rule.cache_clear()
        kronrod_pair_g10k21.cache_clear()
        clear_engine_caches()
        built = []
        solve = benchmarks.cpv_standard

        def record(problem):
            # the rules are built, and everything the engine compiles for
            # the battery compiled, before any case is timed
            built.append((kronrod_pair_g10k21.cache_info().currsize,
                          _patterson_extension.cache_info().currsize,
                          compiled_kernels()))
            return solve(problem)

        monkeypatch.setattr(benchmarks, "cpv_standard", record)
        run_benchmark()
        after = compiled_kernels()
        # the battery extends intervals, so the extension kernels are among
        # what was compiled in advance
        assert after[1]
        assert built == [(1, 1, after)] * len(builtin_problems())

    def test_bound_scales_with_loose_tolerance(self):
        rows = run_benchmark(tol=1e-10)
        assert rows[0].name == "case1"
        assert rows[0].bound == pytest.approx(100.0 * 5e-12, rel=1e-12)

    def test_bound_never_shrinks_below_calibration(self):
        rows = run_benchmark(tol=1e-13)
        assert rows[0].name == "case1"
        assert rows[0].bound == 5e-12

    def test_rejects_bad_arguments(self):
        # the problem's own check, which a NaN or infinite tolerance fails too
        for tol in (0.0, -1e-12, math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                run_benchmark(tol=tol)

    def test_passed_property(self):
        budget = ErrorBudget(1e-13, *[0.0] * (len(ErrorBudget._fields) - 1))
        result = CpvResult(
            value=1.0, budget=budget, evaluations=1, converged=True,
            stop_reasons=StopReasons(*("tolerance",) * 3),
        )
        good = BenchmarkRow(
            name="x", tau=0.0, result=result, abs_error=1e-14,
            elapsed_seconds=0.0, bound=1e-12,
        )
        too_wrong = good._replace(abs_error=1e-11)
        underestimated = good._replace(
            result=result._replace(budget=budget._replace(quad_left=1e-15)))
        assert good.passed
        assert not too_wrong.passed
        assert not underestimated.passed


class TestSerialization:
    def _rows(self):
        return run_benchmark(tol=1e-12)

    def test_csv_roundtrip_is_bit_exact(self):
        rows = self._rows()
        buffer = io.StringIO()
        write_csv(rows, buffer)
        buffer.seek(0)
        parsed = read_csv(buffer)
        assert len(parsed) == len(rows)
        for rec, row in zip(parsed, rows):
            assert rec["name"] == row.name
            assert rec["tau"] == row.tau
            assert rec["value"] == row.result.value
            assert rec["abs_error"] == row.abs_error
            assert rec["estimate"] == row.result.error_estimate
            assert rec["evaluations"] == row.result.evaluations
            assert rec["converged"] is row.result.converged
            assert rec["elapsed_seconds"] == row.elapsed_seconds

    def test_csv_header(self):
        rows = self._rows()
        buffer = io.StringIO()
        write_csv(rows, buffer)
        assert buffer.getvalue().splitlines()[0] == (
            "name,tau,value,abs_error,estimate,evaluations,converged,"
            "elapsed_seconds"
        )

    def test_read_csv_rejects_foreign_header(self):
        with pytest.raises(ValueError, match="header"):
            read_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_json_layout_and_exact_values(self):
        rows = self._rows()
        buffer = io.StringIO()
        write_json(rows, buffer)
        parsed = json.loads(buffer.getvalue())
        assert len(parsed) == len(rows)
        for obj, row in zip(parsed, rows):
            assert obj["name"] == row.name
            assert obj["value"] == row.result.value
            assert obj["estimate"] == row.result.error_estimate
            assert obj["abs_error"] == row.abs_error
            assert obj["evaluations"] == row.result.evaluations
            assert obj["converged"] is row.result.converged
            assert obj["stop_reasons"] == row.result.stop_reasons._asdict()
            assert list(obj["budget"]) == list(ErrorBudget._fields)
            assert obj["budget"]["roundoff"] == row.result.budget.roundoff

    def test_json_is_strict_for_a_jump_at_tau(self, monkeypatch):
        # a jump at tau has no principal value: its row holds a NaN value and
        # error and an infinite estimate, which the JSON writes as null; the
        # battery runs the native integrand only
        jump = _case("case1")._replace(
            name="jump",
            integrand=lambda x: 1.0 if x >= 0.5 else 0.0,
        )
        monkeypatch.setattr(benchmarks, "_CASES", (jump,))
        rows = run_benchmark(tol=1e-12)
        assert not rows[0].result.converged
        buffer = io.StringIO()
        write_json(rows, buffer)

        def refuse(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        obj = json.loads(buffer.getvalue(), parse_constant=refuse)[0]
        assert obj["value"] is None
        assert obj["abs_error"] is None
        assert obj["estimate"] is None
        assert obj["budget"]["quad_h"] is None
        assert obj["evaluations"] == rows[0].result.evaluations
        assert obj["converged"] is False
        assert set(obj["stop_reasons"].values()) == {"discontinuous_at_tau"}
