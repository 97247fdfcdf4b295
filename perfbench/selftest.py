"""Tests of the benchmark itself: its references and its checks.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from pathlib import Path

import mpmath as mp
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import references as ref  # noqa: E402
import workloads  # noqa: E402
from cpvquad.benchmarks import builtin_problems  # noqa: E402

BATTERY = {case.name: case for case in builtin_problems()}


@pytest.mark.parametrize("name, closed", [
    ("case1", lambda tau: ref.pv_exp(1.0, tau)),
    ("case2", lambda tau: ref.pv_sin(550.0, tau)),
    ("case7", lambda tau: ref.pv_exp(1.0, tau)),
])
def test_closed_forms_match_frozen_battery_references(name, closed):
    case = BATTERY[name]
    with mp.workdps(ref.DPS):
        got = closed(case.tau_text)
        frozen = mp.mpf(case.reference_text)
        assert abs(got - frozen) <= mp.mpf("1e-27") * abs(frozen)


def _subtracted_quad(f, tau, a, b):
    """PV by subtracting f(tau) and integrating the bounded quotient."""
    with mp.workdps(ref.DPS):
        tau, a, b = mp.mpf(tau), mp.mpf(a), mp.mpf(b)
        f_tau = f(tau)
        g = lambda x: (f(x) - f_tau) / (x - tau)
        return (mp.quad(g, [a, tau, b]) + f_tau * mp.log((b - tau) / (tau - a)))


@pytest.mark.parametrize("closed, f, param, tau, a, b", [
    (ref.pv_sin, lambda k: lambda x: mp.sin(k * x), 7.0, 0.3, -1.0, 1.0),
    (ref.pv_cos, lambda k: lambda x: mp.cos(k * x), 7.0, 0.3, -1.0, 1.0),
    (ref.pv_cos, lambda k: lambda x: mp.cos(k * x), 3.0, 2.2, 1.5, 2.5),
    (ref.pv_exp, lambda c: lambda x: mp.exp(c * x), -2.0, -0.4, -1.0, 1.0),
    (ref.pv_exp, lambda c: lambda x: mp.exp(c * x), 0.5, 3.0, 2.0, 6.0),
    (ref.pv_pow, lambda k: lambda x: x**k, 6, 0.05, -1.0, 1.0),
    (ref.pv_pow, lambda k: lambda x: x**k, 3, -1.0, -4.0, 2.0),
])
def test_closed_forms_match_quadrature(closed, f, param, tau, a, b):
    with mp.workdps(ref.DPS):
        got = closed(param, tau, a, b)
        direct = _subtracted_quad(f(param), tau, a, b)
        assert abs(got - direct) <= mp.mpf("1e-25") * max(1, abs(direct))


def test_shifted_sine_closed_form():
    with mp.workdps(ref.DPS):
        assert abs(ref.pv_shifted_sin(1e3, 999.0, 1001.0) - 2 * mp.si(1)) < 1e-30


def _first_clean_op(workload):
    for op in workloads.build(workload, seed=1):
        if not op.fault:
            return op
    raise AssertionError(f"{workload} has no operation without a known fault")


def _wrong(workload, out):
    if workload == "observation":
        return dataclasses.replace(out, max_ratio=out.max_ratio * (1 + 1e-6))
    return out._replace(value=out.value + 10.0 * out.estimate + 1e-9)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_flags_a_wrong_value(workload):
    op = _first_clean_op(workload)
    out = op.call()
    assert op.check(out).message is None
    assert op.check(_wrong(workload, out)).message is not None


def test_check_flags_a_converged_claim_without_principal_value():
    jump = workloads.Integral("jump", 0.0, 0.3)
    answer = workloads.calls.Answer(1.0, 1e-13, 100, True, 0)
    assert workloads.check_answer(answer, jump.reference()).message is not None
    honest = answer._replace(converged=False, status=1)
    assert workloads.check_answer(honest, jump.reference()).message is None


def test_check_flags_an_observation_ratio_out_of_bounds():
    op = workloads.cell_op(16, 5, seed=7)
    cell = op.call()
    assert op.check(cell).message is None
    assert op.check(dataclasses.replace(cell, max_ratio=1.3)).message is not None


def test_same_seed_same_inputs_and_failed_share_is_fixed():
    for workload in workloads.WORKLOADS:
        a = [op.label for op in workloads.build(workload, 3)]
        assert a == [op.label for op in workloads.build(workload, 3)]
        faults = [sum(bool(op.fault) for op in workloads.build(workload, s))
                  for s in (3, 4)]
        assert faults[0] == faults[1]


def test_seeded_general_intervals_map_exactly():
    rng = random.Random(5)
    for i in workloads.seeded_integrals(rng, on_unit=4, per_width=2):
        if (i.a, i.b) != (-1.0, 1.0):
            w = i.b
            assert i.a == -w and math.frexp(w)[0] == 0.5
            assert (i.tau / w) * w == i.tau
