"""Tests for the roundoff bounds and the assembled error budget."""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cpvquad.benchmarks import builtin_problems
from cpvquad.cpv import CpvProblem, cpv_standard
from cpvquad.error_model import (
    EPS,
    DerivativeEstimates,
    ErrorBudget,
    _pair_looks_like_jump,
    cutoff_budget,
    derivative_estimates,
    difference_quotient_roundoff,
    json_number,
    log_term_sensitivity,
    symmetric_quotient_roundoff,
    total_error_estimate,
)
from cpvquad.quadrature import NonfiniteIntegrandError

from helpers import float32_quotient_errors, roundoff_floor, stencil_at

#: The number of budget terms; a test that builds a budget takes this many.
_TERMS = len(ErrorBudget._fields)


class TestMachineEpsilon:
    def test_value(self):
        assert EPS == 2.0**-53

    def test_is_half_float_spacing(self):
        import sys

        assert EPS == sys.float_info.epsilon / 2.0


class TestSymmetricQuotientRoundoff:
    def test_unit_point(self):
        assert symmetric_quotient_roundoff(1.0, 1.0, 1e-16) == 8e-16

    def test_small_point_dominated_by_reciprocal(self):
        bound = symmetric_quotient_roundoff(1e-8, 1.0, 1.1e-16)
        assert bound == pytest.approx(4.4e-8, rel=1e-7)

    def test_zero_slope_gives_zero(self):
        assert symmetric_quotient_roundoff(0.5, 0.0) == 0.0

    def test_scales_linearly_in_slope(self):
        one = symmetric_quotient_roundoff(0.25, 1.0)
        three = symmetric_quotient_roundoff(0.25, 3.0)
        assert three == pytest.approx(3.0 * one, rel=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_point(self, x):
        with pytest.raises(ValueError):
            symmetric_quotient_roundoff(x, 1.0)

    def test_rejects_negative_slope_and_bad_eps(self):
        with pytest.raises(ValueError):
            symmetric_quotient_roundoff(0.5, -1.0)
        with pytest.raises(ValueError):
            symmetric_quotient_roundoff(0.5, 1.0, 0.0)

    @given(
        x_small=st.floats(1e-12, 1.0),
        factor=st.floats(1.0, 1e6),
        d1=st.floats(0.0, 1e3),
    )
    def test_monotone_decreasing_in_x(self, x_small, factor, d1):
        x_large = x_small * factor
        assert symmetric_quotient_roundoff(
            x_small, d1
        ) >= symmetric_quotient_roundoff(x_large, d1)


class TestDifferenceQuotientRoundoff:
    def test_calibrated_point(self):
        assert difference_quotient_roundoff(8e-16, 1.0, 1e-16) == 1.0

    def test_moderate_distance(self):
        bound = difference_quotient_roundoff(0.5, 2.0, 1.1e-16)
        assert bound == pytest.approx(3.52e-15, rel=1e-15)

    def test_zero_slope_gives_zero(self):
        assert difference_quotient_roundoff(0.1, 0.0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            difference_quotient_roundoff(0.0, 1.0)
        with pytest.raises(ValueError):
            difference_quotient_roundoff(0.1, -2.0)
        with pytest.raises(ValueError):
            difference_quotient_roundoff(0.1, 1.0, -1e-16)

    @given(
        dx_small=st.floats(1e-12, 1.0),
        factor=st.floats(1.0, 1e6),
        d1=st.floats(0.0, 1e3),
    )
    def test_monotone_decreasing_in_distance(self, dx_small, factor, d1):
        dx_large = dx_small * factor
        assert difference_quotient_roundoff(
            dx_small, d1
        ) >= difference_quotient_roundoff(dx_large, d1)


class TestCutoffBudget:
    def test_machine_epsilon_cutoff(self):
        bound = cutoff_budget(EPS, 1.0, 1.1e-16)
        expected = 16.0 * 1.1e-16 * math.log(2.0**53) + 2.0 * EPS
        assert bound == pytest.approx(expected, rel=1e-12)
        assert bound == pytest.approx(6.49e-14, rel=1e-3)

    def test_no_cutoff_means_pure_truncation(self):
        # at mu = 1 the log term vanishes and only the skipped mass remains
        assert cutoff_budget(1.0, 5.0) == 10.0

    def test_zero_slope_gives_zero(self):
        assert cutoff_budget(0.5, 0.0) == 0.0

    def test_rejects_out_of_range_cutoff(self):
        with pytest.raises(ValueError):
            cutoff_budget(0.0, 1.0)
        with pytest.raises(ValueError):
            cutoff_budget(-1e-3, 1.0)
        with pytest.raises(ValueError):
            cutoff_budget(1.5, 1.0)

    @given(mu=st.floats(1e-300, 1.0), d1=st.floats(0.0, 1e3))
    def test_scales_linearly_in_slope(self, mu, d1):
        base = cutoff_budget(mu, 1.0)
        assert cutoff_budget(mu, d1) == pytest.approx(d1 * base, rel=1e-12)


class TestDerivativeEstimates:
    def test_linear_function(self):
        d = derivative_estimates(CpvProblem(lambda x: 3.0 * x, 0.1), 3.0 * 0.1)
        assert d.f1 == pytest.approx(3.0, abs=1e-6)
        assert d.f2 == pytest.approx(0.0, abs=1e-6)

    def test_square(self):
        d = derivative_estimates(CpvProblem(lambda x: x * x, 0.5), 0.25)
        assert d.f1 == pytest.approx(1.0, abs=1e-6)
        assert d.f2 == pytest.approx(2.0, abs=1e-6)
        assert d.step == 5e-5

    def test_exponential_at_center(self):
        d = derivative_estimates(CpvProblem(math.exp, 0.0), 1.0)
        assert d.f1 == pytest.approx(1.0, rel=1e-5)
        assert d.f2 == pytest.approx(1.0, rel=1e-5)
        assert d.step == 1e-4

    def test_step_floor_for_wide_interval(self):
        # delta * 1e-4 below the cube root floor: the floor wins
        d = derivative_estimates(CpvProblem(math.exp, 0.99), math.exp(0.99))
        assert d.step == EPS ** (1.0 / 3.0)

    def test_step_clamped_near_endpoint(self):
        tau = 0.9999999
        d = derivative_estimates(CpvProblem(math.exp, tau), math.exp(tau))
        assert d.step == 0.5 * (1.0 - tau)

    def test_f_tau_skips_one_call(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.sin(x)

        d = derivative_estimates(CpvProblem(f, 0.2), f_tau=math.sin(0.2))
        # the stencils at s and s/2, which show no jump
        assert calls == [0.2 + d.step, 0.2 - d.step,
                         0.2 + d.step / 2, 0.2 - d.step / 2]
        assert not d.jump

    def test_nonfinite_sample_reports_abscissa(self):
        def f(x):
            return math.nan if x > 0.2 else 1.0

        with pytest.raises(NonfiniteIntegrandError) as excinfo:
            derivative_estimates(CpvProblem(f, 0.2), f(0.2))
        assert excinfo.value.x == pytest.approx(0.2 + 1e-4 * 0.8, rel=1e-12)

    def test_step_floor_scales_with_interval(self):
        # half-width 10: the floor is ten times the one on [-1, 1]
        d = derivative_estimates(CpvProblem(math.exp, 9.75, -10.0, 10.0),
                                 math.exp(9.75))
        assert d.step == EPS ** (1.0 / 3.0) * 10.0
        assert d.f1 == pytest.approx(math.exp(9.75), rel=1e-8)

    def test_step_floor_scales_with_tau(self):
        # |tau| beyond the half-width sets the floor: tau +- step rounds at
        # ulp(tau)
        d = derivative_estimates(CpvProblem(math.exp, 30.2, 30.0, 50.0),
                                 math.exp(30.2))
        assert d.step == EPS ** (1.0 / 3.0) * 30.2
        assert d.f1 == pytest.approx(math.exp(30.2), rel=1e-8)

    def test_step_never_vanishes_at_large_offsets(self):
        # at c = 1e13 a step of delta * 1e-4 is below half an ulp of tau,
        # so tau +- step would equal tau and f1 would read zero
        c = 1e13
        d = derivative_estimates(
            CpvProblem(lambda x: math.sin(x - c), c, c - 1.0, c + 1.0), 0.0
        )
        assert d.step == 0.5
        assert d.f1 == pytest.approx(2.0 * math.sin(0.5), rel=1e-15)

    def test_finite_samples_whose_sum_overflows_raise_nothing(self):
        # f(tau) + f(tau+s) + f(tau-s) overflows although each is finite
        d = derivative_estimates(CpvProblem(lambda x: 1e308, 0.0), 1e308)
        assert d.f1 == 0.0

    def test_explicit_step(self):
        d = stencil_at(math.exp, 0.0, 2.5e-5)
        assert d.step == 2.5e-5
        assert d.f1 == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("case", builtin_problems(),
                             ids=lambda case: case.name)
    def test_helper_stencil_matches_bit_for_bit(self, case):
        # the tests' own stencil is the one derivative_estimates takes
        f, tau = case.integrand, case.tau
        d = derivative_estimates(CpvProblem(f, tau), f(tau))
        mine = stencil_at(f, tau, d.step)
        assert (mine.f1.hex(), mine.f2.hex()) == (d.f1.hex(), d.f2.hex())


def _estimates(f, tau):
    """derivative_estimates for f at tau on [-1, 1]."""
    return derivative_estimates(CpvProblem(f, tau), f(tau))


class TestJumpAtTau:
    @pytest.mark.parametrize("tau", [0.3, -0.5, 0.1, 0.0])
    @pytest.mark.parametrize("size", [1.0, -1e-6, 1e200])
    def test_step_is_a_jump(self, tau, size):
        def step(x):
            return 2.0 + (size if x >= tau else 0.0)

        assert _estimates(step, tau).jump

    def test_jump_riding_on_a_slope(self):
        def f(x):
            return math.exp(x) + (0.5 if x > 0.25 else -0.5)

        assert _estimates(f, 0.25).jump

    def test_costs_two_calls_per_halving(self):
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 if x >= 0.3 else 0.0

        d = derivative_estimates(CpvProblem(f, 0.3), 1.0)
        assert d.jump
        s = d.step
        assert calls == [0.3 + s, 0.3 - s, 0.3 + s / 2, 0.3 - s / 2,
                         0.3 + s / 4, 0.3 - s / 4, 0.3 + s / 8, 0.3 - s / 8]

    # the solver-level negatives are in test_cpv.py::TestJumpAtTau; these
    # add a rounding-only difference, a Hölder-1/2 point whose quadrature
    # runs to the interval cap, and a huge magnitude
    @pytest.mark.parametrize(
        "f,tau",
        [
            (lambda x: math.cos(x - 0.3), 0.3),
            (lambda x: math.copysign(math.sqrt(abs(x - 0.3)), x - 0.3), 0.3),
            (lambda x: 1e300 * math.exp(x), 0.5),
        ],
        ids=["flat-offset", "signed-sqrt", "1e300exp"],
    )
    def test_continuous_is_not_a_jump(self, f, tau):
        assert not _estimates(f, tau).jump

    def test_nonfinite_estimates_are_not_a_jump(self):
        # f(tau+s) - f(tau-s) overflows, so every f1 is infinite
        def f(x):
            return 1.7e308 if x >= 0.5 else -1.7e308

        d = _estimates(f, 0.5)
        assert d.f1 == math.inf
        assert not d.jump

    def test_no_sinusoid_is_flagged(self):
        # every K whose first pair agrees by chance is rejected by the next
        agreeing = 0
        for i in range(2000):
            k = 10.0 ** (1.0 + 5.0 * i / 2000.0)
            f = lambda x: math.sin(k * x)
            coarse = _estimates(f, 0.0)
            fine = stencil_at(f, 0.0, 0.5 * coarse.step)
            agreeing += _pair_looks_like_jump(
                coarse.step, coarse.f1, coarse.f2, fine.f1, f(0.0), 0.0
            )
            assert not coarse.jump
        assert agreeing > 50


class TestLogTermSensitivity:
    def test_zero_at_center(self):
        assert log_term_sensitivity(5.0, 0.0) == 0.0

    def test_near_endpoint_floor(self):
        bound = log_term_sensitivity(math.exp(0.9999999), 0.9999999, 1.1e-16)
        assert 2.5e-9 <= bound <= 3.5e-9

    def test_grows_with_endpoint_proximity(self):
        mid = log_term_sensitivity(1.0, 0.5)
        close = log_term_sensitivity(1.0, 0.999)
        assert close > 100.0 * mid

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log_term_sensitivity(1.0, 1.0)
        with pytest.raises(ValueError):
            log_term_sensitivity(math.nan, 0.5)

    def test_general_interval_uses_callers_distance(self):
        # tau = 2.5 is 0.5 from both ends of [2, 3]
        assert log_term_sensitivity(1.0, 2.5, 1e-16, 2.0, 3.0) == 5e-16
        with pytest.raises(ValueError):
            log_term_sensitivity(1.0, 0.5, 1e-16, 2.0, 3.0)


def _at(tau, a=-1.0, b=1.0, **options):
    """A problem at tau on [a, b] for budgets built from a given stencil and
    f(tau): total_error_estimate never calls its integrand."""
    return CpvProblem(math.exp, tau, a, b, **options)


def _curvature_term(tau, f2, a=-1.0, b=1.0):
    """The budget's curvature term for a stencil with the given f''."""
    deriv = DerivativeEstimates(0.0, f2, 1e-4, False)
    budget = total_error_estimate(_at(tau, a, b), deriv, 0.0)
    return budget.curvature_sensitivity


class TestCurvatureSensitivity:
    def test_zero_at_center(self):
        assert _curvature_term(0.0, 100.0) == 0.0

    def test_zero_for_flat_function(self):
        assert _curvature_term(0.7, 0.0) == 0.0

    def test_narrow_bump_magnitude(self):
        # steep modulated bump: curvature term lands around 1e-13
        def bump(x):
            return math.exp(-100.0 * (x + 0.4) ** 2) * math.sin(
                math.exp(-10.0 * x)
            )

        problem = CpvProblem(bump, -0.41)
        d = derivative_estimates(problem, bump(-0.41))
        budget = total_error_estimate(problem, d, bump(-0.41))
        bound = budget.curvature_sensitivity
        assert 1e-14 <= bound <= 1e-12

    def test_general_interval_keeps_the_form(self):
        assert _curvature_term(8.0, 4.0, 7.5, 8.5) == 8.0 * EPS * 8.0 * 2.0
        with pytest.raises(ValueError):
            _curvature_term(0.5, 1.0, 7.5, 8.5)

    def test_sign_of_the_curvature_does_not_matter(self):
        assert _curvature_term(0.5, -4.0) == _curvature_term(0.5, 4.0)


class TestTotalErrorEstimate:
    def test_center_reduces_to_roundoff(self):
        problem = CpvProblem(lambda x: x, 0.0)
        budget = total_error_estimate(
            problem, derivative_estimates(problem, 0.0), 0.0)
        assert budget.roundoff == 8.0 * EPS
        assert budget.total == budget.roundoff
        assert budget.log_sensitivity == 0.0
        assert budget.curvature_sensitivity == 0.0
        assert budget.cutoff == 0.0

    def test_moderate_singularity_floor(self):
        problem = CpvProblem(math.exp, 0.5)
        deriv = derivative_estimates(problem, math.exp(0.5))
        budget = total_error_estimate(problem, deriv, math.exp(0.5))
        assert 1e-16 < budget.total < 1e-14

    def test_near_endpoint_is_log_dominated(self):
        tau = 0.9999999
        problem = CpvProblem(math.exp, tau)
        deriv = derivative_estimates(problem, math.exp(tau))
        budget = total_error_estimate(problem, deriv, math.exp(tau))
        assert budget.total == pytest.approx(3.0e-9, rel=0.1)
        assert budget.log_sensitivity > 0.99 * budget.total

    def test_quadrature_pieces_enter_additively(self):
        problem = CpvProblem(math.exp, 0.3)
        deriv = derivative_estimates(problem, math.exp(0.3))
        base = total_error_estimate(problem, deriv, math.exp(0.3))
        assert base[:3] == (0.0, 0.0, 0.0)
        bumped = base._replace(quad_left=1e-13, quad_right=2e-13, quad_h=3e-13)
        assert bumped.total == pytest.approx(base.total + 6e-13, rel=1e-12)

    def test_cutoff_method_charges_cutoff_budget(self):
        deriv = derivative_estimates(CpvProblem(math.exp, 0.5), math.exp(0.5))
        open_budget = total_error_estimate(_at(0.5), deriv, math.exp(0.5))
        cut_budget = total_error_estimate(
            _at(0.5, mu=1e-8), deriv, math.exp(0.5)
        )
        assert open_budget.cutoff == 0.0
        assert cut_budget.cutoff == cutoff_budget(1e-8, abs(deriv.f1))

    def test_cutoff_defaults_to_machine_epsilon(self):
        # a cutoff at the rounding unit
        problem = CpvProblem(math.exp, 0.5, mu=EPS)
        deriv = derivative_estimates(problem, math.exp(0.5))
        budget = total_error_estimate(problem, deriv, math.exp(0.5))
        assert budget.cutoff == cutoff_budget(EPS, abs(deriv.f1))

    def test_roundoff_scales_with_interval_and_tau(self):
        deriv = DerivativeEstimates(2.0, 0.0, 1e-4, False)
        wide = total_error_estimate(_at(1.0, -3.0, 5.0), deriv, 0.0)
        assert wide.roundoff == 8.0 * EPS * 2.0 * 4.0
        # tau +- x round at ulp(tau): the scale is |tau| once it exceeds
        # the half-width
        offset = total_error_estimate(_at(1000.0, 999.0, 1001.0), deriv, 0.0)
        assert offset.roundoff == 8.0 * EPS * 2.0 * 1000.0

    def test_cutoff_in_callers_units(self):
        deriv = DerivativeEstimates(3.0, 0.0, 1e-4, False)
        budget = total_error_estimate(
            _at(2.0, 0.0, 4.0, mu=1e-6), deriv, 1.0
        )
        assert budget.cutoff == cutoff_budget(1e-6 / 2.0, 2.0 * 3.0)

    def test_floor_is_the_roundoff_terms(self):
        problem = CpvProblem(math.exp, 0.9999999)
        deriv = derivative_estimates(problem, math.exp(0.9999999))
        floor = total_error_estimate(problem, deriv, math.exp(0.9999999))
        assert roundoff_floor(floor) == floor.total

    def test_overflowed_derivatives_give_infinite_terms(self):
        deriv = DerivativeEstimates(math.inf, math.inf, 1e-4, False)
        budget = total_error_estimate(_at(0.5, mu=1e-8), deriv, 1.0)
        assert budget.roundoff == math.inf
        assert budget.curvature_sensitivity == math.inf
        assert budget.cutoff == math.inf
        assert budget.log_sensitivity == log_term_sensitivity(1.0, 0.5)

    @pytest.mark.parametrize(
        "f_tau,message",
        [(math.inf, "f_tau must be finite, got inf")],
        ids=["f_tau"],
    )
    def test_rejects_each_bad_argument_by_name(self, f_tau, message):
        deriv = DerivativeEstimates(1.0, 0.0, 1e-4, False)
        with pytest.raises(ValueError, match=message):
            total_error_estimate(_at(0.5), deriv, f_tau)

    def test_refuses_a_cutoff_beyond_delta(self):
        # the problem refuses it, before any budget is built
        deriv = DerivativeEstimates(1.0, 0.0, 1e-4, False)
        with pytest.raises(ValueError, match=r"^cutoff mu must lie in "
                                             r"\(0, 0\.5\]"):
            total_error_estimate(_at(0.5, mu=0.6), deriv, 1.0)

    def test_open_method_ignores_mu(self):
        # mu = 0, of either sign, is the open method and charges nothing
        deriv = DerivativeEstimates(1.0, 0.0, 1e-4, False)
        for zero in (0.0, -0.0):
            budget = total_error_estimate(_at(0.5, mu=zero), deriv, 1.0)
            assert budget.cutoff == 0.0

    def test_budget_total_is_field_sum(self):
        budget = ErrorBudget(*map(float, range(1, _TERMS + 1)))
        assert budget.total == _TERMS * (_TERMS + 1) / 2

    def test_budget_total_adds_left_to_right_in_field_order(self):
        # 1.0 + 2**-53 rounds to 1.0, twice; adding from the right, or a
        # compensated sum (math.fsum, and from Python 3.12 on the builtin
        # sum() of floats), gives 1 + 2**-52, so `total` must stay an
        # explicit left-to-right addition
        budget = ErrorBudget(1.0, 2**-53, 2**-53, *[0.0] * (_TERMS - 3))
        assert budget.total == 1.0
        assert math.fsum(budget) == 1.0 + 2**-52

    @given(st.lists(st.floats(), min_size=_TERMS, max_size=_TERMS))
    def test_budget_total_is_the_left_to_right_sum_bit_for_bit(self, terms):
        # st.floats() draws signed zeros, infinities and NaN
        expected = terms[0]
        for term in terms[1:]:
            expected = expected + term
        for budget in (ErrorBudget(*terms),
                       tuple.__new__(ErrorBudget, terms)):
            if math.isnan(expected):
                assert math.isnan(budget.total)
            else:
                assert budget.total.hex() == expected.hex()

    def test_as_dict_lists_every_term_in_field_order(self):
        budget = ErrorBudget(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
        assert list(budget._asdict().items()) == [
            ("quad_left", 1.0),
            ("quad_right", 2.0),
            ("quad_h", 3.0),
            ("roundoff", 4.0),
            ("log_sensitivity", 5.0),
            ("curvature_sensitivity", 6.0),
            ("cutoff", 7.0),
        ]

    def test_as_dict_covers_every_field(self):
        budget = ErrorBudget(*map(float, range(1, _TERMS + 1)))
        assert budget._asdict() == dict(zip(ErrorBudget._fields, budget))
        assert list(budget.as_json_dict()) == list(ErrorBudget._fields)

    def test_as_json_dict_writes_nonfinite_terms_as_null(self):
        zeros = [0.0] * (_TERMS - 6)
        budget = ErrorBudget(1.0, math.inf, 3.0, math.nan, 5.0, 6.0, *zeros)
        json_terms = budget.as_json_dict()
        assert list(json_terms) == list(budget._asdict())
        assert list(json_terms.values()) == [1.0, None, 3.0, None, 5.0, 6.0,
                                             *zeros]

    @pytest.mark.parametrize("v,expected", [
        (math.nan, None), (math.inf, None), (-math.inf, None),
        (-2.5, -2.5), (1.7976931348623157e308, 1.7976931348623157e308),
    ])
    def test_json_number(self, v, expected):
        assert json_number(v) == expected


def _prologue_floor(problem):
    """The floor terms the prologue gives a problem on its own."""
    f_tau = problem.f(problem.tau)
    deriv = derivative_estimates(problem, f_tau)
    return total_error_estimate(problem, deriv, f_tau)[3:]


#: Native integrands whose quotients stay finite wherever tau lies.
_NATIVE = [math.sin, math.cos, math.atan, math.tanh, lambda x: x,
           lambda x: 2.5]


@st.composite
def _accepted_problems(draw):
    """Problems CpvProblem accepts: offset and wide intervals, tau anywhere
    inside, up to a few ulps of either end, and mu = 0, the open method, or
    anywhere in (0, delta].  The floor does not depend on tol, and a loose one ends the
    quadrature at its first application."""
    a = draw(st.one_of(st.just(0.0), st.floats(-1e300, 1e300)))
    width = draw(st.floats(1e-300, 1e300))
    fraction = draw(st.one_of(st.floats(0.0, 1.0),
                              st.floats(5e-324, 1e-300)))
    b = a + width
    tau = (b - fraction * (b - a) if draw(st.booleans())
           else a + fraction * (b - a))
    share = draw(st.one_of(st.just(0.0), st.floats(1e-300, 1.0),
                           st.floats(5e-324, 1e-300)))
    try:
        mu = share * min(tau - a, b - tau)
        return CpvProblem(draw(st.sampled_from(_NATIVE)), tau, a, b,
                          1e300, mu)
    except ValueError:
        assume(False)


class TestPrologueOnAcceptedProblems:
    """The prologue checks none of the problem's fields again: on every
    problem the constructor accepts it gives the solver's floor, or the
    solver's own refusal."""

    @settings(max_examples=200, deadline=None)
    @given(problem=_accepted_problems())
    # delta / 2 underflows: both refuse the problem with the same error
    @example(problem=CpvProblem(math.sin, 5e-324, 0.0, 1.0, 1e300))
    @example(problem=CpvProblem(math.atan, 3e9, -1e-3, 1e10, 1e300, 3e-299))
    def test_prologue_floor_is_the_solvers(self, problem):
        try:
            floor = _prologue_floor(problem)
        except ValueError as exc:
            floor = exc
        try:
            budget = cpv_standard(problem).budget
        except ValueError as exc:
            assert (type(floor), str(floor)) == (type(exc), str(exc))
            return
        assert [t.hex() for t in floor] == [t.hex() for t in budget[3:]]


class TestSinglePrecisionValidation:
    """Quotient bounds checked against measured float32 arithmetic error.

    Evaluating the quotients in single precision and comparing against a
    double precision run at the same rounded points isolates the arithmetic
    rounding the bounds are meant to cover.  The measured error must stay
    within a factor 4 of the pointwise bound across a geometric grid of
    distances from the singularity.
    """

    def test_bounds_cover_measured_error(self):
        rows = float32_quotient_errors()
        assert len(rows) == 60
        for x, h_err, h_bound, g_err, g_bound in rows:
            assert 0.0 < x <= 0.5
            assert h_err <= 4.0 * h_bound, f"symmetric quotient at x={x}"
            assert g_err <= 4.0 * g_bound, f"difference quotient at x={x}"

    def test_bounds_are_not_vacuous(self):
        # at least some grid points must see real rounding error, otherwise
        # the comparison proves nothing
        rows = float32_quotient_errors()
        assert sum(1 for r in rows if r[1] > 0.0) > 10
        assert sum(1 for r in rows if r[3] > 0.0) > 10
