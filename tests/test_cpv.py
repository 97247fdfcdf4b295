"""Tests for the principal value decomposition and its cross-check schemes."""

import math

import pytest

from cpvquad import cpv as cpv_module
from cpvquad.cpv import (
    CpvProblem,
    QuotientOverflowError,
    cpv_general,
    cpv_standard,
    endpoint_distance,
    longman_split,
    make_difference_quotient,
    make_symmetric_quotient,
    singular_log_term,
    subtract_singularity,
)
from cpvquad.quadrature import NonfiniteIntegrandError

from helpers import cpv_monomial

# independently derived reference for f(x) = e^x, tau = 1/2 on [-1, 1]
EXP_HALF_REFERENCE = float("0.913786431723662428316752218177")


class TestEndpointDistance:
    def test_center(self):
        assert endpoint_distance(0.0) == 1.0

    def test_half(self):
        assert endpoint_distance(0.5) == 0.5

    def test_near_right_endpoint(self):
        assert endpoint_distance(0.99) == pytest.approx(0.01, abs=1e-15)

    def test_symmetry(self):
        for tau in (0.1, 0.37, 0.925):
            assert endpoint_distance(tau) == endpoint_distance(-tau)

    @pytest.mark.parametrize("tau", [-1.0, 1.0, -1.5, 2.0, math.inf, math.nan])
    def test_rejects_outside_open_interval(self, tau):
        with pytest.raises(ValueError):
            endpoint_distance(tau)


class TestDifferenceQuotient:
    def test_linear_function_gives_slope(self):
        g = make_difference_quotient(lambda x: 3.0 * x + 1.0, 0.2)
        for x in (-0.9, -0.3, 0.6, 0.95):
            assert g(x) == pytest.approx(3.0, abs=1e-14)

    def test_square_at_minus_one(self):
        # for f(x) = x^2 the quotient is x + tau, so g(-1) = tau - 1
        g = make_difference_quotient(lambda x: x * x, 0.5)
        assert g(-1.0) == -0.5

    def test_exponential_value(self):
        g = make_difference_quotient(math.exp, 0.5)
        expected = (math.e - math.exp(0.5)) / 0.5
        assert g(1.0) == pytest.approx(expected, rel=1e-15)

    def test_captured_value_is_used(self):
        # passing f_tau overrides whatever f would return at tau
        g = make_difference_quotient(lambda x: x, 0.0, f_tau=1.0)
        assert g(0.5) == (0.5 - 1.0) / 0.5


class TestSymmetricQuotient:
    def test_identity_function_is_constant_two(self):
        # tau = 0 keeps tau + x and tau - x exact, so the quotient is 2.0
        # to the last bit at every x
        h = make_symmetric_quotient(lambda x: x, 0.0)
        for x in (1e-12, 1e-6, 0.1, 0.6):
            assert h(x) == 2.0

    def test_identity_function_off_center(self):
        h = make_symmetric_quotient(lambda x: x, 0.3)
        for x in (1e-6, 0.1, 0.6):
            assert h(x) == pytest.approx(2.0, rel=1e-9)

    def test_square_gives_four_tau(self):
        h = make_symmetric_quotient(lambda x: x * x, 0.5)
        assert h(0.25) == 2.0

    def test_exponential(self):
        h = make_symmetric_quotient(math.exp, 0.0)
        assert h(1.0) == pytest.approx(math.e - 1.0 / math.e, rel=1e-15)

    def test_tends_to_twice_derivative(self):
        h = make_symmetric_quotient(math.sin, 0.4)
        assert h(1e-7) == pytest.approx(2.0 * math.cos(0.4), abs=1e-8)


class TestSingularLogTerm:
    def test_zero_at_center(self):
        assert singular_log_term(math.exp, 0.0) == 0.0

    def test_constant_function(self):
        expected = math.log(0.5 / 1.5)
        assert singular_log_term(lambda x: 1.0, 0.5) == pytest.approx(
            expected, rel=1e-15
        )

    def test_exponential_near_endpoint(self):
        expected = math.exp(0.99) * math.log(0.01 / 1.99)
        assert singular_log_term(math.exp, 0.99) == pytest.approx(
            expected, rel=1e-15
        )

    def test_validates_tau(self):
        with pytest.raises(ValueError):
            singular_log_term(math.exp, 1.0)


class TestProblemValidation:
    def test_defaults_are_reference_interval(self):
        p = CpvProblem(f=math.exp, tau=0.5)
        assert (p.a, p.b) == (-1.0, 1.0)
        assert p.method == "open"

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            CpvProblem(f=math.exp, tau=0.5, a=1.0, b=-1.0)

    def test_rejects_tau_on_boundary(self):
        with pytest.raises(ValueError):
            CpvProblem(f=math.exp, tau=-1.0)
        with pytest.raises(ValueError):
            CpvProblem(f=math.exp, tau=2.0, a=0.0, b=2.0)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            CpvProblem(f=math.exp, tau=0.0, tol=0.0)
        with pytest.raises(ValueError):
            CpvProblem(f=math.exp, tau=0.0, tol=-1e-12)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            CpvProblem(f=math.exp, tau=0.0, method="closed")

    def test_rejects_cutoff_out_of_range(self):
        with pytest.raises(ValueError):
            CpvProblem(f=math.exp, tau=0.5, method="cutoff", mu=0.0)
        with pytest.raises(ValueError):
            CpvProblem(f=math.exp, tau=0.5, method="cutoff", mu=0.6)

    def test_rejects_tau_indistinguishable_from_endpoint(self):
        # tau is strictly inside [a, b] but maps onto 1.0 after the affine
        # reduction, so the singularity cannot be separated from the endpoint
        with pytest.raises(ValueError, match="indistinguishable"):
            CpvProblem(f=math.exp, tau=0.5, a=-1e16, b=1.0)

    def test_unit_tau_identity_on_reference_interval(self):
        p = CpvProblem(f=math.exp, tau=0.37)
        assert p.unit_tau() == 0.37

    def test_standard_rejects_general_interval(self):
        p = CpvProblem(f=math.exp, tau=1.0, a=0.0, b=2.0)
        with pytest.raises(ValueError, match="reference interval"):
            cpv_standard(p)

    def test_nonfinite_f_at_tau_reports_abscissa(self):
        def f(x):
            return math.nan if x == 0.5 else 1.0

        with pytest.raises(NonfiniteIntegrandError) as excinfo:
            cpv_standard(CpvProblem(f=f, tau=0.5))
        assert excinfo.value.x == 0.5

    def test_symmetric_quotient_overflow_is_named(self):
        # f stays finite, but (f(tau+x) - f(tau-x)) / x approaches 2e308
        with pytest.raises(QuotientOverflowError) as excinfo:
            cpv_standard(CpvProblem(f=lambda x: 1e308 * x, tau=0.5))
        assert excinfo.value.quotient == "symmetric"
        assert "symmetric quotient overflowed" in str(excinfo.value)
        assert 0.0 < excinfo.value.x <= 0.5

    def test_difference_quotient_overflow_is_named(self):
        # f(x) - f(tau) overflows on the left piece while f stays finite
        def f(x):
            return -1.5e308 if x < -0.5 else 1.5e308

        with pytest.raises(QuotientOverflowError) as excinfo:
            cpv_standard(CpvProblem(f=f, tau=0.6))
        assert excinfo.value.quotient == "difference"
        assert -1.0 < excinfo.value.x < -0.5

    def test_nan_inside_reports_the_integrand_abscissa(self):
        def f(x):
            return math.nan if x > 0.55 else x

        with pytest.raises(NonfiniteIntegrandError) as excinfo:
            cpv_standard(CpvProblem(f=f, tau=0.5))
        assert type(excinfo.value) is NonfiniteIntegrandError
        assert excinfo.value.x > 0.55
        assert math.isnan(f(excinfo.value.x))


class TestStandardAccuracy:
    @pytest.mark.parametrize("tau", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_constant_integrand_matches_log(self, tau):
        result = cpv_standard(CpvProblem(f=lambda x: 1.0, tau=tau))
        expected = math.log((1.0 - tau) / (1.0 + tau))
        assert abs(result.value - expected) <= 1e-13
        assert result.converged

    def test_identity_integrand_at_center(self):
        result = cpv_standard(CpvProblem(f=lambda x: x, tau=0.0))
        assert abs(result.value - 2.0) <= 1e-13

    def test_exponential_against_reference(self):
        result = cpv_standard(CpvProblem(f=math.exp, tau=0.5))
        assert abs(result.value - EXP_HALF_REFERENCE) <= 5e-12
        assert result.converged

    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("tau", [-0.9, -0.5, 0.1, 0.5, 0.9])
    def test_monomials_match_closed_form(self, k, tau):
        result = cpv_standard(CpvProblem(f=lambda x: x**k, tau=tau))
        assert abs(result.value - cpv_monomial(k, tau)) <= 1e-12

    def test_even_integrand_at_center_vanishes(self):
        # f even and tau = 0 make f(x)/x odd; the symmetric quotient is
        # identically zero in floating point, so the value is exact
        result = cpv_standard(CpvProblem(f=math.cos, tau=0.0))
        assert result.value == 0.0

    def test_linearity_within_budgets(self):
        tau = 0.3
        p1 = cpv_standard(CpvProblem(f=math.exp, tau=tau))
        p2 = cpv_standard(CpvProblem(f=math.cos, tau=tau))
        combo = cpv_standard(
            CpvProblem(f=lambda x: 2.0 * math.exp(x) - 3.0 * math.cos(x), tau=tau)
        )
        slack = (
            combo.error_estimate
            + 2.0 * p1.error_estimate
            + 3.0 * p2.error_estimate
        )
        assert abs(combo.value - (2.0 * p1.value - 3.0 * p2.value)) <= slack


class TestDecompositionMechanics:
    def test_estimate_equals_budget_total(self):
        result = cpv_standard(CpvProblem(f=math.exp, tau=0.33))
        assert result.error_estimate == result.budget.total

    def test_center_call_count_identity(self):
        # at tau = 0 both one-sided pieces are empty, so every quadrature
        # evaluation costs two calls of f (symmetric quotient) and the only
        # extras are f(tau) and the two derivative stencil points
        calls = [0]

        def f(x):
            calls[0] += 1
            return math.exp(x)

        result = cpv_standard(CpvProblem(f=f, tau=0.0))
        assert calls[0] == 2 * result.evaluations + 3

    def _spy_factories(self, monkeypatch, seen_g, seen_h):
        orig_dq = cpv_module.make_difference_quotient
        orig_sq = cpv_module.make_symmetric_quotient

        def spy_dq(f, tau, f_tau=None):
            q = orig_dq(f, tau, f_tau)

            def wrapped(x):
                seen_g.append(x)
                return q(x)

            return wrapped

        def spy_sq(f, tau):
            q = orig_sq(f, tau)

            def wrapped(x):
                seen_h.append(x)
                return q(x)

            return wrapped

        monkeypatch.setattr(cpv_module, "make_difference_quotient", spy_dq)
        monkeypatch.setattr(cpv_module, "make_symmetric_quotient", spy_sq)

    def test_pieces_stay_open_and_far_side_is_empty(self, monkeypatch):
        seen_g, seen_h = [], []
        self._spy_factories(monkeypatch, seen_g, seen_h)
        cpv_standard(CpvProblem(f=math.exp, tau=0.5))
        # delta = 0.5: difference quotient only on (-1, 0), symmetric
        # quotient only on (0, 0.5), all strictly interior
        assert seen_g and all(-1.0 < x < 0.0 for x in seen_g)
        assert seen_h and all(0.0 < x < 0.5 for x in seen_h)

    def test_center_skips_difference_quotient_entirely(self, monkeypatch):
        seen_g, seen_h = [], []
        self._spy_factories(monkeypatch, seen_g, seen_h)
        cpv_standard(CpvProblem(f=math.exp, tau=0.0))
        assert seen_g == []
        assert seen_h and all(0.0 < x < 1.0 for x in seen_h)

    def test_negative_tau_mirrors_sides(self, monkeypatch):
        seen_g, seen_h = [], []
        self._spy_factories(monkeypatch, seen_g, seen_h)
        cpv_standard(CpvProblem(f=math.exp, tau=-0.5))
        assert seen_g and all(0.0 < x < 1.0 for x in seen_g)
        assert seen_h and all(0.0 < x < 0.5 for x in seen_h)

    def test_cutoff_method_starts_at_mu(self, monkeypatch):
        seen_g, seen_h = [], []
        self._spy_factories(monkeypatch, seen_g, seen_h)
        mu = 1e-6
        cpv_standard(CpvProblem(f=math.exp, tau=0.5, method="cutoff", mu=mu))
        assert seen_h and all(mu < x < 0.5 for x in seen_h)

    def test_deterministic_reruns(self):
        p = CpvProblem(f=lambda x: math.sin(3.0 * x) + x * x, tau=0.4)
        first = cpv_standard(p)
        second = cpv_standard(p)
        assert first.value == second.value
        assert first.error_estimate == second.error_estimate
        assert first.evaluations == second.evaluations


class TestMethodAgreement:
    @pytest.mark.parametrize(
        "f,tau",
        [(math.exp, 0.5), (math.sin, -0.3), (math.cos, 0.9)],
        ids=["exp", "sin", "cos"],
    )
    def test_open_and_cutoff_agree_within_budgets(self, f, tau):
        open_result = cpv_standard(CpvProblem(f=f, tau=tau, method="open"))
        cut_result = cpv_standard(CpvProblem(f=f, tau=tau, method="cutoff"))
        slack = open_result.error_estimate + cut_result.error_estimate
        assert abs(open_result.value - cut_result.value) <= slack

    def test_cutoff_budget_charged_only_for_cutoff(self):
        open_result = cpv_standard(CpvProblem(f=math.exp, tau=0.5, method="open"))
        cut_result = cpv_standard(
            CpvProblem(f=math.exp, tau=0.5, method="cutoff", mu=1e-10)
        )
        assert open_result.budget.cutoff == 0.0
        assert cut_result.budget.cutoff > 0.0


class TestGeneralInterval:
    def test_constant_on_symmetric_interval_about_tau(self):
        result = cpv_general(lambda x: 1.0, 1.0, 0.0, 2.0)
        assert result.value == pytest.approx(0.0, abs=1e-13)

    def test_constant_on_asymmetric_interval(self):
        result = cpv_general(lambda x: 1.0, 1.0, 0.0, 4.0)
        assert result.value == pytest.approx(math.log(3.0), rel=1e-13)

    def test_identity_integrand(self):
        result = cpv_general(lambda x: x, 1.0, 0.0, 2.0)
        assert result.value == pytest.approx(2.0, abs=1e-13)

    def test_matches_standard_on_reference_interval(self):
        general = cpv_general(math.exp, 0.5, -1.0, 1.0)
        standard = cpv_standard(CpvProblem(f=math.exp, tau=0.5))
        assert general.value == standard.value
        assert general.evaluations == standard.evaluations

    def test_affine_invariance_of_kernel(self):
        # shifting and scaling the problem leaves the principal value of
        # a transported integrand unchanged
        base = cpv_standard(CpvProblem(f=math.exp, tau=0.25))
        moved = cpv_general(
            lambda x: math.exp((x - 5.0) / 2.0), 5.5, 3.0, 7.0
        )
        assert moved.value == pytest.approx(base.value, abs=1e-12)

    def test_validates_tau_inside(self):
        with pytest.raises(ValueError):
            cpv_general(math.exp, 0.0, 1.0, 2.0)

    def test_nan_reported_at_the_callers_abscissa(self):
        def f(x):
            return math.nan if x > 1.9 else x

        with pytest.raises(NonfiniteIntegrandError) as excinfo:
            cpv_general(f, 1.0, 0.0, 2.0)
        assert type(excinfo.value) is NonfiniteIntegrandError
        x = excinfo.value.x
        assert 1.9 < x <= 2.0
        assert math.isnan(f(x))
        assert repr(x) in str(excinfo.value)

    def test_symmetric_overflow_reported_at_the_callers_offset(self):
        # f stays below 1.5e308 on [3.5, 4.5], while its symmetric quotient
        # about tau = 4 is 6e308 in the caller's coordinates (3e308 mapped)
        def f(x):
            return 3.0 * (1e308 * (x - 4.0))

        with pytest.raises(QuotientOverflowError) as excinfo:
            cpv_general(f, 4.0, 3.5, 4.5)
        assert excinfo.value.quotient == "symmetric"
        x = excinfo.value.x
        assert 0.0 < x <= 0.5
        assert math.isfinite(f(4.0 + x)) and math.isfinite(f(4.0 - x))
        assert (f(4.0 + x) - f(4.0 - x)) / x == math.inf
        assert repr(x) in str(excinfo.value)
        with pytest.raises(QuotientOverflowError) as mapped:
            cpv_standard(CpvProblem(f=lambda t: f(4.0 + 0.5 * t), tau=0.0))
        assert x == 0.5 * mapped.value.x

    def test_difference_overflow_reported_at_the_callers_abscissa(self):
        def f(x):
            return 3.0 * (1e308 * (x - 4.0))

        with pytest.raises(QuotientOverflowError) as excinfo:
            cpv_general(f, 4.2, 3.5, 4.5)
        assert excinfo.value.quotient == "difference"
        x = excinfo.value.x
        assert 3.5 <= x < 4.0
        assert math.isinf(f(x) - f(4.2))


class TestCrossCheckSchemes:
    def test_longman_constant(self):
        value = longman_split(lambda x: 1.0, 0.5)
        assert abs(value - math.log(1.0 / 3.0)) <= 1e-10

    def test_longman_center_matches_standard(self):
        value = longman_split(math.exp, 0.0)
        standard = cpv_standard(CpvProblem(f=math.exp, tau=0.0))
        assert abs(value - standard.value) <= 1e-10

    def test_longman_moderate_tau_agrees(self):
        value = longman_split(math.exp, -0.4)
        standard = cpv_standard(CpvProblem(f=math.exp, tau=-0.4))
        assert abs(value - standard.value) <= 1e-9

    def test_subtract_singularity_constant(self):
        value = subtract_singularity(lambda x: 1.0, 0.3)
        assert abs(value - math.log(0.7 / 1.3)) <= 1e-10

    def test_subtract_singularity_matches_standard(self):
        value = subtract_singularity(math.exp, 0.5)
        standard = cpv_standard(CpvProblem(f=math.exp, tau=0.5))
        assert abs(value - standard.value) <= 1e-9

    def test_subtract_singularity_validates_tau(self):
        with pytest.raises(ValueError):
            subtract_singularity(math.exp, -1.0)
