import math

import pytest

from cpvquad.quadrature import (
    AdaptiveResult,
    NonfiniteIntegrandError,
    adaptive_integrate,
)


class TestBasicContracts:
    def test_constant(self):
        result = adaptive_integrate(lambda x: 1.0, -1.0, 1.0, 1e-12)
        assert abs(result.value - 2.0) <= 1e-14
        assert result.error_estimate <= 1e-14
        assert result.converged

    def test_exponential(self):
        result = adaptive_integrate(math.exp, -1.0, 1.0, 1e-12)
        assert abs(result.value - (math.e - 1.0 / math.e)) <= 1e-13
        assert result.converged

    def test_near_singular_reciprocal(self):
        result = adaptive_integrate(lambda x: 1.0 / x, 1e-8, 1.0, 1e-12)
        assert abs(result.value - math.log(1e8)) <= 1e-10
        assert result.converged
        assert result.error_estimate <= 1e-12

    def test_degenerate_interval_short_circuits(self):
        result = adaptive_integrate(math.exp, 0.25, 0.25, 1e-12)
        assert result == AdaptiveResult(0.0, 0.0, 0, (), True)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            adaptive_integrate(math.exp, 1.0, 0.0, 1e-12)
        with pytest.raises(ValueError):
            adaptive_integrate(math.exp, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            adaptive_integrate(math.exp, 0.0, 1.0, -1e-9)
        with pytest.raises(ValueError):
            adaptive_integrate(math.exp, -math.inf, 0.0, 1e-12)

    def test_estimate_totals_interval_estimates(self):
        result = adaptive_integrate(lambda x: math.sin(550.0 * x), -1.0, 1.0, 1e-12)
        total = sum(piece.estimate for piece in result.intervals)
        assert result.error_estimate == pytest.approx(total, rel=1e-12)

    def test_intervals_tile_domain(self):
        result = adaptive_integrate(lambda x: math.sin(550.0 * x), -1.0, 1.0, 1e-12)
        pieces = sorted(result.intervals)
        assert pieces[0].a == -1.0
        assert pieces[-1].b == 1.0
        for left, right in zip(pieces, pieces[1:]):
            assert left.b == right.a


class TestSoundness:
    CASES = [
        (math.exp, -1.0, 1.0, math.e - math.exp(-1.0)),
        (math.exp, -0.3, 0.77, math.exp(0.77) - math.exp(-0.3)),
        (
            lambda x: math.sin(37.0 * x),
            -0.5,
            0.5,
            0.0,
        ),
        (
            lambda x: math.sin(550.0 * x),
            0.1,
            0.9,
            (math.cos(55.0) - math.cos(495.0)) / 550.0,
        ),
        (
            lambda x: x**30 - 3.0 * x**7 + 2.0 * x,
            -1.0,
            1.0,
            2.0 / 31.0,
        ),
        (
            lambda x: x**30 - 3.0 * x**7 + 2.0 * x,
            0.2,
            0.8,
            (0.8**31 - 0.2**31) / 31.0 - 3.0 * (0.8**8 - 0.2**8) / 8.0 + 0.8**2 - 0.2**2,
        ),
    ]

    @pytest.mark.parametrize("f,a,b,exact", CASES)
    def test_error_within_estimate_or_tolerance(self, f, a, b, exact):
        tol = 1e-12
        result = adaptive_integrate(f, a, b, tol)
        assert result.converged
        assert abs(result.value - exact) <= max(result.error_estimate, 10.0 * tol)


class TestDeterminismAndOpenness:
    def test_bit_identical_reruns(self):
        first = adaptive_integrate(lambda x: math.sin(550.0 * x), -1.0, 1.0, 1e-12)
        second = adaptive_integrate(lambda x: math.sin(550.0 * x), -1.0, 1.0, 1e-12)
        assert first.value == second.value
        assert first.error_estimate == second.error_estimate
        assert first.evaluations == second.evaluations
        assert first.intervals == second.intervals

    def test_endpoints_never_evaluated(self):
        # integrable endpoint singularities at both ends: adaptation pushes
        # nodes toward 0 and 1 but the open rule must never touch them
        seen = []

        def f(x):
            seen.append(x)
            return 1.0 / math.sqrt(x * (1.0 - x))

        result = adaptive_integrate(f, 0.0, 1.0, 1e-12)
        assert math.isfinite(result.value)
        assert min(seen) > 0.0
        assert max(seen) < 1.0

    def test_divergent_integrand_flags_at_cap(self):
        # 1/x over [0, 1] diverges; with a cap the run must neither crash
        # nor claim convergence, and the value stays finite because 0 is
        # never a node
        result = adaptive_integrate(
            lambda x: 1.0 / x, 0.0, 1.0, 1e-12, max_intervals=500
        )
        assert not result.converged
        assert math.isfinite(result.value)
        assert result.error_estimate > 1e-12

    def test_divergent_integrand_uncapped_overflows_honestly(self):
        # without a tight cap the worst-first refinement digs down to
        # subnormal widths, where the reciprocal overflows; that surfaces
        # as a nonfinite-integrand report at the offending abscissa rather
        # than a wrong "converged" result
        with pytest.raises(NonfiniteIntegrandError) as excinfo:
            adaptive_integrate(lambda x: 1.0 / x, 0.0, 1.0, 1e-12)
        assert 0.0 < excinfo.value.x < 1e-300

    def test_cap_bounds_work(self):
        result = adaptive_integrate(
            lambda x: 1.0 / x, 0.0, 1.0, 1e-12, max_intervals=50
        )
        assert not result.converged
        assert len(result.intervals) <= 50


class TestNonfinitePropagation:
    def test_nan_region_reports_abscissa(self):
        def f(x):
            return math.nan if x > 0.5 else 1.0

        with pytest.raises(NonfiniteIntegrandError) as excinfo:
            adaptive_integrate(f, 0.0, 1.0, 1e-12)
        assert excinfo.value.x > 0.5

    def test_overflowing_integrand_reports(self):
        def f(x):
            return math.inf if x < -0.9 else math.cos(x)

        with pytest.raises(NonfiniteIntegrandError):
            adaptive_integrate(f, -1.0, 1.0, 1e-12)


class TestDiscontinuous:
    def test_step_function_converges_by_refinement(self):
        step = lambda x: 0.0 if x < 0.3 else 1.0
        result = adaptive_integrate(step, 0.0, 1.0, 1e-9)
        assert abs(result.value - 0.7) <= max(result.error_estimate, 1e-8)


class TestStopReason:
    def test_tolerance(self):
        result = adaptive_integrate(math.exp, 0.0, 1.0, 1e-12)
        assert result.stop_reason == "tolerance"
        assert result.converged

    def test_degenerate_interval_meets_tolerance(self):
        assert adaptive_integrate(math.exp, 0.5, 0.5, 1e-12).stop_reason == (
            "tolerance"
        )

    def test_interval_cap(self):
        result = adaptive_integrate(
            lambda x: 1.0 / x, 0.0, 1.0, 1e-12, max_intervals=50
        )
        assert result.stop_reason == "interval_cap"
        assert not result.converged

    def test_width_floor(self):
        # 4096 ulps wide: two rounds of bisection leave every interval too
        # narrow to split while 1/(x - 1) still misses the tolerance
        b = 1.0 + 4096.0 * math.ulp(1.0)
        result = adaptive_integrate(lambda x: 1.0 / (x - 1.0), 1.0, b, 1e-12)
        assert result.stop_reason == "width_floor"
        assert not result.converged
        assert len(result.intervals) < 10

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-12, 1e-15])
    def test_reason_tolerance_exactly_when_converged(self, tol):
        for f, a, b in ((math.sqrt, 0.0, 1.0), (math.exp, 0.0, 1.0),
                        (lambda x: 1e3 * math.sin(300.0 * x), 0.0, 1.0)):
            result = adaptive_integrate(f, a, b, tol)
            assert (result.stop_reason == "tolerance") == result.converged
            assert result.converged == (result.error_estimate <= tol)

    def test_running_sum_drift_does_not_end_refinement(self):
        # the running sum of estimates reaches this tolerance a few 1e-14
        # before the ordered sum over the partition does; refinement goes
        # on until the returned estimate meets it
        tol = 5.56236e-9
        result = adaptive_integrate(
            lambda x: 1e3 * math.sin(300.0 * x), 0.0, 1.0, tol
        )
        assert result.stop_reason == "tolerance"
        assert result.converged
        assert result.error_estimate <= tol


class TestTooNarrowForTheRule:
    """An interval a few ulps wide cannot hold the 15 mapped nodes."""

    def test_midpoint_charge(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.exp(x)

        a, b = -1.0, -1.0 + 2.0 * math.ulp(0.5)
        result = adaptive_integrate(f, a, b, 1e-12)
        assert calls == [0.5 * (a + b)]
        assert a < calls[0] < b
        assert result.evaluations == 1
        assert result.value == (b - a) * math.exp(calls[0])
        assert result.error_estimate == abs(result.value)
        assert result.intervals == (
            (a, b, result.value, result.error_estimate),
        )
        assert result.converged and result.stop_reason == "tolerance"

    def test_charge_above_tolerance(self):
        a, b = 3.0, 3.0 + 4.0 * math.ulp(3.0)
        result = adaptive_integrate(lambda x: 1e20, a, b, 1e-12)
        assert result.error_estimate == pytest.approx(1e20 * (b - a))
        assert not result.converged
        assert result.stop_reason == "width_floor"

    def test_no_double_inside(self):
        # one ulp wide: the midpoint rounds onto an endpoint, so nothing is
        # sampled and nothing is bounded
        a, b = 1.0, 1.0 + math.ulp(1.0)

        def f(x):
            raise AssertionError(f"evaluated at {x!r}")

        result = adaptive_integrate(f, a, b, 1e-12)
        assert result.evaluations == 0
        assert result.error_estimate == math.inf
        assert result.stop_reason == "width_floor"
        assert not result.converged

    def test_nonfinite_midpoint(self):
        with pytest.raises(NonfiniteIntegrandError):
            adaptive_integrate(lambda x: math.nan, 2.0, 2.0 + 8e-16, 1e-12)
