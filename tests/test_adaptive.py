import math
from fractions import Fraction

import pytest

from cpvquad import quadrature
from cpvquad.quadrature import (
    AdaptiveResult,
    NonfiniteIntegrandError,
    QuotientOverflowError,
    SumOverflowError,
    _midpoint,
    adaptive_integrate,
    kronrod_pair_g10k21,
)

from helpers import (
    OnePieceResult,
    adaptive_integrate_reference,
    apply_rule_reference,
    make_difference_quotient,
    make_symmetric_quotient,
    one_piece,
    patterson_k43_rule,
)

#: Nodes of the engine's Kronrod rule: the evaluations of one application.
ORDER = len(kronrod_pair_g10k21().kronrod.nodes)

#: New nodes of the 43-point rule: the evaluations of one extension.
EXTENSION = len(patterson_k43_rule().nodes) - ORDER


@pytest.fixture
def set_cap(monkeypatch):
    """Set the engine's interval cap per non-empty piece for one test."""
    return lambda per_piece: monkeypatch.setattr(
        quadrature, "_INTERVALS_PER_PIECE", per_piece)


def _interlaced(new, old):
    """Whether the extension run `new` interlaces the pair run `old`, as the
    new nodes of the 43-point rule interlace the 21 Kronrod nodes."""
    return len(new) == EXTENSION and all(
        new[j] < x < new[j + 1] for j, x in enumerate(old)
    )


def _rule_runs(calls):
    """Split one piece's abscissae, in call order, into its applications.

    Calls come in strictly ascending runs: ORDER of them where the pair is
    applied to an interval, EXTENSION where an interval the pair was
    applied to is extended.  An extension run interlaces exactly one earlier
    pair run, the one on its interval, which is extended only once; so no
    abscissa is evaluated twice on an interval.  Returns the numbers of pair
    runs and of extension runs.
    """
    pairs = []
    extended = set()
    i = 0
    while i < len(calls):
        run = calls[i:i + EXTENSION]
        owners = [k for k, old in enumerate(pairs) if _interlaced(run, old)]
        if owners:
            assert len(owners) == 1 and owners[0] not in extended
            extended.add(owners[0])
            i += EXTENSION
            continue
        run = calls[i:i + ORDER]
        assert len(run) == ORDER
        assert all(x < y for x, y in zip(run, run[1:]))
        pairs.append(run)
        i += ORDER
    return len(pairs), len(extended)


class TestBasicContracts:
    def test_constant(self):
        result = one_piece(lambda x: 1.0, -1.0, 1.0, 1e-12)
        assert abs(result.value - 2.0) <= 1e-14
        assert result.error_estimate <= 1e-14
        assert result.converged

    def test_exponential(self):
        result = one_piece(math.exp, -1.0, 1.0, 1e-12)
        assert abs(result.value - (math.e - 1.0 / math.e)) <= 1e-13
        assert result.converged

    def test_near_singular_reciprocal(self):
        result = one_piece(lambda x: 1.0 / x, 1e-8, 1.0, 1e-12)
        assert abs(result.value - math.log(1e8)) <= 1e-10
        assert result.converged
        assert result.error_estimate <= 1e-12

    def test_degenerate_interval_short_circuits(self):
        result = one_piece(math.exp, 0.25, 0.25, 1e-12)
        assert result == OnePieceResult(0.0, 0.0, 0, True)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            one_piece(math.exp, 1.0, 0.0, 1e-12)
        with pytest.raises(ValueError):
            one_piece(math.exp, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            one_piece(math.exp, 0.0, 1.0, -1e-9)
        with pytest.raises(ValueError):
            one_piece(math.exp, -math.inf, 0.0, 1e-12)

    def test_estimate_totals_interval_estimates(self, set_cap):
        # capped at two intervals, the partition is the two halves, and the
        # value and estimate are their sums in ascending order
        def f(x):
            return math.cos(550.0 * x)

        set_cap(2)
        result = one_piece(f, -1.0, 1.0, 1e-12)
        pair = kronrod_pair_g10k21()
        lv, le = apply_rule_reference(pair, f, -1.0, 0.0)
        rv, re = apply_rule_reference(pair, f, 0.0, 1.0)
        assert result.evaluations == 3 * ORDER
        assert result.value == lv + rv
        assert result.error_estimate == le + re

    def test_intervals_tile_domain(self):
        # a constant changes no embedded difference beyond rounding, so both
        # runs refine alike; the final partition covers [-1, 1] once, so
        # the constant adds its integral 2 and no gap or overlap shows
        def f(x):
            return math.cos(550.0 * x)

        base = one_piece(f, -1.0, 1.0, 1e-12)
        shifted = one_piece(lambda x: f(x) + 1.0, -1.0, 1.0, 1e-12)
        assert base.evaluations > ORDER
        assert shifted.evaluations == base.evaluations
        assert abs(shifted.value - base.value - 2.0) <= 1e-12


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
        result = one_piece(f, a, b, tol)
        assert result.converged
        assert abs(result.value - exact) <= max(result.error_estimate, 10.0 * tol)


class TestDeterminismAndOpenness:
    def test_bit_identical_reruns(self):
        first = one_piece(lambda x: math.sin(550.0 * x), -1.0, 1.0, 1e-12)
        second = one_piece(lambda x: math.sin(550.0 * x), -1.0, 1.0, 1e-12)
        assert first.value == second.value
        assert first.error_estimate == second.error_estimate
        assert first.evaluations == second.evaluations

    def test_endpoints_never_evaluated(self):
        # integrable endpoint singularities at both ends: adaptation pushes
        # nodes toward 0 and 1 but the open rule must never touch them
        seen = []

        def f(x):
            seen.append(x)
            return 1.0 / math.sqrt(x * (1.0 - x))

        result = one_piece(f, 0.0, 1.0, 1e-12)
        assert math.isfinite(result.value)
        assert min(seen) > 0.0
        assert max(seen) < 1.0

    def test_divergent_integrand_flags_at_cap(self, set_cap):
        # 1/x over [0, 1] diverges; with a cap the run must neither crash
        # nor claim convergence, and the value stays finite because 0 is
        # never a node
        set_cap(500)
        result = one_piece(lambda x: 1.0 / x, 0.0, 1.0, 1e-12)
        assert not result.converged
        assert math.isfinite(result.value)
        assert result.error_estimate > 1e-12

    def test_divergent_integrand_uncapped_overflows_honestly(self):
        # without a tight cap the worst-first refinement digs down to
        # subnormal widths, where the reciprocal overflows; that surfaces
        # as a nonfinite-integrand report at the offending abscissa rather
        # than a wrong "converged" result
        with pytest.raises(NonfiniteIntegrandError) as excinfo:
            one_piece(lambda x: 1.0 / x, 0.0, 1.0, 1e-12)
        assert 0.0 < excinfo.value.x < 1e-300

    def test_cap_bounds_work(self, set_cap):
        set_cap(50)
        result = one_piece(lambda x: 1.0 / x, 0.0, 1.0, 1e-12)
        assert not result.converged
        # each bisection adds one interval and two applications
        assert result.evaluations <= ORDER + 2 * ORDER * 49


class TestNonfinitePropagation:
    def test_nan_region_reports_abscissa(self):
        def f(x):
            return math.nan if x > 0.5 else 1.0

        with pytest.raises(NonfiniteIntegrandError) as excinfo:
            one_piece(f, 0.0, 1.0, 1e-12)
        assert excinfo.value.x > 0.5

    def test_overflowing_integrand_reports(self):
        def f(x):
            return math.inf if x < -0.9 else math.cos(x)

        with pytest.raises(NonfiniteIntegrandError):
            one_piece(f, -1.0, 1.0, 1e-12)

    def test_two_nonfinite_nodes_report_the_lower(self):
        # f is called at all nodes of the interval, in ascending order,
        # before the lowest non-finite one is reported
        nodes = kronrod_pair_g10k21().kronrod.nodes
        calls = []

        def f(x):
            calls.append(x)
            if 0.5 < x < 0.6:
                return -math.inf
            return math.nan if 0.7 < x < 0.8 else 1.0

        with pytest.raises(NonfiniteIntegrandError) as excinfo:
            one_piece(f, -1.0, 1.0, 1e-12)
        assert excinfo.value.x == min(x for x in nodes if 0.5 < x < 0.6)
        assert any(0.7 < x < 0.8 for x in nodes)
        assert calls == list(nodes)

    @pytest.mark.parametrize(
        "value,a,b",
        # the Kronrod sum 3.4e308 overflows; the sum 2e307 does not, but
        # scaling it by the half-width 10 does
        [(1.7e308, -1.0, 1.0), (1e307, -10.0, 10.0)],
    )
    def test_overflowing_sum_of_finite_values_raises(self, value, a, b):
        calls = []

        def f(x):
            calls.append(x)
            return value

        with pytest.raises(SumOverflowError) as excinfo:
            one_piece(f, a, b, 1e-12)
        assert isinstance(excinfo.value, NonfiniteIntegrandError)
        assert f"weighted sum over [{a!r}, {b!r}] overflowed" in str(
            excinfo.value
        )
        assert a < excinfo.value.x < b
        assert len(calls) == ORDER

    def test_largest_finite_sum_is_returned(self):
        result = one_piece(lambda x: 8e307, -1.0, 1.0, 1e294)
        assert result.value == pytest.approx(1.6e308, rel=1e-15)
        assert result.evaluations == ORDER
        assert result.converged


class TestEvaluationCount:
    @pytest.mark.parametrize(
        "f,a,b,cap,reason",
        [
            (math.exp, 0.0, 1.0, 10_000, "tolerance"),
            (lambda x: 1.0 / x, 0.0, 1.0, 50, "interval_cap"),
            (lambda x: 1.0 / (x - 1.0), 1.0, 1.0 + 4096.0 * math.ulp(1.0),
             10_000, "width_floor"),
            # these two extend some of their intervals
            (lambda x: math.cos(550.0 * x), -1.0, 1.0, 10_000, "tolerance"),
            (math.sqrt, 0.0, 1.0, 10_000, "tolerance"),
        ],
    )
    def test_each_node_called_once(self, set_cap, f, a, b, cap, reason):
        # calls come in strictly ascending runs of ORDER, one per interval,
        # and of EXTENSION, at most one per interval and on none of its
        # earlier abscissae: no node is evaluated twice and none is skipped
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        set_cap(cap)
        result = one_piece(counted, a, b, 1e-12)
        assert result.stop_reason == reason
        assert len(calls) == result.evaluations
        applications, extensions = _rule_runs(calls)
        assert len(calls) == ORDER * applications + EXTENSION * extensions
        assert extensions <= applications

    @pytest.mark.parametrize("ulps,extended", [(8192.0, 0), (16384.0, 1)])
    def test_only_intervals_over_the_floor_are_extended(self, ulps, extended):
        # exp looks resolved on every interval this narrow, and the
        # tolerance is out of reach; only an [a, b] wider than 2**13 ulps is
        # extended, and its halves are not
        calls = []

        def counted(x):
            calls.append(x)
            return math.exp(x)

        one_piece(counted, 1.0, 1.0 + ulps * math.ulp(1.0), 1e-300)
        assert _rule_runs(calls)[1] == extended

    @pytest.mark.parametrize("f", [lambda x: math.cos(550.0 * x), math.sqrt])
    def test_resolved_intervals_are_extended(self, f):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        result = one_piece(counted, 0.0, 1.0, 1e-12)
        applications, extensions = _rule_runs(calls)
        assert 0 < extensions < applications
        assert result.evaluations == ORDER * applications + EXTENSION * extensions


class TestDiscontinuous:
    def test_step_function_converges_by_refinement(self):
        step = lambda x: 0.0 if x < 0.3 else 1.0
        result = one_piece(step, 0.0, 1.0, 1e-9)
        assert abs(result.value - 0.7) <= max(result.error_estimate, 1e-8)


class TestStopReason:
    def test_tolerance(self):
        result = one_piece(math.exp, 0.0, 1.0, 1e-12)
        assert result.stop_reason == "tolerance"
        assert result.converged

    def test_degenerate_interval_meets_tolerance(self):
        assert one_piece(math.exp, 0.5, 0.5, 1e-12).stop_reason == (
            "tolerance"
        )

    def test_interval_cap(self, set_cap):
        set_cap(50)
        result = one_piece(lambda x: 1.0 / x, 0.0, 1.0, 1e-12)
        assert result.stop_reason == "interval_cap"
        assert not result.converged

    def test_width_floor(self):
        # 4096 ulps wide: a few rounds of bisection leave every interval too
        # narrow to split while 1/(x - 1) still misses the tolerance
        b = 1.0 + 4096.0 * math.ulp(1.0)
        result = one_piece(lambda x: 1.0 / (x - 1.0), 1.0, b, 1e-12)
        assert result.stop_reason == "width_floor"
        assert not result.converged
        assert result.evaluations < ORDER + 2 * ORDER * 9

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-12, 1e-15])
    def test_reason_tolerance_exactly_when_converged(self, tol):
        for f, a, b in ((math.sqrt, 0.0, 1.0), (math.exp, 0.0, 1.0),
                        (lambda x: 1e3 * math.sin(300.0 * x), 0.0, 1.0)):
            result = one_piece(f, a, b, tol)
            assert (result.stop_reason == "tolerance") == result.converged
            assert result.converged == (result.error_estimate <= tol)

    def test_running_sum_drift_does_not_end_refinement(self):
        # the running sum of estimates reaches this tolerance exactly while
        # the ordered sum over the partition is a few ulps above it;
        # refinement resumes once and goes on until the returned estimate
        # meets it
        f = lambda x: math.sin(200.0 * x)
        tol = 0.004857041516511687
        resumes = []
        want = adaptive_integrate_reference(f, 0.0, 1.0, tol, resumes=resumes)
        assert len(resumes) == 1
        running, ordered = resumes[0]
        assert running <= tol < ordered
        result = one_piece(f, 0.0, 1.0, tol)
        assert result.value.hex() == want.value.hex()
        assert result.error_estimate.hex() == want.error_estimate.hex()
        assert result.evaluations == want.evaluations == 315
        assert result.stop_reason == want.stop_reason == "tolerance"
        assert result.converged
        assert result.error_estimate <= tol


class TestTooNarrowForTheRule:
    """An interval a few ulps wide cannot hold the rule's mapped nodes."""

    def test_midpoint_charge(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.exp(x)

        a, b = -1.0, -1.0 + 2.0 * math.ulp(0.5)
        result = one_piece(f, a, b, 1e-12)
        assert calls == [0.5 * (a + b)]
        assert a < calls[0] < b
        assert result.evaluations == 1
        assert result.value == (b - a) * math.exp(calls[0])
        assert result.error_estimate == abs(result.value)
        assert result.converged and result.stop_reason == "tolerance"

    def test_charge_above_tolerance(self):
        a, b = 3.0, 3.0 + 4.0 * math.ulp(3.0)
        result = one_piece(lambda x: 1e20, a, b, 1e-12)
        assert result.error_estimate == pytest.approx(1e20 * (b - a))
        assert not result.converged
        assert result.stop_reason == "width_floor"

    def test_no_double_inside(self):
        # one ulp wide: the midpoint rounds onto an endpoint, so nothing is
        # sampled and nothing is bounded
        a, b = 1.0, 1.0 + math.ulp(1.0)

        def f(x):
            raise AssertionError(f"evaluated at {x!r}")

        result = one_piece(f, a, b, 1e-12)
        assert result.evaluations == 0
        assert result.error_estimate == math.inf
        assert result.stop_reason == "width_floor"
        assert not result.converged

    def test_nonfinite_midpoint(self):
        with pytest.raises(NonfiniteIntegrandError):
            one_piece(lambda x: math.nan, 2.0, 2.0 + 8e-16, 1e-12)


def _recorded(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


class TestOnePieceMatchesReference:
    """One plain piece through the shared queue is the one-piece loop."""

    WIDE = 1.0 + 4096.0 * math.ulp(1.0)

    @pytest.mark.parametrize(
        "f,a,b,tol,cap,reason",
        [
            (math.exp, 0.0, 1.0, 1e-12, 10_000, "tolerance"),
            (lambda x: math.sin(550.0 * x), -1.0, 1.0, 1e-12, 10_000,
             "tolerance"),
            (math.sqrt, 0.0, 1.0, 1e-15, 10_000, "tolerance"),
            (lambda x: 1e3 * math.sin(300.0 * x), 0.0, 1.0, 5.56236e-9,
             10_000, "tolerance"),
            (lambda x: 1.0 / math.sqrt(x * (1.0 - x)), 0.0, 1.0, 1e-6,
             10_000, "tolerance"),
            (lambda x: 1.0 / x, 0.0, 1.0, 1e-12, 50, "interval_cap"),
            (lambda x: math.cos(550.0 * x), -1.0, 1.0, 1e-12, 2,
             "interval_cap"),
            (lambda x: 1.0 / x, 0.0, 1.0, 1e-12, 1, "interval_cap"),
            (lambda x: 1.0 / (x - 1.0), 1.0, WIDE, 1e-12, 10_000,
             "width_floor"),
            (math.log, 1.0, 1.0 + 64.0 * math.ulp(1.0), 1e-30, 10_000,
             "width_floor"),
            (math.exp, -1.0, -1.0 + 2.0 * math.ulp(0.5), 1e-12, 10_000,
             "tolerance"),
            (lambda x: 1e20, 3.0, 3.0 + 4.0 * math.ulp(3.0), 1e-12, 10_000,
             "width_floor"),
            (math.exp, 0.25, 0.25, 1e-12, 10_000, "tolerance"),
        ],
    )
    def test_bit_identical_to_the_one_piece_loop(self, set_cap, f, a, b, tol,
                                                 cap, reason):
        g, calls = _recorded(f)
        set_cap(cap)
        got = one_piece(g, a, b, tol)
        h, want_calls = _recorded(f)
        want = adaptive_integrate_reference(h, a, b, tol, max_intervals=cap)
        assert got.stop_reason == reason
        assert repr(got) == repr(want)
        assert got.value.hex() == want.value.hex()
        assert got.error_estimate.hex() == want.error_estimate.hex()
        assert calls == want_calls


def _interval_count(calls) -> int:
    """Intervals in a piece's final partition, from its abscissae: each
    bisection costs two applications of the pair and adds one interval to
    the first application's, and an extension adds none."""
    applications, _ = _rule_runs(calls)
    return (applications + 1) // 2


class TestSharedQueue:
    TAU = 0.1
    PIECES = (
        ("difference", -1.0, -0.5),
        ("difference", 0.7, 1.0),
        ("symmetric", 0.0, 0.6),
    )

    def _run(self, f, tol, pieces=PIECES):
        return adaptive_integrate(f, pieces, tol, self.TAU, f(self.TAU))

    def test_every_piece_matches_its_quotient(self):
        # one piece at a time, the fused kernels give what the plain engine
        # gives on the quotient functions
        f = lambda x: math.sin(9.0 * x) * math.exp(x)
        quotients = {
            "difference": make_difference_quotient(f, self.TAU),
            "symmetric": make_symmetric_quotient(f, self.TAU),
        }
        for form, a, b in self.PIECES:
            (value,), (estimate,), (evaluations,), reason = self._run(
                f, 1e-13, pieces=((form, a, b),)
            )
            want = one_piece(quotients[form], a, b, 1e-13)
            assert value.hex() == want.value.hex()
            assert estimate.hex() == want.error_estimate.hex()
            assert evaluations == want.evaluations
            assert reason == want.stop_reason

    def test_initial_applications_run_in_piece_order(self):
        f, calls = _recorded(math.exp)
        self._run(f, 1e-3)
        assert len(calls) == 1 + 4 * ORDER
        calls = calls[1:]
        assert all(-1.0 < x < -0.5 for x in calls[:ORDER])
        assert all(0.7 < x < 1.0 for x in calls[ORDER:2 * ORDER])
        offsets = [x - self.TAU for x in calls[2 * ORDER::2]]
        assert all(0.0 < t < 0.6 for t in offsets)

    def test_calls_are_left_right_and_twice_symmetric(self):
        f, calls = _recorded(lambda x: math.sin(40.0 * x))
        _, _, (left, right, symmetric), _ = self._run(f, 1e-13)
        assert min(left, right, symmetric) > ORDER
        assert len(calls) == 1 + left + right + 2 * symmetric

    def _piece_calls(self, calls):
        """The abscissae of the left, right and symmetric piece, in call
        order: the symmetric piece's from the first call of each pair,
        tau + t, which ascends with t."""
        middle = [x for x in calls if -0.5 <= x <= 0.7]
        return ([x for x in calls if x < -0.5], [x for x in calls if x > 0.7],
                middle[::2])

    @pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-10, 1e-11, 1e-12])
    def test_converged_exactly_when_the_sum_meets_tol(self, set_cap, tol):
        # 14 intervals per piece, 42 in all, meet every tolerance but the
        # last, which stops at the cap
        f, calls = _recorded(lambda x: 1e3 * math.sin(300.0 * x))
        set_cap(14)
        _, estimates, evaluations, reason = self._run(f, tol)
        total = 0.0
        for e in estimates:
            total += e
        assert (reason == "tolerance") == (total <= tol)
        assert (reason == "tolerance") == (tol > 1e-12)
        if total > tol:
            assert reason == "interval_cap"
            pieces = self._piece_calls(calls[1:])
            assert sum(map(_interval_count, pieces)) == 42

    def test_refinement_goes_where_the_error_is(self):
        # a kink inside the right piece only: the smooth pieces keep their
        # first application while the kinked one is refined
        _, _, (left, right, symmetric), reason = self._run(
            lambda x: abs(x - 0.8123), 1e-12
        )
        assert reason == "tolerance"
        assert left == ORDER and symmetric == ORDER
        assert right > ORDER

    def test_cap_counts_the_whole_partition(self, set_cap):
        pieces = (("plain", 0.0, 1.0), ("plain", 1.0, 1.0),
                  ("plain", -1.0, 0.0))
        # 1/sqrt(x) never meets the tolerance near 0, and sin(300x) needs
        # refining too, so both pieces take intervals from the one cap of
        # 25 per non-empty piece; the empty one adds none
        set_cap(25)
        f, calls = _recorded(
            lambda x: 1.0 / math.sqrt(x) if x > 0.0 else math.sin(300.0 * x)
        )
        values, estimates, evaluations, reason = adaptive_integrate(
            f, pieces, 1e-12, 0.0, 0.0
        )
        first, empty, last = evaluations
        assert (_interval_count([x for x in calls if x > 0.0])
                + _interval_count([x for x in calls if x < 0.0])) == 50
        assert first > ORDER and last > ORDER
        assert reason == "interval_cap"
        assert (values[1], estimates[1], empty) == (0.0, 0.0, 0)

    def test_extensions_add_no_interval_to_the_cap(self, set_cap):
        # sin(100x) looks resolved on some of its intervals, which are
        # extended once; the cap still counts the partition's intervals
        pieces = (("plain", 0.0, 1.0), ("plain", -1.0, 0.0))
        set_cap(25)
        f, calls = _recorded(
            lambda x: 1.0 / math.sqrt(x) if x > 0.0 else math.sin(100.0 * x)
        )
        _, _, evaluations, reason = adaptive_integrate(
            f, pieces, 1e-12, 0.0, 0.0
        )
        left = [x for x in calls if x < 0.0]
        applications, extensions = _rule_runs(left)
        assert extensions > 0
        assert evaluations[1] == ORDER * applications + EXTENSION * extensions
        assert (_interval_count([x for x in calls if x > 0.0])
                + _interval_count(left)) == 50
        assert reason == "interval_cap"

    def test_ties_go_to_the_earlier_piece(self, set_cap):
        # two copies of one piece tie on every estimate; the sequence number
        # decides, so the first copy is bisected first.  The third piece,
        # where f is linear, is never picked; it makes the cap of 2 per
        # piece, 6, odd in bisections: each copy once, then the first
        # copy's child that ties with the second copy's
        pieces = (("plain", 0.0, 1.0), ("plain", 0.0, 1.0),
                  ("plain", 2.0, 3.0))
        set_cap(2)
        _, _, evaluations, reason = adaptive_integrate(
            lambda x: abs(x - 0.3), pieces, 1e-15, 0.0, 0.0
        )
        assert evaluations == [5 * ORDER, 3 * ORDER, ORDER]
        assert reason == "interval_cap"

    def test_nonfinite_value_names_its_piece(self):
        # the error names the abscissa where f itself is not finite: x in
        # the right difference piece, or tau + t for an offset t of the
        # symmetric piece, (0.3, 0.35) here
        for lo, hi in ((0.8, 0.9), (0.4, 0.45)):
            def f(x):
                return math.nan if lo < x < hi else 1.0

            with pytest.raises(NonfiniteIntegrandError) as excinfo:
                self._run(f, 1e-12)
            assert type(excinfo.value) is NonfiniteIntegrandError
            assert lo < excinfo.value.x < hi

    def test_overflowing_sum_names_its_piece(self):
        # the symmetric quotient of 6e307 x is 1.2e308 at every node, and
        # its Kronrod sum overflows; the difference quotients stay at 6e307
        f = lambda x: 6e307 * x
        pieces = (("difference", -1.0, -0.5), ("symmetric", 0.0, 0.5))
        with pytest.raises(QuotientOverflowError) as excinfo:
            adaptive_integrate(f, pieces, 1e-12, 0.5, f(0.5))
        assert excinfo.value.quotient == "symmetric"
        assert excinfo.value.interval == (0.0, 0.5)

    def test_one_point_charge_counts_in_the_sum(self):
        narrow = ("difference", -1.0, -1.0 + 2.0 * math.ulp(0.5))
        wide = ("symmetric", 0.0, 0.5)
        f, calls = _recorded(math.exp)
        values, estimates, (charged, symmetric), reason = adaptive_integrate(
            f, (narrow, wide), 1e-12, 0.5, math.exp(0.5)
        )
        assert charged == 1
        assert estimates[0] == abs(values[0]) > 0.0
        assert reason == "tolerance"
        assert len(calls) == 1 + 2 * symmetric

    @pytest.mark.parametrize(
        "narrow",
        [(3.0, 3.0 + 4.0 * math.ulp(3.0)), (1.0, 1.0 + math.ulp(1.0))],
        ids=["charge above tol", "no double inside"],
    )
    def test_charge_above_tol_ends_refinement(self, narrow):
        # no bisection can lower the charge, so the other piece keeps its
        # first application instead of refining to the cap
        pieces = (("plain", *narrow), ("plain", 0.0, 1.0))
        _, estimates, evaluations, reason = adaptive_integrate(
            lambda x: 1e20 * math.sqrt(x), pieces, 1e-12, 0.0, 0.0
        )
        assert estimates[0] > 1e-12
        assert evaluations[1] == ORDER
        assert reason == "width_floor"

    def test_rejects_unknown_form_and_bad_bounds(self):
        with pytest.raises(ValueError):
            adaptive_integrate(math.exp, (("cubic", 0.0, 1.0),), 1e-12,
                               0.0, 0.0)
        with pytest.raises(ValueError):
            adaptive_integrate(math.exp, (("plain", 0.0, 1.0),
                                          ("plain", 2.0, 1.0)), 1e-12,
                               0.0, 0.0)
        with pytest.raises(ValueError):
            adaptive_integrate(math.exp, (("plain", 0.0, math.inf),), 1e-12,
                               0.0, 0.0)

    def test_rejects_interval_wider_than_the_double_range(self):
        # b - a overflows; the half-width would be infinite and the value NaN
        with pytest.raises(ValueError, match="wider than the largest double"):
            one_piece(lambda x: 0.0, -1.5e308, 1.5e308, 1e-12)
        with pytest.raises(ValueError, match="wider than the largest double"):
            adaptive_integrate(math.exp, (("plain", 0.0, 1.0),
                                          ("difference", -1e308, 1e308)),
                               1e-12, 0.0, 0.0)

    @pytest.mark.parametrize(
        "bad,message",
        [
            (("cubic", 0.0, 1.0), "unknown integrand form 'cubic'"),
            (("plain", 2.0, 1.0), "need a <= b, got [2.0, 1.0]"),
            (("plain", 0.0, math.inf), "integration endpoints must be finite"),
            (("difference", -1e308, 1e308),
             "interval [-1e+308, 1e+308] is wider than the largest double"),
        ],
        ids=["form", "b<a", "infinite end", "width overflows"],
    )
    def test_a_bad_later_piece_is_refused_when_reached(self, bad, message):
        # the pieces are walked once, so the good first piece has had its
        # first application when the second is refused
        f, calls = _recorded(math.exp)
        with pytest.raises(ValueError) as excinfo:
            adaptive_integrate(f, (("plain", 0.0, 1.0), bad), 1e-12,
                               0.0, 0.0)
        assert str(excinfo.value) == message
        assert len(calls) == ORDER

    def test_tolerance_is_checked_before_the_pieces(self):
        f, calls = _recorded(math.exp)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            adaptive_integrate(f, (("plain", 0.0, 1.0), ("cubic", 0.0, 1.0)),
                               0.0, 0.0, 0.0)
        assert calls == []

    @pytest.mark.parametrize(
        "form,tau,f_tau",
        [("difference", math.inf, 0.0), ("difference", math.nan, 0.0),
         ("difference", 0.5, math.inf), ("symmetric", -math.inf, 0.0)],
        # unchecked, the first and last returned 0.0 at "tolerance", and
        # the other two raised QuotientOverflowError with f finite
        ids=["tau inf", "tau nan", "f_tau inf", "symmetric tau -inf"],
    )
    def test_nonfinite_tau_or_f_tau_is_refused_before_f_is_called(
            self, form, tau, f_tau):
        f, calls = _recorded(math.exp)
        with pytest.raises(ValueError) as excinfo:
            adaptive_integrate(f, ((form, 0.0, 0.25),), 1e-12, tau,
                               f_tau)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == (
            f"tau and f(tau) must be finite, got {tau!r} and {f_tau!r}"
        )
        assert calls == []

    def test_result_totals_the_evaluations_of_its_pieces(self, set_cap):
        met = self._run(math.exp, 1e-3)
        assert type(met) is AdaptiveResult
        assert met.piece_evaluations == [ORDER] * 3
        assert met.evaluations == 3 * ORDER
        assert met.converged and met.stop_reason == "tolerance"
        set_cap(14)
        capped = self._run(lambda x: 1e3 * math.sin(300.0 * x), 1e-12)
        assert capped.evaluations == sum(capped.piece_evaluations) > 3 * ORDER
        assert not capped.converged and capped.stop_reason == "interval_cap"


class TestSettledByFirstApplications:
    """A call whose first applications meet tol returns them as they stand,
    with what the ordered sums over a one-interval partition give."""

    TAU = 0.5
    NARROW = ("difference", 0.25, 0.25 + 4.0 * math.ulp(0.25))

    def test_negative_zero_charge_comes_back_as_zero(self):
        # f is constant, so the quotient at the midpoint left of tau is
        # 0.0 / negative = -0.0, and so is the one-point charge; the
        # ordered sum 0.0 + -0.0 makes it 0.0
        values, estimates, evaluations, reason = adaptive_integrate(
            lambda x: 1.0, (self.NARROW,), 1e-12, self.TAU, 1.0
        )
        assert [v.hex() for v in values] == ["0x0.0p+0"]
        assert [e.hex() for e in estimates] == ["0x0.0p+0"]
        assert evaluations == [1]
        assert reason == "tolerance"

    def test_tol_equal_to_the_summed_first_estimates_is_met(self, monkeypatch):
        pieces = (("difference", -1.0, -0.5), ("symmetric", 0.0, 0.5))
        f = lambda x: math.sin(9.0 * x)
        at_tau = (self.TAU, f(self.TAU))
        # a cap of one interval per piece stops at the first applications
        with monkeypatch.context() as patched:
            patched.setattr(quadrature, "_INTERVALS_PER_PIECE", 1)
            first = adaptive_integrate(f, pieces, 1e-300, *at_tau)
        assert first[3] == "interval_cap"
        total = 0.0
        for e in first[1]:
            total += e
        assert adaptive_integrate(f, pieces, total, *at_tau) == (
            *first[:3], "tolerance"
        )
        below = adaptive_integrate(f, pieces, math.nextafter(total, 0.0),
                                   *at_tau)
        assert below[2] != first[2]

    def test_evaluations_per_piece(self):
        # an empty piece, a one-point charge and two first applications,
        # whose symmetric piece calls f twice per node
        pieces = (("plain", 0.75, 0.75), self.NARROW,
                  ("difference", 0.75, 1.0), ("symmetric", 0.0, 0.25))
        f, calls = _recorded(math.exp)
        _, _, evaluations, reason = adaptive_integrate(
            f, pieces, 1e-3, self.TAU, math.exp(self.TAU)
        )
        assert reason == "tolerance"
        assert evaluations == [0, 1, ORDER, ORDER]
        assert len(calls) == 1 + ORDER + 2 * ORDER


class TestHugeEndpoints:
    """Intervals whose ends both exceed about 9e307 in magnitude, where
    a + b overflows and the midpoint is 0.5 * a + 0.5 * b instead."""

    @pytest.mark.parametrize(
        "a,b", [(1.0, 3.0), (-1e308, 1e300), (-1e308, -8.75e307),
                (1.7e308, 1.79e308)],
    )
    def test_midpoint_lies_strictly_inside(self, a, b):
        mid = _midpoint(a, b)
        assert a < mid < b
        if math.isfinite(a + b):
            # an interval whose sum is finite keeps its bits
            assert mid == 0.5 * (a + b)

    @pytest.mark.parametrize("b", [1e300, 7e307])
    def test_runs_to_the_cap_with_a_finite_value(self, b):
        # the intervals [-1e308, -8.75e307] and narrower are bisected on
        # the way; tol 1e-12 lies far below the rounding of a 1e308 value
        result = one_piece(lambda x: 1.0, -1e308, b, 1e-12)
        assert math.isfinite(result.value)
        assert math.isfinite(result.error_estimate)
        assert result.stop_reason == "interval_cap"
        assert result.value == pytest.approx(b + 1e308, rel=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="the estimate has no term for the rounding of the sum over "
               "10,000 interval values, which reaches about 1e-13 relative",
    )
    @pytest.mark.parametrize("b", [1e300, 7e307])
    def test_error_within_estimate(self, b):
        result = one_piece(lambda x: 1.0, -1e308, b, 1e-12)
        error = abs(Fraction(result.value) - (Fraction(b) + Fraction(1e308)))
        assert error <= Fraction(result.error_estimate)

    def test_bit_identical_to_the_one_piece_loop(self, set_cap):
        # with 8 intervals or more the partition holds [-1e308, -8.75e307]
        g, calls = _recorded(lambda x: 1.0)
        set_cap(50)
        got = one_piece(g, -1e308, 1e300, 1e-12)
        h, want_calls = _recorded(lambda x: 1.0)
        want = adaptive_integrate_reference(
            h, -1e308, 1e300, 1e-12, max_intervals=50
        )
        assert repr(got) == repr(want)
        assert calls == want_calls
        assert all(-1e308 < x < 1e300 for x in calls)
