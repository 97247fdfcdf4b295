"""Tests for the principal value decomposition."""

import functools
import math
import pickle
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from cpvquad import cpv as cpv_module
from cpvquad.cpv import (
    CpvProblem,
    CpvResult,
    QuotientOverflowError,
    StopReasons,
    cpv_general,
    cpv_standard,
)
from cpvquad.benchmarks import builtin_problems
from cpvquad.error_model import (
    EPS,
    DerivativeEstimates,
    ErrorBudget,
    _pair_looks_like_jump,
    derivative_estimates,
    endpoint_distance,
    total_error_estimate,
)
from cpvquad.expressions import compile_expression, parse
from cpvquad.quadrature import (
    NonfiniteIntegrandError,
    gauss_legendre_rule,
    kronrod_pair_g7k15,
)

from helpers import (
    cpv_monomial,
    expr_trees,
    make_difference_quotient,
    make_symmetric_quotient,
    roundoff_floor,
    stencil_at,
    to_source,
)
from oracles import pv_exp_closed, pv_sin_interval

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

    def test_general_interval(self):
        assert endpoint_distance(2.25, 2.0, 4.0) == 0.25
        assert endpoint_distance(3.5, 2.0, 4.0) == 0.5
        with pytest.raises(ValueError):
            endpoint_distance(1.0, 2.0, 4.0)


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
    """The closed-form term f(tau) log((b-tau)/(tau-a)) of cpv_standard.

    For a constant f both quotients vanish identically, so the computed
    value is the log term alone.
    """

    def test_zero_at_center(self):
        assert cpv_standard(CpvProblem(f=lambda x: 5.0, tau=0.0)).value == 0.0
        assert cpv_standard(
            CpvProblem(f=lambda x: 5.0, tau=3.0, a=2.0, b=4.0)
        ).value == 0.0

    def test_constant_function(self):
        expected = math.log(0.5 / 1.5)
        result = cpv_standard(CpvProblem(f=lambda x: 1.0, tau=0.5))
        assert result.value == pytest.approx(expected, rel=1e-15)

    def test_exponential_near_endpoint(self):
        # only f(tau) = e^0.99 enters the log term
        f_tau = math.exp(0.99)
        expected = f_tau * math.log(0.01 / 1.99)
        result = cpv_standard(CpvProblem(f=lambda x: f_tau, tau=0.99))
        assert result.value == pytest.approx(expected, rel=1e-13)

    def test_validates_tau(self):
        with pytest.raises(ValueError):
            CpvProblem(f=math.exp, tau=1.0)

class TestProblemValidation:
    def test_defaults_are_reference_interval(self):
        p = CpvProblem(f=math.exp, tau=0.5)
        assert (p.a, p.b) == (-1.0, 1.0)
        assert p.method == "open"

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            CpvProblem(f=math.exp, tau=0.5, a=1.0, b=-1.0)

    @pytest.mark.parametrize("tau", [0.0, 0.9e308])
    def test_rejects_interval_wider_than_the_double_range(self, tau):
        # b - a overflows, so the decomposition would run on an infinite
        # half-width and return NaN in the value or its estimate
        with pytest.raises(ValueError, match="wider than the largest double"):
            cpv_general(lambda x: 1.0, tau, -1e308, 1e308)

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

    def test_accepts_tau_near_endpoint_of_wide_interval(self):
        # 0.5 is half a unit from b and 1e16 units from a; both distances
        # are positive doubles, so the problem is well posed as given
        result = cpv_standard(
            CpvProblem(f=lambda x: 1.0, tau=0.5, a=-1e16, b=1.0)
        )
        expected = math.log(0.5 / (0.5 + 1e16))
        assert result.value == pytest.approx(expected, rel=1e-13)

    def test_standard_on_general_interval_equals_general(self):
        standard = cpv_standard(
            CpvProblem(f=math.exp, tau=0.7, a=0.0, b=2.0)
        )
        general = cpv_general(math.exp, 0.7, 0.0, 2.0)
        assert standard == general

    def test_cutoff_mu_checked_against_callers_delta(self):
        # delta = 0.25 in the units of x on [2, 4]
        p = CpvProblem(f=math.exp, tau=2.25, a=2.0, b=4.0,
                       method="cutoff", mu=0.25)
        assert p.mu == 0.25
        with pytest.raises(ValueError, match=r"\(0, 0\.25\]"):
            CpvProblem(f=math.exp, tau=2.25, a=2.0, b=4.0,
                       method="cutoff", mu=0.3)
        with pytest.raises(ValueError):
            cpv_general(math.exp, 2.25, 2.0, 4.0, method="cutoff", mu=0.3)

    @pytest.mark.parametrize("f, mu", [
        (math.sin, 5e-324),  # mu / h underflows: the budget refused 0.0
        (math.sin, 1e-310),  # 1 / (mu / h) overflows: an infinite term
        (lambda x: 1.0, 1e-310),  # and 0 * log(inf): a NaN term
    ], ids=["sin-underflow", "sin-overflow", "constant-overflow"])
    def test_refuses_a_cutoff_the_budget_cannot_rescale(self, f, mu):
        # h = 4 on [-4, 4]; the budget charges log(1 / (mu / h))
        with pytest.raises(ValueError,
                           match=rf"^cutoff mu .* got {mu!r}$"):
            CpvProblem(f=f, tau=0.0, a=-4.0, b=4.0, method="cutoff", mu=mu)

    def test_smallest_cutoff_gets_a_finite_term(self):
        # the first double above 2**-1024 * h on [-4, 4] and the one below
        smallest = float.fromhex("0x1.0000000000003p-1022")
        below = math.nextafter(smallest, 0.0)
        assert below / 4.0 == 2.0**-1024 < smallest / 4.0
        for f, cutoff in ((math.sin, 5.043309371656655e-12),
                          (lambda x: 1.0, 0.0)):
            result = cpv_general(f, 0.0, -4.0, 4.0, method="cutoff",
                                 mu=smallest)
            assert result.budget.cutoff == cutoff
            assert result.converged
        with pytest.raises(ValueError, match="cutoff mu"):
            CpvProblem(f=math.sin, tau=0.0, a=-4.0, b=4.0, method="cutoff",
                       mu=below)

    def test_nonfinite_f_at_tau_reports_abscissa(self):
        def f(x):
            return math.nan if x == 0.5 else 1.0

        with pytest.raises(NonfiniteIntegrandError) as excinfo:
            cpv_standard(CpvProblem(f=f, tau=0.5))
        assert excinfo.value.x == 0.5

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["tau+s/2", "tau-s/2"])
    def test_nonfinite_f_on_the_half_step_stencil_reports_abscissa(self, side):
        # f is finite at tau and on the coarse stencil, so the jump test's
        # stencil at s/2 is the first to meet the NaN
        s = derivative_estimates(math.exp, 0.5, 0.5, math.exp(0.5)).step
        bad = 0.5 + side * (0.5 * s)

        def f(x):
            return math.nan if x == bad else math.exp(x)

        with pytest.raises(NonfiniteIntegrandError) as excinfo:
            cpv_standard(CpvProblem(f=f, tau=0.5))
        assert type(excinfo.value) is NonfiniteIntegrandError
        assert excinfo.value.x == bad

    def test_symmetric_quotient_overflow_is_named(self):
        # f stays finite, but (f(tau+x) - f(tau-x)) / x is 2e308; with tau
        # at the midpoint the symmetric piece is the only one
        with pytest.raises(QuotientOverflowError) as excinfo:
            cpv_standard(CpvProblem(f=lambda x: 1e308 * x, tau=0.0))
        assert excinfo.value.quotient == "symmetric"
        assert "symmetric quotient overflowed" in str(excinfo.value)
        assert 0.0 < excinfo.value.x < 1.0

    @pytest.mark.parametrize(
        "slope,tau,quotient",
        [(6e307, 0.5, "symmetric"), (1e308, 0.5, "difference")],
    )
    def test_overflowing_weighted_sum_is_a_quotient_overflow(
        self, slope, tau, quotient
    ):
        # every quotient value is finite (about 1.2e308 for the symmetric
        # quotient of 6e307 x, 1e308 for the difference quotient of
        # 1e308 x), but the Kronrod sum over an interval overflows
        with pytest.raises(QuotientOverflowError) as excinfo:
            cpv_standard(CpvProblem(f=lambda x: slope * x, tau=tau))
        assert excinfo.value.quotient == quotient
        assert f"{quotient} quotient overflowed" in str(excinfo.value)

    @pytest.mark.parametrize(
        "slope,interval", [(6e307, (0.0, 0.5)), (1e308, (-1.0, 0.0))]
    )
    def test_overflowing_weighted_sum_is_named_as_a_sum(self, slope, interval):
        # no quotient value overflowed, so the message names the sum and its
        # interval, not a quotient value at one abscissa
        with pytest.raises(QuotientOverflowError) as excinfo:
            cpv_standard(CpvProblem(f=lambda x: slope * x, tau=0.5))
        assert excinfo.value.interval == interval
        assert (
            f"weighted sum over [{interval[0]!r}, {interval[1]!r}]"
            in str(excinfo.value)
        )
        assert math.isfinite(slope * excinfo.value.x)

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

    @pytest.mark.parametrize("tau", [5e-324, 1e-323, 1e-200])
    def test_tau_within_subnormals_of_an_endpoint(self, tau):
        # the derivative step s * s underflows below s of about 1e-162, and
        # (1 - tau) / tau overflows at 1e-323; at 5e-324 the step is 0
        if tau == 5e-324:
            with pytest.raises(ValueError, match=r"tau = 5e-324 lies too close"):
                cpv_general(lambda x: x, tau, 0.0, 1.0)
            return
        result = cpv_general(lambda x: x, tau, 0.0, 1.0)
        assert result.converged
        # the principal value is 1 + tau log((1 - tau) / tau), 1.0 in doubles
        assert abs(result.value - 1.0) <= result.error_estimate <= 1e-15


def _battery(name: str) -> dict:
    """The problem of the battery case `name` at the battery's tol."""
    case = next(c for c in builtin_problems() if c.name == name)
    return dict(f=case.integrand, tau=case.tau, tol=1e-12)


#: One record of each kind and a change of one field.  The problem is the
#: one record that checks its fields, and its check refuses the change; the
#: rules are checked once, by their builders.
_RECORDS = [
    (CpvProblem(f=math.exp, tau=0.5), dict(tau=5.0)),
    (gauss_legendre_rule(3), dict(nodes=(0.0,))),
    (kronrod_pair_g7k15(), dict(gauss_weights=(1.0,))),
]
_RECORD_IDS = ["CpvProblem", "QuadratureRule", "EmbeddedRulePair"]


@pytest.mark.parametrize("record,change", _RECORDS[:1], ids=_RECORD_IDS[:1])
def test_replace_checks_like_the_constructor(record, change):
    with pytest.raises(ValueError) as built:
        type(record)(**{**record._asdict(), **change})
    with pytest.raises(ValueError) as replaced:
        record._replace(**change)
    assert str(replaced.value) == str(built.value)


@pytest.mark.parametrize("record,change", _RECORDS, ids=_RECORD_IDS)
def test_fields_refuse_assignment(record, change):
    [(name, value)] = change.items()
    with pytest.raises(AttributeError):
        setattr(record, name, value)


def _assert_ordinary_record(record, built):
    """`record`, built through tuple.__new__, behaves as `built`, the same
    fields through the record's own constructor."""
    cls = type(built)
    assert type(record) is cls
    assert record == built
    assert repr(record) == repr(built)
    assert repr(record).startswith(cls.__name__ + "(")
    assert record._asdict() == dict(zip(cls._fields, built))
    field = cls._fields[-1]
    changed = record._replace(**{field: "changed"})
    assert type(changed) is cls
    assert changed[:-1] == built[:-1] and changed[-1] == "changed"
    # a NaN value unpickles as a new object, which equality would refuse
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is cls
    assert repr(restored) == repr(record)


class TestRecordsBuiltAsTuples:
    """The solver builds its results, budgets and stop reasons, and the
    prologue its stencil, with tuple.__new__; they are the same records as
    their constructors give."""

    @pytest.mark.parametrize("problem,reason,finite", [
        (dict(f=math.exp, tau=0.5), "tolerance", True),
        (dict(_battery("case8"), tol=1e-14), "floor", True),
        (dict(f=lambda x: 1.0 if x >= 0.3 else 0.0, tau=0.3),
         "discontinuous_at_tau", False),
        (dict(f=lambda x: 1e308 * x * x, tau=0.1), "tolerance", False),
        (dict(f=math.exp, tau=0.5, method="cutoff", mu=1e-6), "tolerance",
         True),
    ], ids=["tolerance", "floor", "jump", "infinite-budget", "cutoff"])
    def test_results_are_ordinary_records(self, problem, reason, finite):
        result = cpv_standard(CpvProblem(**problem))
        assert reason in result.stop_reasons
        assert math.isfinite(result.error_estimate) is finite
        _assert_ordinary_record(result, CpvResult(*result))
        _assert_ordinary_record(result.budget, ErrorBudget(*result.budget))
        _assert_ordinary_record(result.stop_reasons,
                                StopReasons(*result.stop_reasons))

    def test_derivative_estimates_are_ordinary_records(self):
        deriv = derivative_estimates(math.exp, 0.5, 0.5, math.exp(0.5))
        _assert_ordinary_record(deriv, DerivativeEstimates(*deriv))
        floor = total_error_estimate(deriv, math.exp(0.5), 0.5)
        _assert_ordinary_record(floor, ErrorBudget(*floor))


class TestProblemConstruction:
    FIELDS = (math.sin, 0.25, -2.0, 3.0, 1e-10, "cutoff", 1e-6)

    def test_positional_keyword_and_mixed_builds_agree(self):
        keywords = dict(zip(CpvProblem._fields, self.FIELDS))
        built = [
            CpvProblem(*self.FIELDS),
            CpvProblem(**keywords),
            CpvProblem(math.sin, 0.25, -2.0, b=3.0, tol=1e-10,
                       method="cutoff", mu=1e-6),
            CpvProblem._make(self.FIELDS),
        ]
        for problem in built:
            assert type(problem) is CpvProblem
            assert problem == self.FIELDS
            assert problem._asdict() == keywords

    def test_defaults(self):
        problem = CpvProblem(math.sin, 0.25)
        assert problem == (math.sin, 0.25, -1.0, 1.0, 1e-12, "open", EPS)
        assert CpvProblem(f=math.sin, tau=0.25, mu=1e-6) == problem._replace(
            mu=1e-6)

    @pytest.mark.parametrize("args,kwargs", [
        ((math.sin,), {}),
        ((), dict(tau=0.25)),
        ((math.sin, 0.25), dict(eps=1e-16)),
        ((math.sin, 0.25), dict(tau=0.5)),
        ((math.sin, 0.25, -1.0, 1.0, 1e-12, "open", EPS, 0.0), {}),
    ], ids=["no-tau", "no-f", "unknown", "tau-twice", "too-many"])
    def test_missing_or_unknown_argument_is_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            CpvProblem(*args, **kwargs)

    def test_pickle_round_trip(self):
        problem = CpvProblem(*self.FIELDS)
        restored = pickle.loads(pickle.dumps(problem))
        assert type(restored) is CpvProblem
        assert restored == problem

    @pytest.mark.parametrize("change", [
        dict(tau=5.0), dict(tol=0.0), dict(method="closed"), dict(mu=3.0),
    ], ids=["tau", "tol", "method", "mu"])
    def test_unpickling_checks_again(self, change):
        fields = {**dict(zip(CpvProblem._fields, self.FIELDS)), **change}
        with pytest.raises(ValueError) as built:
            CpvProblem(**fields)
        # a record that skipped the checks, as a corrupted pickle would hold
        unchecked = tuple.__new__(CpvProblem, fields.values())
        data = pickle.dumps(unchecked)
        with pytest.raises(ValueError) as unpickled:
            pickle.loads(data)
        assert str(unpickled.value) == str(built.value)
        with pytest.raises(ValueError) as made:
            CpvProblem._make(unchecked)
        assert str(made.value) == str(built.value)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_pickle_protocol_checks_again(self, protocol):
        problem = CpvProblem(*self.FIELDS)
        restored = pickle.loads(pickle.dumps(problem, protocol))
        assert type(restored) is CpvProblem
        assert restored == problem
        fields = dict(zip(CpvProblem._fields, self.FIELDS), tau=5.0)
        with pytest.raises(ValueError) as built:
            CpvProblem(**fields)
        data = pickle.dumps(tuple.__new__(CpvProblem, fields.values()),
                            protocol)
        with pytest.raises(ValueError) as unpickled:
            pickle.loads(data)
        assert str(unpickled.value) == str(built.value)


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


class TestFirstApplicationPinned:
    """Three members of the benchmark's F4 class, whose budget misses the
    rounding of the values and sums, pass only at these bits.  Each
    converges at the first application of the pair, 21 nodes on each of
    two pieces, which refinement by extension or bisection never reaches."""

    @pytest.mark.parametrize(
        "f,tau,value,estimate",
        [
            (lambda x: math.cos(2.0 * x), 0.001953125,
             "-0x1.65b7c1d7472c9p-7", "0x1.6c401d9996d98p-52"),
            (lambda x: math.exp(-0.25 * x), -0.3,
             "0x1.2b8663b989fb2p-3", "0x1.6f66be6eff043p-51"),
            (lambda x: math.pow(x, 6), 0.05,
             "0x1.490e385ff6450p-6", "0x1.859fc1bffbfaep-55"),
        ],
        ids=["cos(2x)", "exp(-0.25x)", "x^6"],
    )
    def test_value_and_estimate_bits(self, f, tau, value, estimate):
        result = cpv_standard(CpvProblem(f=f, tau=tau, tol=1e-12))
        assert result.evaluations == 42
        assert result.converged
        assert result.value.hex() == value
        assert result.error_estimate.hex() == estimate


#: Hex bits of the value and of each budget term by name, then evaluations,
#: converged and stop reasons, of one problem on each branch of the prologue,
#: and of the nine battery cases.  The step's NaN prints as "nan" and an
#: infinite term as "inf".
_PROLOGUE_PINS = [
    ("exp@0.5", dict(f=math.exp, tau=0.5),
     "0x1.d3dbd0af9036ap-1",
     dict(quad_left="0x1.0000000000000p-52", quad_right="0x0.0p+0",
          quad_h="0x1.0000000000000p-52", roundoff="0x1.a61298e4d2190p-50",
          log_sensitivity="0x1.a61298e1e069cp-53",
          curvature_sensitivity="0x1.48b5e39ea2bfbp-51", cutoff="0x0.0p+0"),
     42, True, ("tolerance",) * 3),
    ("sin(x-1e6)@1e6",
     dict(f=lambda x: math.sin(x - 1e6), tau=1e6, a=1e6 - 1.0, b=1e6 + 1.0),
     "0x1.e465000dc24f4p+0",
     dict(quad_left="0x0.0p+0", quad_right="0x0.0p+0",
          quad_h="0x1.5008000000000p-34", roundoff="0x1.d43062787dc36p-31",
          log_sensitivity="0x0.0p+0", curvature_sensitivity="0x0.0p+0",
          cutoff="0x0.0p+0"),
     21, True, ("tolerance", "tolerance", "floor")),
    ("exp@9.75[-10,10]", dict(f=math.exp, tau=9.75, a=-10.0, b=10.0),
     "-0x1.22d74a5700c80p+13",
     dict(quad_left="0x1.0000000000000p-36", quad_right="0x0.0p+0",
          quad_h="0x1.2000000000000p-35", roundoff="0x1.4f0b24e25aa20p-33",
          log_sensitivity="0x1.46aadd8dd2a04p-34",
          curvature_sensitivity="0x1.3f3fdfc2f0497p-40", cutoff="0x0.0p+0"),
     64, True, ("floor", "tolerance", "floor")),
    ("exp@0.5-cutoff", dict(f=math.exp, tau=0.5, method="cutoff", mu=1e-6),
     "0x1.d3db620abf612p-1",
     dict(quad_left="0x1.0000000000000p-52", quad_right="0x0.0p+0",
          quad_h="0x1.0000000000000p-52", roundoff="0x1.a61298e4d2190p-50",
          log_sensitivity="0x1.a61298e1e069cp-53",
          curvature_sensitivity="0x1.48b5e39ea2bfbp-51",
          cutoff="0x1.ba9343b28fcbep-19"),
     42, True, ("tolerance",) * 3),
    # the floor overflows, so the tolerance stays at tol; the infinite
    # budget bounds nothing, so the result is not converged
    ("1e308x^2@0.1", dict(f=lambda x: 1e308 * x * x, tau=0.1),
     "0x1.c31f75efe6075p+1020",
     dict(quad_left="0x0.0p+0", quad_right="0x0.0p+0", quad_h="0x0.0p+0",
          roundoff="0x1.c7b1f3cac766ap+970",
          log_sensitivity="0x1.440cc41e6b909p+960",
          curvature_sensitivity="inf", cutoff="0x0.0p+0"),
     42, False, ("tolerance",) * 3),
    ("step@0.3", dict(f=lambda x: 1.0 if x >= 0.3 else 0.0, tau=0.3),
     "nan",
     dict(quad_left="inf", quad_right="inf", quad_h="inf",
          roundoff="0x1.be6db6db6db6ep-38",
          log_sensitivity="0x1.b6db6db6db6dcp-55",
          curvature_sensitivity="0x1.0bdb6db6db6dcp-38", cutoff="0x0.0p+0"),
     0, False, ("discontinuous_at_tau",) * 3),
    # the left piece is a few ulps wide and gets the one-point charge
    ("exp@1e-16", dict(f=math.exp, tau=1e-16),
     "0x1.0ea7fe4d67f7dp+1",
     dict(quad_left="0x1.43a54e4e98864p-53", quad_right="0x0.0p+0",
          quad_h="0x1.0000000000000p-51", roundoff="0x1.0000000728278p-50",
          log_sensitivity="0x1.cd2b297d889bdp-107",
          curvature_sensitivity="0x1.cd2b29bbec015p-104", cutoff="0x0.0p+0"),
     22, True, ("tolerance",) * 3),
    # two stress members that the engine returns from its first
    # applications: two pieces met the raised tolerance, and one
    ("1e150exp@0.5", dict(f=lambda x: 1e150 * math.exp(x), tau=0.5),
     "0x1.1ddb0e00fb134p+498",
     dict(quad_left="0x1.0000000000000p+446", quad_right="0x0.0p+0",
          quad_h="0x1.0000000000000p+447", roundoff="0x1.01e18a2b3c7f0p+449",
          log_sensitivity="0x1.01e18a296f677p+446",
          curvature_sensitivity="0x1.6b5dc6e8fdc43p+198", cutoff="0x0.0p+0"),
     42, True, ("floor", "tolerance", "floor")),
    ("sin(x-1e9)@1e9",
     dict(f=lambda x: math.sin(x - 1e9), tau=1e9, a=1e9 - 1.0, b=1e9 + 1.0),
     "0x1.e464fe932218dp+0",
     dict(quad_left="0x0.0p+0", quad_right="0x0.0p+0",
          quad_h="0x1.a2962d5000000p-24", roundoff="0x1.c9374029aad0cp-21",
          log_sensitivity="0x0.0p+0", curvature_sensitivity="0x0.0p+0",
          cutoff="0x0.0p+0"),
     21, True, ("tolerance", "tolerance", "floor")),
    # the battery at tol 1e-12, bit for bit; a change that moves a case's
    # value, budget or cost moves its row, and says why
    ("case1", _battery("case1"),
     "0x1.d3dbd0af9036ap-1",
     dict(quad_left="0x1.0000000000000p-52", quad_right="0x0.0p+0",
          quad_h="0x1.0000000000000p-52", roundoff="0x1.a61298e4d2190p-50",
          log_sensitivity="0x1.a61298e1e069cp-53",
          curvature_sensitivity="0x1.48b5e39ea2bfbp-51", cutoff="0x0.0p+0"),
     42, True, ("tolerance",) * 3),
    ("case2", _battery("case2"),
     "0x1.8d1a4eccdb836p+1",
     dict(quad_left="0x1.d650000000000p-49", quad_right="0x0.0p+0",
          quad_h="0x1.bf1f800000000p-42", roundoff="0x1.0eb2582eecae0p-41",
          log_sensitivity="0x1.68a9e459d6a85p-54",
          curvature_sensitivity="0x1.714a0d7b8a94fp-43", cutoff="0x0.0p+0"),
     4_524, True, ("tolerance",) * 3),
    ("case3", _battery("case3"),
     "-0x1.c6d8259ec10d3p+1",
     dict(quad_left="0x1.8ce5fb6800000p-41", quad_right="0x0.0p+0",
          quad_h="0x1.fb68000000000p-46", roundoff="0x1.24126f96da5f2p-44",
          log_sensitivity="0x1.90f25909efb14p-52",
          curvature_sensitivity="0x1.667d98bf91b8ep-46", cutoff="0x0.0p+0"),
     5_914, True, ("tolerance",) * 3),
    ("case4", _battery("case4"),
     "-0x1.9fa4048c59388p+1",
     dict(quad_left="0x1.2400000000000p-40", quad_right="0x0.0p+0",
          quad_h="0x1.2b80000000000p-42", roundoff="0x1.c6f8e934b687bp-41",
          log_sensitivity="0x1.054fa1d7b960cp-42",
          curvature_sensitivity="0x1.47e5a0dc42682p-42", cutoff="0x0.0p+0"),
     532, True, ("floor", "tolerance", "floor")),
    ("case5", _battery("case5"),
     "0x1.cd29798f33edcp+0",
     dict(quad_left="0x0.0p+0", quad_right="0x1.0e0708a800000p-41",
          quad_h="0x1.099121a000000p-41", roundoff="0x1.13780137151b4p-45",
          log_sensitivity="0x1.f60088a3d3ab8p-56",
          curvature_sensitivity="0x1.a746bc69fb94ep-46", cutoff="0x0.0p+0"),
     20_534, True, ("tolerance",) * 3),
    ("case6", _battery("case6"),
     "0x1.6ca742c01d8fap-1",
     dict(quad_left="0x1.5e9b6ea000000p-41", quad_right="0x0.0p+0",
          quad_h="0x1.2085f3a000000p-42", roundoff="0x1.62a452759c66fp-46",
          log_sensitivity="0x1.abdeeaacf2a23p-54",
          curvature_sensitivity="0x1.6e5b87cea9ccep-45", cutoff="0x0.0p+0"),
     2_326, True, ("tolerance",) * 3),
    ("case6b", _battery("case6b"),
     "-0x1.3c5a9c64b0792p+0",
     dict(quad_left="0x1.e727d98800000p-42", quad_right="0x0.0p+0",
          quad_h="0x1.57e3ee3800000p-42", roundoff="0x1.305892d3b475dp-45",
          log_sensitivity="0x1.c1fef97318cbdp-53",
          curvature_sensitivity="0x1.5b5f52c8461e7p-45", cutoff="0x0.0p+0"),
     2_260, True, ("tolerance",) * 3),
    ("case7", _battery("case7"),
     "-0x1.50e47a829f955p+5",
     dict(quad_left="0x1.0000000000000p-50", quad_right="0x0.0p+0",
          quad_h="0x1.7793800000000p-52", roundoff="0x1.5bf0a6737f2cep-49",
          log_sensitivity="0x1.9ec6dcdcc1fd4p-29",
          curvature_sensitivity="0x1.a1e10d26abe47p-50", cutoff="0x0.0p+0"),
     42, True, ("tolerance",) * 3),
    ("case8", _battery("case8"),
     "0x1.3cf01fba808f8p+1",
     dict(quad_left="0x0.0p+0", quad_right="0x1.0000000000000p-52",
          quad_h="0x1.4a1881a5e9e8dp-40", roundoff="0x1.da448c07c2c7ep-42",
          log_sensitivity="0x1.aa6074c86bf52p-55",
          curvature_sensitivity="0x1.7c935c6dcf601p-43", cutoff="0x0.0p+0"),
     15_382, True, ("tolerance", "floor", "floor")),
]


@pytest.mark.parametrize(
    "kwargs,value,terms,evaluations,converged,reasons",
    [pin[1:] for pin in _PROLOGUE_PINS],
    ids=[pin[0] for pin in _PROLOGUE_PINS],
)
def test_prologue_branches_keep_their_bits(
    kwargs, value, terms, evaluations, converged, reasons
):
    result = cpv_standard(CpvProblem(**kwargs))
    assert result.value.hex() == value
    assert {k: v.hex() for k, v in result.budget._asdict().items()} == terms
    assert result.evaluations == evaluations
    assert result.converged is converged
    assert result.stop_reasons == reasons


def test_kink_costs_at_most_a_tenth_more_than_the_pair_alone():
    # intervals around the kink of |x - 0.2| can look resolved and be
    # extended to no avail; the 10/21 pair alone took 714 evaluations
    result = cpv_standard(CpvProblem(f=lambda x: abs(x - 0.2), tau=0.5))
    assert result.converged
    assert result.evaluations <= 786


class TestExtensionsBisectedAnywayPinned:
    """Runs where most extended intervals are bisected all the same, so they
    cost more than the 10/21 pair alone took.  The costs are pinned as they
    stand, a baseline for a floor that stops refinement on rounding noise
    (ROADMAP item 3); a change that lowers them updates the pins."""

    def test_cusped_battery_case(self):
        # the cusps of |cos(44x)|^1.5 keep the 43-point rule from gaining
        # on the intervals around them; the pair alone took 17,346
        case = next(c for c in builtin_problems() if c.name == "case5")
        result = cpv_standard(CpvProblem(f=case.integrand, tau=case.tau))
        assert result.converged
        assert result.evaluations == 20_534

    @pytest.mark.parametrize(
        "f,tau,a,b,evaluations",
        [
            (lambda x: math.sin(280.91631662699507 * x), 10000.04353410371,
             9999.895952796725, 10000.088404614362, 943_314),
            (lambda x: math.cos(589.0774146855426 * x), 9999.985428446167,
             9999.921151396564, 10000.05334677728, 1_001_108),
            (lambda x: math.cos(391.32975221474175 * x), 9999.881264559299,
             9999.83344759297, 10000.099784011867, 930_840),
        ],
        ids=["sin(280.92x)", "cos(589.08x)", "cos(391.33x)"],
    )
    def test_offset_member_at_the_cap(self, f, tau, a, b, evaluations):
        # members of the ROADMAP F4 seed-11 draw near 1e4: the rounding of
        # x in the argument puts noise into f above the raised tolerance,
        # and intervals whose embedded difference is that noise look
        # resolved; the pair alone took 839,958 on each
        result = cpv_general(f, tau, a, b)
        assert "interval_cap" in result.stop_reasons
        assert result.evaluations == evaluations


class TestDecompositionMechanics:
    def test_estimate_equals_budget_total(self):
        result = cpv_standard(CpvProblem(f=math.exp, tau=0.33))
        assert result.error_estimate == result.budget.total

    def test_center_call_count_identity(self):
        # at tau = 0 both one-sided pieces are empty, so every quadrature
        # evaluation costs two calls of f (symmetric quotient) and the only
        # extras are f(tau) and the two points of each of the two derivative
        # stencils (step s and s/2, the jump check)
        calls = [0]

        def f(x):
            calls[0] += 1
            return math.exp(x)

        result = cpv_standard(CpvProblem(f=f, tau=0.0))
        assert calls[0] == 2 * result.evaluations + 5

    def _observe(self, problem):
        """f's abscissae in a run, split by the quotient that asked for them.

        The first five calls are f(tau) and the two stencils.  The symmetric
        kernel then calls f at tau + t and tau - t back to back, so such a
        pair is recorded as the offset t; every other call is a node x of the
        difference quotient.
        """
        calls = []

        def f(x):
            calls.append(x)
            return problem.f(x)

        result = cpv_standard(problem._replace(f=f))
        tau = problem.tau
        seen_g, seen_h = [], []
        i = 5
        while i < len(calls):
            x = calls[i]
            y = calls[i + 1] if i + 1 < len(calls) else None
            if y is not None and y < tau < x and (
                abs((x - tau) - (tau - y)) <= 4.0 * math.ulp(tau)
            ):
                seen_h.append(x - tau)
                i += 2
            else:
                seen_g.append(x)
                i += 1
        assert len(seen_g) + len(seen_h) == result.evaluations
        return seen_g, seen_h

    def test_pieces_stay_open_and_far_side_is_empty(self):
        seen_g, seen_h = self._observe(CpvProblem(f=math.exp, tau=0.5))
        # delta = 0.5: difference quotient only on (-1, 0), symmetric
        # quotient only on (0, 0.5), all strictly interior
        assert seen_g and all(-1.0 < x < 0.0 for x in seen_g)
        assert seen_h and all(0.0 < x < 0.5 for x in seen_h)

    def test_center_skips_difference_quotient_entirely(self):
        seen_g, seen_h = self._observe(CpvProblem(f=math.exp, tau=0.0))
        assert seen_g == []
        assert seen_h and all(0.0 < x < 1.0 for x in seen_h)

    def test_negative_tau_mirrors_sides(self):
        seen_g, seen_h = self._observe(CpvProblem(f=math.exp, tau=-0.5))
        assert seen_g and all(0.0 < x < 1.0 for x in seen_g)
        assert seen_h and all(0.0 < x < 0.5 for x in seen_h)

    def test_cutoff_method_starts_at_mu(self):
        mu = 1e-6
        seen_g, seen_h = self._observe(
            CpvProblem(f=math.exp, tau=0.5, method="cutoff", mu=mu)
        )
        assert seen_h and all(mu < x < 0.5 for x in seen_h)

    def test_one_engine_call_counts_every_piece(self, monkeypatch):
        # one call integrates all three pieces; f is called once per
        # difference-quotient evaluation, twice per symmetric one, plus
        # f(tau) and the two stencils
        engine_calls = []
        engine = cpv_module.adaptive_integrate

        def spy(*args, **kwargs):
            engine_calls.append(engine(*args, **kwargs))
            return engine_calls[-1]

        monkeypatch.setattr(cpv_module, "adaptive_integrate", spy)
        calls = [0]

        def f(x):
            calls[0] += 1
            return math.sin(20.0 * x)

        result = cpv_standard(CpvProblem(f=f, tau=0.3))
        ((_, _, (left, right, symmetric), _),) = engine_calls
        assert left > 15 and right == 0
        assert calls[0] == left + right + 2 * symmetric + 5
        assert result.evaluations == left + right + symmetric

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


def _error(value: float, reference) -> float:
    with mp.workdps(40):
        return float(abs(mp.mpf(value) - reference))


class TestCallersCoordinates:
    """The decomposition on [a, b] itself, without a map to [-1, 1]."""

    @pytest.mark.parametrize("c", [1e3, 1e6, 1e9, 1e12, 1e13])
    def test_offset_interval_error_within_estimate(self, c):
        # sin(x - c) / (x - c) over [c - 1, c + 1] is 2 Si(1); x - c is
        # exact near c, so the integrand is sin of the true offset, but
        # tau +- x round at ulp(c)
        result = cpv_general(lambda x: math.sin(x - c), c, c - 1.0, c + 1.0)
        with mp.workdps(40):
            reference = 2 * mp.si(1)
        assert _error(result.value, reference) <= result.error_estimate

    @pytest.mark.parametrize(
        "tau,a,b", [(8.2, 7.5, 8.5), (2.2, 1.5, 2.5)], ids=["8.2", "2.2"]
    )
    def test_oscillatory_offset_interval_within_estimate(self, tau, a, b):
        result = cpv_general(lambda x: math.sin(100.0 * x), tau, a, b)
        reference = pv_sin_interval(100.0, tau, a, b)
        assert _error(result.value, reference) <= result.error_estimate

    @pytest.mark.parametrize(
        "tau,a,b", [(0.3, -0.1, 10.0), (0.7, 0.1, 10.0)], ids=["0.3", "0.7"]
    )
    def test_near_side_chosen_by_distance(self, tau, a, b):
        # tau - (tau - a) misses a by an ulp here (0.3 - 0.4 is below -0.1,
        # 0.7 - 0.6 is below 0.1), so the near side is found by comparing
        # tau - a with b - tau, never by recomputing the endpoint
        result = cpv_general(math.sin, tau, a, b)
        assert result.budget.quad_left == 0.0
        reference = pv_sin_interval(1.0, tau, a, b)
        assert _error(result.value, reference) <= result.error_estimate

    @pytest.mark.parametrize("method", ["open", "cutoff"])
    @pytest.mark.parametrize("length", [0.25, 0.5, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("u", [-0.7, 0.0, 0.3, 0.999])
    def test_power_of_two_scaling_is_bit_identical(self, length, u, method):
        # scaling by a power of two is exact, so every node, quotient and
        # budget term on [-L, L] is the reference one times a power of two
        def f(x):
            return math.exp(x) * math.sin(3.0 * x)

        mu = 2.0**-30
        scaled = cpv_standard(CpvProblem(
            f=f, tau=u * length, a=-length, b=length,
            method=method, mu=mu * length,
        ))
        unit = cpv_standard(CpvProblem(
            f=lambda t: f(length * t), tau=u, method=method, mu=mu,
        ))
        assert scaled.value.hex() == unit.value.hex()
        assert scaled.error_estimate.hex() == unit.error_estimate.hex()
        assert scaled.evaluations == unit.evaluations
        assert scaled.converged == unit.converged
        assert scaled.budget._asdict() == unit.budget._asdict()


class TestRoundoffFloorStop:
    """Pieces stop at the roundoff floor instead of the interval cap."""

    def test_huge_magnitude_stops_early_within_estimate(self):
        result = cpv_standard(
            CpvProblem(f=lambda x: 1e300 * math.exp(x), tau=0.5)
        )
        assert result.evaluations <= 3000
        assert result.converged
        assert "floor" in result.stop_reasons
        with mp.workdps(40):
            reference = 1e300 * pv_exp_closed(0.5, dps=40)
        assert _error(result.value, reference) <= result.error_estimate

    def test_sub_floor_tolerance_stops_at_the_floor(self):
        case = next(c for c in builtin_problems() if c.name == "case8")
        result = cpv_standard(
            CpvProblem(f=case.integrand, tau=case.tau, tol=1e-15)
        )
        assert result.evaluations <= 30_000
        assert "floor" in result.stop_reasons
        assert result.converged
        assert result.error_estimate > 1e-15
        with mp.workdps(40):
            reference = mp.mpf(case.reference_text)
        assert _error(result.value, reference) <= result.error_estimate

    def test_offset_interval_stops_early_within_estimate(self):
        c = 1e9
        result = cpv_general(lambda x: math.sin(x - c), c, c - 1.0, c + 1.0)
        assert result.evaluations <= 3000
        assert result.stop_reasons.quad_h == "floor"
        with mp.workdps(40):
            reference = 2 * mp.si(1)
        assert _error(result.value, reference) <= result.error_estimate

    def test_floor_below_tolerance_changes_nothing(self):
        result = cpv_standard(CpvProblem(f=math.exp, tau=0.5))
        assert result.stop_reasons == ("tolerance",) * 3
        assert roundoff_floor(result.budget) < 1e-12 / 2.0

    def test_floor_pieces_exceed_their_plain_share(self):
        # the pieces share one tolerance, raised to twice the floor: their
        # summed estimate lies above tol but meets the raised share, and
        # every non-empty piece reads "floor"
        case = next(c for c in builtin_problems() if c.name == "case8")
        tol = 1e-15
        result = cpv_standard(CpvProblem(f=case.integrand, tau=case.tau, tol=tol))
        quad = (result.budget.quad_left, result.budget.quad_right,
                result.budget.quad_h)
        assert result.converged
        assert (tol < quad[0] + quad[1] + quad[2]
                <= 2.0 * roundoff_floor(result.budget))
        for reason, estimate in zip(result.stop_reasons, quad):
            assert reason == ("floor" if estimate else "tolerance")

    def test_overflowed_curvature_still_reports_quotient_overflow(self):
        # f'' = 2e308 overflows in the stencil, so the floor is infinite;
        # the quadrature still runs and names the overflowing quotient
        with pytest.raises(QuotientOverflowError) as excinfo:
            cpv_standard(CpvProblem(f=lambda x: 1e308 * x * x, tau=0.5))
        assert excinfo.value.quotient == "symmetric"

    def test_overflowed_curvature_gives_an_infinite_estimate(self):
        # the quotients stay finite at tau = 0.1, so the value is computed,
        # but the curvature term cannot be bounded
        result = cpv_standard(CpvProblem(f=lambda x: 1e308 * x * x, tau=0.1))
        assert result.budget.curvature_sensitivity == math.inf
        assert result.error_estimate == math.inf
        exact = 1e308 * (0.2 + 0.01 * math.log(0.9 / 1.1))
        assert result.value == pytest.approx(exact, rel=1e-12)


class TestJumpAtTau:
    @pytest.mark.parametrize("t", [0.3, -0.5, 0.1])
    def test_step_is_reported_without_quadrature(self, t):
        calls = []

        def step(x):
            calls.append(x)
            return 1.0 if x >= t else 0.0

        result = cpv_standard(CpvProblem(f=step, tau=t))
        assert not result.converged
        assert result.stop_reasons == ("discontinuous_at_tau",) * 3
        assert result.evaluations == 0
        # f(tau) and the stencils at s, s/2, s/4 and s/8, nothing else
        s = derivative_estimates(math.exp, t, 1.0 - abs(t), math.exp(t)).step
        assert calls == [t, t + s, t - s, t + s / 2, t - s / 2,
                         t + s / 4, t - s / 4, t + s / 8, t - s / 8]
        assert math.isnan(result.value)
        assert result.error_estimate == math.inf
        assert result.error_estimate == result.budget.total

    def test_step_on_a_general_interval(self):
        def f(x):
            return -2.0 if x < 5.0 else 3.0

        result = cpv_general(f, 5.0, 4.0, 9.0)
        assert result.stop_reasons == ("discontinuous_at_tau",) * 3
        # the budget keeps the floor's terms and charges each piece infinity
        deriv = derivative_estimates(f, 5.0, 1.0, f_tau=3.0, a=4.0, b=9.0)
        floor = total_error_estimate(deriv, 3.0, 5.0, a=4.0, b=9.0)
        assert roundoff_floor(floor) > 0.0
        assert result.budget == floor._replace(
            quad_left=math.inf, quad_right=math.inf, quad_h=math.inf
        )

    @pytest.mark.parametrize(
        "f,tau",
        [
            (lambda x: x * x, 0.0),
            (lambda x: math.cos(2.0 * x), 0.0),
            (lambda x: math.cos(2.0 * x), 1.0 / 512.0),
            (lambda x: math.sin(200.0 * x), 0.3),
            (lambda x: math.sin(200.0 * x), 0.0),
            (lambda x: abs(x - 0.3), 0.3),
            (lambda x: 5.0, 0.2),
            (lambda x: x**3, 0.0),
        ],
        ids=["x^2", "cos2x@0", "cos2x@1/512", "sin200x@0.3", "sin200x@0",
             "kink", "constant", "x^3"],
    )
    def test_continuous_integrands_are_not_flagged(self, f, tau):
        result = cpv_standard(CpvProblem(f=f, tau=tau))
        assert "discontinuous_at_tau" not in result.stop_reasons
        assert result.converged
        assert result.evaluations > 0

    @pytest.mark.parametrize(
        "k,tau,a,b",
        [
            (200.0, 0.0, -100.0, 100.0),
            (2e4, 0.0, -1.0, 1.0),
            (3e4, 0.3, -1.0, 1.0),
        ],
        ids=["sin200x@0[-100,100]", "sin2e4x@0", "sin3e4x@0.3"],
    )
    def test_oscillation_agreeing_at_one_pair_is_not_flagged(self, k, tau, a, b):
        # D(s) and D(s/2) agree here by chance, so the s/4 stencil decides
        f = lambda x: math.sin(k * x)
        delta = endpoint_distance(tau, a, b)
        coarse = derivative_estimates(f, tau, delta, f(tau), a=a, b=b)
        fine = stencil_at(f, tau, 0.5 * coarse.step)
        assert _pair_looks_like_jump(coarse.step, coarse.f1, coarse.f2, fine.f1,
                                     f(tau), tau)
        result = cpv_general(f, tau, a, b)
        assert result.converged
        assert "discontinuous_at_tau" not in result.stop_reasons
        reference = pv_sin_interval(k, tau, a, b)
        assert _error(result.value, reference) <= result.error_estimate


class TestNarrowFarPiece:
    """tau a few ulps off the midpoint leaves a far piece a few ulps wide."""

    @pytest.mark.parametrize(
        "tau,a,b,side",
        [
            (1e-16, -1.0, 1.0, "quad_left"),
            (-1e-16, -1.0, 1.0, "quad_right"),
            (3.0 + 4.4e-16, 2.0, 4.0, "quad_left"),
            (3.0 - 4.4e-16, 2.0, 4.0, "quad_right"),
        ],
        ids=["1e-16", "-1e-16", "3+4.4e-16", "3-4.4e-16"],
    )
    def test_skipped_and_charged(self, tau, a, b, side):
        # the charge, a few ulps times e^x, meets the piece's share
        result = cpv_standard(CpvProblem(f=math.exp, tau=tau, a=a, b=b))
        assert getattr(result.stop_reasons, side) == "tolerance"
        assert getattr(result.budget, side) > 0.0
        assert result.converged
        reference = pv_exp_closed(tau, a, b, dps=40)
        assert _error(result.value, reference) <= result.error_estimate


#: The battery's native integrands, each once, and two taus that no battery
#: case uses.
_NATIVE = list({c.integrand: c.integrand for c in builtin_problems()})
_INVARIANCE_TAUS = (0.3, -0.61)

#: The invariance problems (f, tau, a, b): every native integrand at both
#: taus on [-1, 1], and on two other intervals the five native integrands
#: defined there (log(1.0001 - x) and sqrt(1 - x^2) are not).
_INVARIANCE_CASES = [(f, tau, -1.0, 1.0) for f in _NATIVE
                     for tau in _INVARIANCE_TAUS]
_INVARIANCE_CASES += [
    (f, tau, a, b)
    for f in _NATIVE
    if f.__name__ not in ("_log_squared", "_semicircle_cosine")
    for tau, a, b in ((2.5, 1.0, 4.0), (1.3, 1.0, 4.0), (-0.7, -3.0, 0.5))
]


@functools.lru_cache(maxsize=None)
def _unit(f, tau, a=-1.0, b=1.0):
    return cpv_general(f, tau, a, b)


@pytest.mark.parametrize(
    "f,tau,a,b", _INVARIANCE_CASES,
    # each integrand as _<name>, math.exp as _exp like the battery's own
    # functions, so an id does not depend on where the function is defined
    ids=[f"_{f.__name__.lstrip('_')}-{tau}"
         for f, tau, _, _ in _INVARIANCE_CASES],
)
class TestInvariance:
    """Changes of a problem whose answer is known exactly from the original.

    Scaling x by a power of two is exact in every node, quotient and budget
    term, so it changes no bit.  Reflecting x swaps the two difference
    pieces and negates the value.
    """

    @pytest.mark.parametrize("k", [3, -3, 20, -100])
    def test_x_scaling_is_bit_identical(self, f, tau, a, b, k):
        s = 2.0**k
        scaled = cpv_general(lambda x: f(x / s), s * tau, s * a, s * b)
        unit = _unit(f, tau, a, b)
        assert scaled.value.hex() == unit.value.hex()
        assert scaled.error_estimate.hex() == unit.error_estimate.hex()
        assert scaled.evaluations == unit.evaluations

    def test_reflection_negates_the_value(self, f, tau, a, b):
        mirrored = cpv_general(lambda x: f(-x), -tau, -b, -a)
        unit = _unit(f, tau, a, b)
        assert mirrored.evaluations == unit.evaluations
        assert abs(unit.value + mirrored.value) <= min(
            unit.error_estimate, mirrored.error_estimate
        )


@pytest.mark.xfail(
    strict=True,
    reason="D3: the curvature term scales as sqrt(c) when f becomes c*f, "
           "so the budget is not linear in f",
)
def test_f_scaling_scales_value_and_estimate():
    for f in _NATIVE:
        for tau in _INVARIANCE_TAUS:
            unit = _unit(f, tau)
            for j in (-20, 20):
                c = 2.0**j
                scaled = cpv_general(lambda x: c * f(x), tau, -1.0, 1.0,
                                     tol=c * 1e-12)
                assert scaled.value == c * unit.value
                assert scaled.error_estimate == c * unit.error_estimate


@pytest.mark.xfail(
    strict=True,
    reason="D4 (ROADMAP item 9): log((b - tau)/(tau - a)) cancels for tau "
           "near the midpoint, and the budget does not charge the rounding "
           "of b - tau and tau - a",
)
def test_constant_near_the_midpoint_stays_within_its_estimate():
    # f = 1 on [-1, 1]: the principal value is the log term alone
    rng = random.Random(4)
    misses = []
    for _ in range(200):
        tau = rng.uniform(-0.05, 0.05)
        result = cpv_standard(CpvProblem(f=lambda x: 1.0, tau=tau))
        with mp.workdps(40):
            exact = mp.log((1 - mp.mpf(tau)) / (1 + mp.mpf(tau)))
            error = abs(mp.mpf(result.value) - exact)
        if error > result.error_estimate:
            misses.append((tau, float(error / result.error_estimate)))
    assert not misses


class _EvaluationCap(Exception):
    """Raised by an integrand called more often than its allowance."""


def _capped(f, allowance=20_000):
    """f, raising _EvaluationCap on call allowance + 1, so that a generated
    integrand the engine takes to its interval cap costs a bounded time."""
    calls = 0

    def capped(x):
        nonlocal calls
        calls += 1
        if calls > allowance:
            raise _EvaluationCap
        return f(x)

    return capped


def _outcome(f, tau, a, b):
    """The bits of value and estimate and the evaluations, or the type of
    the exception raised."""
    try:
        result = cpv_general(_capped(f), tau, a, b, tol=1e-8)
    except (ValueError, ArithmeticError, _EvaluationCap) as exc:
        return type(exc)
    return result.value.hex(), result.error_estimate.hex(), result.evaluations


#: Literals 0 or at least 1e-40: rounding in the subnormal range does not
#: scale by powers of two (see the xfail examples), and a product of six
#: such literals times eps, about 2e-256, stays far above the smallest
#: normal double, 2.2e-308.
_INVARIANCE_LITERALS = st.one_of(
    st.just(0.0), st.floats(min_value=1e-40, max_value=1e6)
)

_SUBNORMAL = ("rounding below the smallest normal double does not scale "
              "by powers of two")


@settings(max_examples=100, deadline=None)
@given(
    tree=expr_trees(_INVARIANCE_LITERALS, max_leaves=6),
    k=st.sampled_from([3, -3, 20]),
    case=st.sampled_from([(0.3, -1.0, 1.0), (-0.61, -1.0, 1.0),
                          (2.5, 1.0, 4.0)]),
)
@example(tree=parse("exp(x)"), k=20, case=(0.3, -1.0, 1.0))
@example(tree=parse("1/x"), k=-3, case=(0.3, -1.0, 1.0))
@example(tree=parse("log(x)"), k=3, case=(0.3, -1.0, 1.0))
@example(tree=parse("1.1125369292536007e-308"), k=3,
         case=(2.5, 1.0, 4.0)).xfail(raises=AssertionError, reason=_SUBNORMAL)
@example(tree=parse("x*5e-324"), k=20,
         case=(2.5, 1.0, 4.0)).xfail(raises=AssertionError, reason=_SUBNORMAL)
@example(tree=parse("-(5e-324*409718.2741079658)/sin(x)"), k=-3,
         case=(0.3, -1.0, 1.0)).xfail(raises=AssertionError, reason=_SUBNORMAL)
def test_x_scaling_is_bit_identical_on_generated_integrands(tree, k, case):
    """Scaling x by 2^k on an integrand built from the expression grammar
    changes no bit, or both runs raise the same exception."""
    f = compile_expression(to_source(tree))
    tau, a, b = case
    s = 2.0**k
    scaled = _outcome(lambda x: f(x / s), s * tau, s * a, s * b)
    assert scaled == _outcome(f, tau, a, b)
