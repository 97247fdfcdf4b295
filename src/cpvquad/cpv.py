"""Principal value integrals of f(x) / (x - tau) on finite intervals.

The working decomposition on the reference interval [-1, 1] subtracts the
singular part analytically and folds the remaining near-singular behaviour
into quotients that stay finite:

    pv integral = f(tau) log((1-tau)/(1+tau))
                + integral of (f(x) - f(tau)) / (x - tau) over the part of
                  [-1, 1] at distance >= delta from tau
                + integral of (f(tau+x) - f(tau-x)) / x over (0, delta]

with delta = min(1+tau, 1-tau), the distance from tau to the nearer
endpoint.  The region within delta of tau is covered by the third, symmetric
integral, whose integrand tends to 2 f'(tau) at 0, so no quadrature node
ever sees the singularity.  Each piece goes through the adaptive
Gauss-Kronrod engine, and the result carries an error budget combining the
achieved quadrature estimates with the roundoff floors of the decomposition.

General intervals [a, b] reduce to the reference interval by the affine
substitution x = ((b-a) t + a + b) / 2, under which the Cauchy kernel
1 / (x - tau) is invariant, so no jacobian factor appears.

Two historically earlier schemes, `longman_split` and
`subtract_singularity`, are kept as cross-checks; their docstrings describe
the numerical trouble each one runs into and that the main path avoids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .error_model import (
    EPS,
    ErrorBudget,
    derivative_estimates,
    total_error_estimate,
)
from .quadrature import (
    AdaptiveResult,
    Integrand,
    NonfiniteIntegrandError,
    adaptive_integrate,
)

__all__ = [
    "CpvProblem",
    "CpvResult",
    "QuotientOverflowError",
    "endpoint_distance",
    "make_difference_quotient",
    "make_symmetric_quotient",
    "singular_log_term",
    "cpv_standard",
    "cpv_general",
    "longman_split",
    "subtract_singularity",
]


class QuotientOverflowError(NonfiniteIntegrandError):
    """Raised when a quotient overflows although the integrand is finite.

    ``x`` is the quotient's abscissa and ``quotient`` names the quotient,
    "difference" or "symmetric".  A steep integrand such as 1e308 * x
    overflows (f(tau+x) - f(tau-x)) / x near 2 f'(tau) while every f value
    stays finite.
    """

    def __init__(self, quotient: str, x: float):
        ValueError.__init__(
            self,
            f"{quotient} quotient overflowed at x = {x!r} although the "
            "integrand is finite at its abscissae",
        )
        self.x = x
        self.quotient = quotient


def _quotient_failure(
    f: Integrand, quotient: str, x: float, abscissae: tuple[float, ...]
) -> NonfiniteIntegrandError:
    """The error for a non-finite quotient value at x.

    `abscissae` are the points where the quotient evaluated f.  Only the
    failure path re-evaluates f there, so the quadrature loop carries no
    extra check.
    """
    for t in abscissae:
        if not math.isfinite(f(t)):
            return NonfiniteIntegrandError(t)
    return QuotientOverflowError(quotient, x)


def endpoint_distance(tau: float) -> float:
    """Distance from the singularity to the nearer interval endpoint."""
    if not -1.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (-1, 1), got {tau!r}")
    return min(1.0 + tau, 1.0 - tau)


def make_difference_quotient(
    f: Integrand, tau: float, f_tau: Optional[float] = None
) -> Integrand:
    """Quotient (f(x) - f(tau)) / (x - tau) with f(tau) captured once.

    The captured value makes every quotient evaluation subtract the same
    number, which the error analysis of the whole decomposition assumes.
    The returned function is only defined away from tau; calling it at
    exactly tau divides zero by zero.
    """
    if f_tau is None:
        f_tau = f(tau)
    def quotient(x: float) -> float:
        return (f(x) - f_tau) / (x - tau)
    return quotient


def make_symmetric_quotient(f: Integrand, tau: float) -> Integrand:
    """Quotient (f(tau+x) - f(tau-x)) / x, finite as x tends to 0.

    This carries the contribution of the symmetric neighbourhood of the
    singularity; for differentiable f it tends to 2 f'(tau), so integrating
    it near 0 is harmless as long as 0 itself is never evaluated.
    """
    def quotient(x: float) -> float:
        return (f(tau + x) - f(tau - x)) / x
    return quotient


def singular_log_term(f: Integrand, tau: float) -> float:
    """Closed-form contribution f(tau) log((1-tau)/(1+tau)) of the kernel."""
    d = endpoint_distance(tau)  # validates tau
    del d
    return f(tau) * math.log((1.0 - tau) / (1.0 + tau))


@dataclass(frozen=True)
class CpvProblem:
    """A principal value integral of f(x) / (x - tau) over [a, b].

    ``method`` selects how the symmetric quotient is integrated near 0:
    "open" integrates over (0, delta] relying on the open quadrature rule,
    "cutoff" starts at ``mu`` instead and charges the skipped mass to the
    error budget.  ``mu`` is only consulted by the cutoff method.
    """

    f: Integrand
    tau: float
    a: float = -1.0
    b: float = 1.0
    tol: float = 1e-12
    method: str = "open"
    mu: float = EPS

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"need finite a < b, got [{self.a!r}, {self.b!r}]")
        if not (math.isfinite(self.tau) and self.a < self.tau < self.b):
            raise ValueError(
                f"tau must lie strictly inside ({self.a!r}, {self.b!r}), "
                f"got {self.tau!r}"
            )
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tol!r}")
        if self.method not in ("open", "cutoff"):
            raise ValueError(
                f"method must be 'open' or 'cutoff', got {self.method!r}"
            )
        unit_tau = self.unit_tau()
        if not -1.0 < unit_tau < 1.0:
            raise ValueError(
                "singularity is indistinguishable from an endpoint at working "
                f"precision: tau = {self.tau!r} in [{self.a!r}, {self.b!r}]"
            )
        if self.method == "cutoff":
            delta = endpoint_distance(unit_tau)
            if not 0.0 < self.mu <= delta:
                raise ValueError(
                    f"cutoff mu must lie in (0, {delta!r}], got {self.mu!r}"
                )

    def unit_tau(self) -> float:
        """The singularity location mapped to the reference interval."""
        mid = 0.5 * (self.a + self.b)
        half = 0.5 * (self.b - self.a)
        return (self.tau - mid) / half


@dataclass(frozen=True)
class CpvResult:
    """A computed principal value with its error accounting.

    ``error_estimate`` equals ``budget.total``; ``evaluations`` counts the
    integrand calls made by the three quadrature pieces.  ``converged`` is
    False when any piece hit the interval cap before meeting its share of
    the tolerance; the value and budget are still meaningful, the budget is
    simply larger.
    """

    value: float
    error_estimate: float
    budget: ErrorBudget
    evaluations: int
    converged: bool


_EMPTY_PIECE = AdaptiveResult(0.0, 0.0, 0, (), True)


def cpv_standard(problem: CpvProblem) -> CpvResult:
    """Compute a principal value integral on the reference interval [-1, 1].

    The three quadrature pieces each get a third of the tolerance.  On
    whichever side of tau the distance to the endpoint equals delta, the
    difference quotient piece is empty (the symmetric integral already covers
    it); that degeneracy is exact in floating point, so emptiness is detected
    by exact comparison and costs no evaluations.  At tau = 0 both sides are
    empty and the result is the symmetric integral alone.
    """
    if problem.a != -1.0 or problem.b != 1.0:
        raise ValueError(
            "cpv_standard requires the reference interval [-1, 1]; "
            "use cpv_general for other intervals"
        )
    f = problem.f
    tau = problem.tau
    delta = endpoint_distance(tau)
    f_tau = f(tau)
    if not math.isfinite(f_tau):
        raise NonfiniteIntegrandError(tau)

    g = make_difference_quotient(f, tau, f_tau)
    h = make_symmetric_quotient(f, tau)
    piece_tol = problem.tol / 3.0
    left_end = tau - delta
    right_start = tau + delta

    try:
        if left_end == -1.0:
            left = _EMPTY_PIECE
        else:
            left = adaptive_integrate(g, -1.0, left_end, piece_tol)
        if right_start == 1.0:
            right = _EMPTY_PIECE
        else:
            right = adaptive_integrate(g, right_start, 1.0, piece_tol)
    except NonfiniteIntegrandError as exc:
        raise _quotient_failure(f, "difference", exc.x, (exc.x,)) from exc
    lower = 0.0 if problem.method == "open" else problem.mu
    try:
        symmetric = adaptive_integrate(h, lower, delta, piece_tol)
    except NonfiniteIntegrandError as exc:
        x = exc.x
        raise _quotient_failure(f, "symmetric", x, (tau + x, tau - x)) from exc

    log_term = f_tau * math.log((1.0 - tau) / (1.0 + tau))
    value = log_term + left.value + right.value + symmetric.value

    deriv = derivative_estimates(f, tau, delta, f_tau=f_tau)
    budget = total_error_estimate(
        (left.error_estimate, right.error_estimate, symmetric.error_estimate),
        deriv,
        f_tau,
        tau,
        eps=EPS,
        method=problem.method,
        mu=problem.mu,
    )
    return CpvResult(
        value=value,
        error_estimate=budget.total,
        budget=budget,
        evaluations=left.evaluations + right.evaluations + symmetric.evaluations,
        converged=left.converged and right.converged and symmetric.converged,
    )


def cpv_general(
    f: Integrand,
    tau: float,
    a: float,
    b: float,
    tol: float = 1e-12,
    method: str = "open",
    mu: Optional[float] = None,
) -> CpvResult:
    """Compute a principal value integral over an arbitrary interval [a, b].

    The affine substitution to [-1, 1] leaves the Cauchy kernel invariant,
    so the reference-interval result is returned unscaled.  The reported
    evaluations and budget refer to the transformed problem; a non-finite
    integrand or quotient is reported at the caller's abscissa x, or at the
    caller's offset from tau for the symmetric quotient.
    """
    problem = CpvProblem(
        f=f, tau=tau, a=a, b=b, tol=tol, method=method,
        mu=EPS if mu is None else mu,
    )
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    def mapped(t: float) -> float:
        return f(mid + half * t)
    unit = CpvProblem(
        f=mapped, tau=problem.unit_tau(), tol=tol, method=method,
        mu=EPS if mu is None else mu,
    )
    try:
        return cpv_standard(unit)
    except QuotientOverflowError as exc:
        if exc.quotient == "symmetric":
            x = half * exc.x
        else:
            x = mid + half * exc.x
        raise QuotientOverflowError(exc.quotient, x) from exc
    except NonfiniteIntegrandError as exc:
        raise NonfiniteIntegrandError(mid + half * exc.x) from exc


def longman_split(f: Integrand, tau: float, tol: float = 1e-12) -> float:
    """Principal value by the odd/even split alone, without the log term.

    The symmetric interval (tau - delta, tau + delta) around the singularity
    is folded into the symmetric quotient; what remains of [-1, 1] is a
    single one-sided integral of the raw f(x) / (x - tau).  That remainder
    is where this scheme hurts: for tau near an endpoint the raw integrand
    is nearly singular just outside the integration range, and the adaptive
    engine has to refine hard toward that end (or gives up at the interval
    cap).  Kept as a cross-check; the main path replaces the raw remainder
    with the subtracted quotient, which has no such blow-up.
    """
    delta = endpoint_distance(tau)
    def raw(x: float) -> float:
        return f(x) / (x - tau)
    h = make_symmetric_quotient(f, tau)
    if tau < 0.0:
        side = adaptive_integrate(raw, tau + delta, 1.0, tol / 2.0)
    elif tau > 0.0:
        side = adaptive_integrate(raw, -1.0, tau - delta, tol / 2.0)
    else:
        side = _EMPTY_PIECE
    symmetric = adaptive_integrate(h, 0.0, delta, tol / 2.0)
    return side.value + symmetric.value


def subtract_singularity(f: Integrand, tau: float, tol: float = 1e-12) -> float:
    """Principal value by global subtraction of the singular part.

    The difference quotient (f(x) - f(tau)) / (x - tau) is integrated over
    all of [-1, 1] and the log term added in closed form.  The integration
    range is split at tau so that the open rule never lands on the exact
    zero-over-zero point, but quadrature nodes still approach tau as the
    partition refines, and there the quotient's rounding error grows like
    1 / |x - tau|.  Kept as a cross-check for the measurable accuracy loss
    the main path's delta-neighbourhood exclusion avoids.
    """
    d = endpoint_distance(tau)  # validates tau
    del d
    f_tau = f(tau)
    if not math.isfinite(f_tau):
        raise NonfiniteIntegrandError(tau)
    g = make_difference_quotient(f, tau, f_tau)
    log_term = f_tau * math.log((1.0 - tau) / (1.0 + tau))
    left = adaptive_integrate(g, -1.0, tau, tol / 2.0)
    right = adaptive_integrate(g, tau, 1.0, tol / 2.0)
    return log_term + left.value + right.value
