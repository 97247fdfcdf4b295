"""Principal value integrals of f(x) / (x - tau) on finite intervals.

The working decomposition subtracts the singular part analytically and folds
the remaining near-singular behaviour into quotients that stay finite:

    pv integral = f(tau) log((b-tau)/(tau-a))
                + integral of (f(x) - f(tau)) / (x - tau) over the part of
                  [a, b] at distance >= delta from tau
                + integral of (f(tau+x) - f(tau-x)) / x over (0, delta]

with delta = min(tau-a, b-tau), the distance from tau to the nearer
endpoint.  The region within delta of tau is covered by the third, symmetric
integral, whose integrand tends to 2 f'(tau) at 0, so no quadrature node
ever sees the singularity.  Each piece goes through the adaptive
Gauss-Kronrod engine, and the result carries an error budget combining the
achieved quadrature estimates with the roundoff floors of the decomposition.

Those floors depend only on f(tau) and a derivative stencil at tau, so they
are computed before any quadrature.  Each piece then gets a third of
max(tol, 2 floor): where the floor lies above the request, refining further
could not lower the total, and the pieces stop at the floor instead of at
the interval cap.  Stencils at successively halved steps detect a jump of f
at tau, where no principal value exists; such a problem is reported as
unconverged before any quadrature runs.  Every result names why each piece
stopped (see :class:`StopReasons`).

Every piece works in the caller's coordinates on any finite [a, b]; no
change of variable is involved.  A quotient that overflows, or whose
weighted sum over an interval overflows, while f stays finite is reported
as :class:`QuotientOverflowError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .error_model import (
    EPS,
    ErrorBudget,
    derivative_estimates,
    endpoint_distance,
    jump_at_tau,
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
    "StopReasons",
    "QuotientOverflowError",
    "endpoint_distance",
    "make_difference_quotient",
    "make_symmetric_quotient",
    "cpv_standard",
    "cpv_general",
]


class QuotientOverflowError(NonfiniteIntegrandError):
    """Raised when a quotient overflows although the integrand is finite.

    ``x`` is the quotient's abscissa and ``quotient`` names the quotient,
    "difference" or "symmetric".  A steep integrand such as 1e308 * x
    overflows (f(tau+x) - f(tau-x)) / x near 2 f'(tau) while every f value
    stays finite; with 6e307 * x every quotient value is finite but their
    weighted sum over an interval overflows, and ``x`` is then the node of
    the largest quotient value.
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


@dataclass(frozen=True)
class CpvProblem:
    """A principal value integral of f(x) / (x - tau) over [a, b].

    ``method`` selects how the symmetric quotient is integrated near 0:
    "open" integrates over (0, delta] relying on the open quadrature rule,
    "cutoff" starts at ``mu`` instead and charges the skipped mass to the
    error budget.  ``mu`` is a distance in the units of x and is only
    consulted by the cutoff method.
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
        if self.method == "cutoff":
            delta = endpoint_distance(self.tau, self.a, self.b)
            if not 0.0 < self.mu <= delta:
                raise ValueError(
                    f"cutoff mu must lie in (0, {delta!r}], got {self.mu!r}"
                )


class StopReasons(NamedTuple):
    """Why each quadrature piece stopped, named like the budget's terms.

    Each entry is "tolerance" (the piece met tol / 3), "floor" (it met a
    share raised by the roundoff floor, above tol / 3), "interval_cap" or
    "width_floor" (see :class:`AdaptiveResult`), or, for every piece at
    once, "discontinuous_at_tau" when f jumps at tau and nothing was
    integrated.
    """

    quad_left: str
    quad_right: str
    quad_h: str


@dataclass(frozen=True)
class CpvResult:
    """A computed principal value with its error accounting.

    ``error_estimate`` equals ``budget.total``; ``evaluations`` counts the
    integrand calls made by the three quadrature pieces.  ``converged`` is
    True when every piece met its share of the tolerance; that share is
    raised to the roundoff floor where the floor lies above the request, so
    a converged result can still carry an estimate above ``tol``, and
    ``stop_reasons`` then reads "floor".  It is False when a piece hit the
    interval cap or the width floor first (the value and budget are still
    meaningful, the budget is simply larger) or when f jumps at tau, where
    no principal value exists: the value is then NaN and the estimate
    infinite.
    """

    value: float
    error_estimate: float
    budget: ErrorBudget
    evaluations: int
    converged: bool
    stop_reasons: StopReasons


_EMPTY_PIECE = AdaptiveResult(0.0, 0.0, 0, True)

#: Each piece gets max(tol, _FLOOR_FACTOR * floor) / 3, so the quadrature
#: adds at most twice the floor to a budget the floor already bounds below.
_FLOOR_FACTOR = 2.0


def _reason(piece: AdaptiveResult, tol: float) -> str:
    """The piece's stop reason, "floor" where only the raised share was met."""
    if piece.stop_reason == "tolerance" and piece.error_estimate > tol / 3.0:
        return "floor"
    return piece.stop_reason


def cpv_standard(problem: CpvProblem) -> CpvResult:
    """Compute a principal value integral over the problem's [a, b].

    f(tau) and two derivative stencils, at step s and s/2, come first:
    five calls of f, and up to four more when those two stencils look like
    a jump and finer ones have to confirm it (see :func:`jump_at_tau`).
    If f jumps at tau no principal value exists, and the result reports
    ``discontinuous_at_tau`` without running any quadrature.  Otherwise the
    roundoff floor of the budget (roundoff, log sensitivity, curvature and
    cutoff terms) is computed once from f(tau) and the coarse stencil, and
    each quadrature piece gets max(tol, 2 floor) / 3, so no piece refines
    toward an accuracy the floor rules out; the same floor terms enter the
    final budget.  A floor that overflowed leaves the shares at tol / 3.

    On whichever side of tau the distance to the endpoint equals delta, the
    difference quotient piece is empty (the symmetric integral already covers
    it).  That side is chosen by comparing the two distances, not by
    recomputing tau -+ delta, which can miss the endpoint by an ulp off
    [-1, 1]; it costs no evaluations.  The far piece is integrated only when
    its rounded bounds are ordered; one too narrow for the rule, which tau
    a few ulps off the midpoint leaves, gets the engine's one-point charge
    (see :func:`adaptive_integrate`).  With tau at the
    midpoint both sides are empty and the result is the symmetric integral
    alone.
    A non-finite integrand or quotient is reported at the abscissa x, or at
    the offset from tau for the symmetric quotient.
    """
    f = problem.f
    tau = problem.tau
    a = problem.a
    b = problem.b
    tol = problem.tol
    delta = endpoint_distance(tau, a, b)
    f_tau = f(tau)
    if not math.isfinite(f_tau):
        raise NonfiniteIntegrandError(tau)

    deriv = derivative_estimates(f, tau, delta, f_tau=f_tau, a=a, b=b)
    floor = total_error_estimate(
        (0.0, 0.0, 0.0),
        deriv,
        f_tau,
        tau,
        eps=EPS,
        method=problem.method,
        mu=problem.mu,
        a=a,
        b=b,
    )
    if jump_at_tau(f, deriv, f_tau, tau, delta):
        budget = replace(floor, quad_left=math.inf, quad_right=math.inf,
                         quad_h=math.inf)
        return CpvResult(
            value=math.nan,
            error_estimate=budget.total,
            budget=budget,
            evaluations=0,
            converged=False,
            stop_reasons=StopReasons(*(("discontinuous_at_tau",) * 3)),
        )
    raised = _FLOOR_FACTOR * floor.floor
    piece_tol = max(tol, raised) / 3.0 if math.isfinite(raised) else tol / 3.0

    g = make_difference_quotient(f, tau, f_tau)
    h = make_symmetric_quotient(f, tau)
    left_end = tau - delta
    right_start = tau + delta
    near_left = tau - a <= b - tau
    near_right = b - tau <= tau - a

    try:
        if near_left or not a < left_end:
            left = _EMPTY_PIECE
        else:
            left = adaptive_integrate(g, a, left_end, piece_tol)
        if near_right or not right_start < b:
            right = _EMPTY_PIECE
        else:
            right = adaptive_integrate(g, right_start, b, piece_tol)
    except NonfiniteIntegrandError as exc:
        raise _quotient_failure(f, "difference", exc.x, (exc.x,)) from exc
    lower = 0.0 if problem.method == "open" else problem.mu
    try:
        symmetric = adaptive_integrate(h, lower, delta, piece_tol)
    except NonfiniteIntegrandError as exc:
        x = exc.x
        raise _quotient_failure(f, "symmetric", x, (tau + x, tau - x)) from exc

    log_term = f_tau * math.log((b - tau) / (tau - a))
    value = log_term + left.value + right.value + symmetric.value
    budget = replace(
        floor,
        quad_left=left.error_estimate,
        quad_right=right.error_estimate,
        quad_h=symmetric.error_estimate,
    )
    pieces = (left, right, symmetric)
    return CpvResult(
        value=value,
        error_estimate=budget.total,
        budget=budget,
        evaluations=sum(p.evaluations for p in pieces),
        converged=all(p.converged for p in pieces),
        stop_reasons=StopReasons(*(_reason(p, tol) for p in pieces)),
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
    """Compute a principal value integral over [a, b] from loose arguments.

    The same computation as :func:`cpv_standard` on the equivalent
    :class:`CpvProblem`; ``mu`` defaults to :data:`EPS`, in the units of x.
    """
    return cpv_standard(CpvProblem(
        f=f, tau=tau, a=a, b=b, tol=tol, method=method,
        mu=EPS if mu is None else mu,
    ))
