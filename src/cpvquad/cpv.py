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
ever sees the singularity.  The three pieces go through one call of the
adaptive Gauss-Kronrod engine, :func:`~cpvquad.quadrature.adaptive_integrate`,
and the result carries an error budget combining the achieved quadrature
estimates with the roundoff floors of the decomposition.

Those floors depend only on f(tau) and a derivative stencil at tau, so they
are computed before any quadrature.  The three pieces then share one
priority queue and one tolerance, max(tol, 2 floor), which their summed
quadrature estimate must meet: where the floor lies above the request,
refining further could not lower the total, and the queue stops at the floor
instead of at the interval cap.  Stencils at successively halved steps
detect a jump of f at tau, where no principal value exists; such a problem
is reported as unconverged before any quadrature runs.  Every result names
why each piece stopped (see :class:`StopReasons`).

Every piece works in the caller's coordinates on any finite [a, b]; no
change of variable is involved.  A quotient that overflows, or whose
weighted sum over an interval overflows, while f stays finite is reported
as :class:`~cpvquad.quadrature.QuotientOverflowError`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .error_model import (
    ErrorBudget,
    derivative_estimates,
    endpoint_distance,
    json_number,
    total_error_estimate,
)
from .quadrature import (
    Integrand,
    NonfiniteIntegrandError,
    adaptive_integrate,
)

__all__ = [
    "CpvProblem",
    "CpvResult",
    "StopReasons",
    "cpv_standard",
    "cpv_general",
]


class _ProblemFields(NamedTuple):
    f: Integrand
    tau: float
    a: float
    b: float
    tol: float
    mu: float


class CpvProblem(_ProblemFields):
    """A principal value integral of f(x) / (x - tau) over [a, b].

    ``mu``, a distance in the units of x, is where the symmetric quotient's
    integral over (mu, delta] starts.  The default 0 is the open method,
    which relies on the open quadrature rule never to sample the origin.  A
    cutoff ``mu`` in (0, delta] starts there instead and charges the skipped
    mass to the error budget; it must exceed 2**-1024 times (b - a) / 2,
    where the budget's log(1 / (mu / ((b - a) / 2))) would overflow.

    Construction is the one place a problem is checked: the solver and its
    prologue test none of the fields again.
    """

    __slots__ = ()

    # _replace copies through _make, which would skip the checks of __new__
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, f: Integrand, tau: float, a: float = -1.0,
                b: float = 1.0, tol: float = 1e-12, mu: float = 0.0):
        # tuple.__new__ skips the generated __new__, which would only bind
        # the same arguments again
        self = tuple.__new__(cls, (f, tau, a, b, tol, mu))
        if not 0.0 < b - a < math.inf:
            if math.isfinite(a) and math.isfinite(b) and a < b:
                raise ValueError(
                    f"interval [{a!r}, {b!r}] is wider than the largest double"
                )
            raise ValueError(f"need finite a < b, got [{a!r}, {b!r}]")
        # a and b are finite, so a tau between them is
        if not a < tau < b:
            raise ValueError(
                f"tau must lie strictly inside ({a!r}, {b!r}), got {tau!r}"
            )
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tolerance must be positive, got {tol!r}")
        if mu != 0.0:
            delta = endpoint_distance(tau, a, b)
            if not (0.0 < mu <= delta and mu / (0.5 * (b - a)) > 2.0**-1024):
                raise ValueError(
                    f"cutoff mu must lie in (0, {delta!r}] and exceed "
                    f"2**-1024 times (b - a) / 2, or be 0 for the open "
                    f"method, got {mu!r}"
                )
        return self

    def __reduce__(self):
        # pickle protocols 0 and 1 would rebuild the tuple without __new__
        return type(self), tuple(self)


class StopReasons(NamedTuple):
    """Why each quadrature piece stopped, named like the budget's terms.

    The pieces share one priority queue, so every non-empty piece reads why
    it stopped: "tolerance" (the summed quadrature estimate met tol),
    "floor" (it met the tolerance raised by the roundoff floor, above tol),
    "interval_cap" or "width_floor" (see :func:`adaptive_integrate`), or, for
    every piece at once, "discontinuous_at_tau" when f jumps at tau and
    nothing was integrated.  A piece charged by the one-point rule is
    non-empty; an empty piece (the near side, a far side whose rounded
    bounds are not ordered, or the symmetric piece at a cutoff mu = delta)
    reads "tolerance".
    """

    quad_left: str
    quad_right: str
    quad_h: str


class CpvResult(NamedTuple):
    """A computed principal value with its error accounting.

    ``error_estimate`` reads ``budget.total``; ``evaluations`` counts the
    quadrature nodes of the three pieces.  A node of a difference-quotient
    piece is one call of f and a node of the symmetric piece two, f(tau + t)
    and f(tau - t); the calls for f(tau) and the derivative stencils are
    not counted.  ``converged`` is
    True when the summed quadrature estimate of the three pieces met
    max(tol, 2 floor), the tolerance raised to twice the roundoff floor where
    the floor lies above the request, so a converged result can still carry
    an estimate above ``tol``, and ``stop_reasons`` then reads "floor".  It
    is False when the shared queue hit the interval cap or the width floor
    first (the value and budget are still meaningful, the budget is simply
    larger), when the budget is infinite, as when a floor term overflowed,
    or when f jumps at tau, where no principal value exists: the value is
    then NaN and the estimate infinite.
    """

    value: float
    budget: ErrorBudget
    evaluations: int
    converged: bool
    stop_reasons: StopReasons

    @property
    def error_estimate(self) -> float:
        return self.budget.total

    def as_json_dict(self) -> dict:
        """The result as every JSON output writes it: ``value``,
        ``estimate`` (``error_estimate``), ``budget``, ``evaluations``,
        ``converged`` and ``stop_reasons``, with a NaN or infinite number
        as None (JSON null)."""
        return {
            "value": json_number(self.value),
            "estimate": json_number(self.error_estimate),
            "budget": self.budget.as_json_dict(),
            "evaluations": self.evaluations,
            "converged": self.converged,
            "stop_reasons": self.stop_reasons._asdict(),
        }


#: The pieces share max(tol, _FLOOR_FACTOR * floor), so the quadrature adds
#: at most twice the floor to a budget the floor already bounds below.
_FLOOR_FACTOR = 2.0

#: The stop reasons of every call whose pieces all met tol.
_AT_TOLERANCE = StopReasons("tolerance", "tolerance", "tolerance")


def cpv_standard(problem: CpvProblem) -> CpvResult:
    """Compute a principal value integral over the problem's [a, b].

    f(tau) and the derivative stencils at step s and s/2 come first: five
    calls of f, and up to four more when those two stencils look like a
    jump and finer ones have to confirm it, all made by
    :func:`~cpvquad.error_model.derivative_estimates`, which also decides
    the jump.  If f jumps at tau no principal value exists, and the result
    reports ``discontinuous_at_tau`` without running any quadrature.
    Otherwise the roundoff floor of the budget (its terms after the three
    quadrature estimates) is computed once from f(tau) and the coarse
    stencil, and one engine call integrates the three quadrature pieces in
    one priority queue until their summed estimate meets max(tol, 2 floor),
    so no piece refines toward an accuracy the floor rules out; the same
    floor terms enter the final budget.  A floor that overflowed leaves the
    tolerance at tol, and the result unconverged, as its budget is
    infinite.

    The solver computes tau - a, b - tau and delta once, and each prologue
    function computes what it reads once; nothing is built that the result
    does not read.  A call that its first rule applications settle costs
    those applications, the five calls of f above, and a fixed path that
    builds no queue (see :func:`adaptive_integrate`).  The three names
    ``derivative_estimates``, ``total_error_estimate`` and
    ``adaptive_integrate`` are called as attributes of this module, once
    each per call (the engine not at all on a jump), so a wrapper set on
    them sees every call.

    On whichever side of tau the distance to the endpoint equals delta, the
    difference quotient piece is empty (the symmetric integral already covers
    it).  That side is chosen by comparing the two distances, not by
    recomputing tau -+ delta, which can miss the endpoint by an ulp off
    [-1, 1]; it costs no evaluations.  The far piece is integrated only when
    its rounded bounds are ordered; one too narrow for the rule, which tau
    a few ulps off the midpoint leaves, gets the engine's one-point charge
    (see :func:`adaptive_integrate`).  With tau at the midpoint both sides
    are empty and the result is the symmetric integral alone.  The
    symmetric piece runs over (mu, delta]: over (0, delta] for the open
    method, and empty for a cutoff mu = delta.  The engine caps the shared
    queue by the pieces it finds non-empty.
    A non-finite integrand or quotient is reported at the abscissa x, or at
    the offset from tau for the symmetric quotient.
    """
    f, tau, a, b, tol, mu = problem
    f_tau = f(tau)
    if not math.isfinite(f_tau):
        raise NonfiniteIntegrandError(tau)

    deriv = derivative_estimates(problem, f_tau)
    floor = total_error_estimate(problem, deriv, f_tau)
    if deriv.jump:
        # the records check nothing, so tuple.__new__ builds them directly
        budget = tuple.__new__(ErrorBudget,
                               (math.inf, math.inf, math.inf, *floor[3:]))
        jump = "discontinuous_at_tau"
        return tuple.__new__(CpvResult, (
            math.nan, budget, 0, False,
            tuple.__new__(StopReasons, (jump, jump, jump))))
    # the floor's quadrature terms are 0, so its total is its roundoff
    # terms; it is never NaN, so this is max(tol, raised) where raised is
    # finite, and tol where it overflowed
    raised = _FLOOR_FACTOR * floor.total
    quad_tol = raised if tol < raised < math.inf else tol

    # CpvProblem has checked a < tau < b.  The near side, and a far side
    # whose rounded bounds are not ordered, are the empty pieces [a, a] and
    # [b, b]
    below = tau - a
    above = b - tau
    if above < below:
        delta = above
        left_end = tau - delta
        if not a < left_end:
            left_end = a
        right_start = b
    else:
        delta = below
        left_end = a
        right_start = tau + delta
        if not (below < above and right_start < b):
            right_start = b
    values, estimates, evaluations, reason = adaptive_integrate(
        f, (("difference", a, left_end), ("difference", right_start, b),
            ("symmetric", mu, delta)),
        quad_tol, tau, f_tau,
    )

    ratio = above / below
    if 0.0 < ratio < math.inf:
        log_term = f_tau * math.log(ratio)
    else:
        # tau lies so close to an endpoint that the ratio over- or underflowed
        log_term = f_tau * (math.log(above) - math.log(below))
    value = log_term + values[0] + values[1] + values[2]
    converged = reason == "tolerance"
    if converged and estimates[0] + estimates[1] + estimates[2] > tol:
        reason = "floor"
    budget = tuple.__new__(ErrorBudget, (*estimates, *floor[3:]))
    return tuple.__new__(CpvResult, (
        value,
        budget,
        evaluations[0] + evaluations[1] + evaluations[2],
        # a budget that overflowed bounds nothing
        converged and math.isfinite(budget.total),
        _AT_TOLERANCE if reason == "tolerance" else
        tuple.__new__(StopReasons, (reason if a < left_end else "tolerance",
                                    reason if right_start < b else "tolerance",
                                    reason if mu < delta else "tolerance")),
    ))


def cpv_general(
    f: Integrand,
    tau: float,
    a: float,
    b: float,
    tol: float = 1e-12,
    mu: float = 0.0,
) -> CpvResult:
    """Compute a principal value integral over [a, b] from loose arguments.

    The same computation as :func:`cpv_standard` on the equivalent
    :class:`CpvProblem`; ``mu`` is in the units of x, 0 for the open method.
    """
    return cpv_standard(CpvProblem(f, tau, a, b, tol, mu))
