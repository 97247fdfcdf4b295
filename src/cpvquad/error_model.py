"""Roundoff-aware error accounting for the principal value decomposition.

Splitting a principal value integral into a logarithmic term plus difference
quotients removes the singularity analytically, but evaluating those
quotients in floating point amplifies rounding: subtracting nearly equal
function values and dividing by a small distance scales the arithmetic error
by the reciprocal of that distance.  The bounds here are first-order in the
working precision and deliberately conservative; they feed the error budget
attached to every computed integral.

The paper's bounds take the relative rounding error bound ``eps``
explicitly and default to :data:`EPS`, the bound for IEEE double
arithmetic.  Those that depend on the interval [a, b] take it as trailing
``a`` and ``b``, which default to the reference interval [-1, 1].  The
solver's prologue (:func:`derivative_estimates` and
:func:`total_error_estimate`) takes the checked
:class:`~cpvquad.cpv.CpvProblem` instead, checks none of its fields again,
and uses EPS itself.  Every quantity is in the units of x.

README.md ("Error budget") tabulates the budget's terms with their formulas
and sources; no other module of the package names a floor term in code.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional

from .quadrature import NonfiniteIntegrandError

if TYPE_CHECKING:
    from .cpv import CpvProblem

__all__ = [
    "EPS",
    "ErrorBudget",
    "json_number",
    "DerivativeEstimates",
    "endpoint_distance",
    "symmetric_quotient_roundoff",
    "difference_quotient_roundoff",
    "cutoff_budget",
    "derivative_estimates",
    "log_term_sensitivity",
    "total_error_estimate",
]

#: Bound on the relative error of one rounded double operation (2^-53).
EPS = 2.0**-53

#: Calibration constant of the curvature term of :func:`total_error_estimate`.
_CURVATURE_FACTOR = 8.0

#: The cube root of EPS, which scales the default derivative step.
_CBRT_EPS = EPS ** (1.0 / 3.0)

#: The smallest normal double; a square below it has underflowed.
_MIN_NORMAL = sys.float_info.min


def json_number(v: float) -> Optional[float]:
    """v itself, or None (JSON null) where v is NaN or infinite.

    The JSON output surfaces write numbers through this, with
    ``allow_nan=False``, so a jump at tau gives strict JSON.
    """
    return v if math.isfinite(v) else None


class ErrorBudget(NamedTuple):
    """Additive error budget for one principal value computation.

    ``quad_left``, ``quad_right`` and ``quad_h`` are the achieved estimates of
    the three quadrature pieces.  ``roundoff`` bounds the accumulated rounding
    of the quotient evaluations, ``log_sensitivity`` the effect of the rounded
    singularity location on the logarithmic term, and
    ``curvature_sensitivity`` its effect on the quotient integrals.
    ``cutoff`` is nonzero only when a small interval around the origin of the
    symmetric quotient was cut off instead of integrated.
    """

    quad_left: float
    quad_right: float
    quad_h: float
    roundoff: float
    log_sensitivity: float
    curvature_sensitivity: float
    cutoff: float

    @property
    def total(self) -> float:
        # left to right in field order; a compensated sum would move bits
        (quad_left, quad_right, quad_h, roundoff, log_sensitivity,
         curvature_sensitivity, cutoff) = self
        return (
            quad_left
            + quad_right
            + quad_h
            + roundoff
            + log_sensitivity
            + curvature_sensitivity
            + cutoff
        )

    def as_json_dict(self) -> dict[str, Optional[float]]:
        """``_asdict()`` with each term through :func:`json_number`: the
        budget as every JSON output writes it."""
        return {k: json_number(v) for k, v in self._asdict().items()}


class DerivativeEstimates(NamedTuple):
    """Central difference estimates of f' and f'' at the singularity.

    ``f1`` and ``f2`` come from the stencil at ``step``; ``jump`` is whether
    the finer stencils show f jumping at tau, where no f' exists (see
    :func:`derivative_estimates`).
    """

    f1: float
    f2: float
    step: float
    jump: bool


def _require_positive(name: str, v: float) -> None:
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {v!r}")


def _require_nonnegative(name: str, v: float) -> None:
    if not (math.isfinite(v) and v >= 0.0):
        raise ValueError(f"{name} must be nonnegative and finite, got {v!r}")


def endpoint_distance(tau: float, a: float = -1.0, b: float = 1.0) -> float:
    """Distance from the singularity to the nearer endpoint of [a, b]."""
    if not a < tau < b:
        raise ValueError(f"tau must lie in ({a!r}, {b!r}), got {tau!r}")
    return min(tau - a, b - tau)


def symmetric_quotient_roundoff(x: float, d1: float, eps: float = EPS) -> float:
    """Pointwise rounding bound for (f(tau+x) - f(tau-x)) / x.

    `d1` bounds |f'| on the interval.  The quotient's rounding error grows
    like the reciprocal of the evaluation point: 4 eps d1 / x + 4 eps d1.
    """
    _require_positive("x", x)
    _require_nonnegative("d1", d1)
    _require_positive("eps", eps)
    return 4.0 * eps * d1 / x + 4.0 * eps * d1


def difference_quotient_roundoff(dx: float, d1: float, eps: float = EPS) -> float:
    """Pointwise rounding bound for (f(x) - f(tau)) / (x - tau).

    `dx` is the distance |x - tau| and `d1` bounds |f'|.  The bound
    8 eps d1 / dx is derived for evaluation points within a few rounding
    errors of tau and is applied conservatively at any distance.
    """
    _require_positive("dx", dx)
    _require_nonnegative("d1", d1)
    _require_positive("eps", eps)
    return 8.0 * eps * d1 / dx


def cutoff_budget(mu: float, d1: float, eps: float = EPS) -> float:
    """Total error charged for cutting the symmetric quotient off at mu.

    Combines the accumulated quotient rounding over [mu, 1], which grows
    with log(1/mu), and the truncated mass 2 mu d1 of the skipped interval:
    16 eps d1 log(1/mu) + 2 mu d1.
    """
    _require_positive("mu", mu)
    if mu > 1.0:
        raise ValueError(f"cutoff must lie in (0, 1], got {mu!r}")
    _require_nonnegative("d1", d1)
    _require_positive("eps", eps)
    return 16.0 * eps * d1 * math.log(1.0 / mu) + 2.0 * mu * d1


def _require_finite_stencil(
    tau: float, step: float, f_tau: float, up: float, down: float
) -> None:
    """Raise at the abscissa of the first non-finite of f(tau), f(tau +
    step) and f(tau - step), the values `f_tau`, `up` and `down`.

    A stencil calls this only when the sum of the three is not finite: one
    test on the sum stands for a test per value, and a sum that overflowed
    from finite values raises nothing.
    """
    for x, v in ((tau, f_tau), (tau + step, up), (tau - step, down)):
        if not math.isfinite(v):
            raise NonfiniteIntegrandError(x)


def derivative_estimates(
    problem: CpvProblem, f_tau: float
) -> DerivativeEstimates:
    """Estimate f'(tau) and f''(tau) by central divided differences, and
    whether f jumps at tau.

    With delta the distance from tau to the nearer endpoint, the step is
    max(delta * 1e-4, EPS**(1/3) * max((b-a)/2, |tau|)), clamped to
    delta / 2 so both sample points stay strictly inside (a, b).
    The cube-root floor balances truncation against rounding for the
    difference quotients; it scales with |tau| as well as the interval
    because tau +- step rounds at ulp(tau), and a step below that would
    sample f at tau itself.  The delta-proportional floor
    keeps the step meaningful when the singularity sits very close to an
    endpoint.  These estimates feed error bounds only, so a few correct
    digits are plenty.

    The jump is decided by stencils at steps s, s/2, s/4 and s/8: every
    neighbouring pair must look like a jump (see
    :func:`_pair_looks_like_jump`), and the walk halves the step only while
    every coarser pair did.  Each stencil calls f at tau + step, then
    tau - step, and a non-finite value is reported at its abscissa (see
    :func:`_require_finite_stencil`); a problem without an apparent jump
    costs the stencils at s and s/2, four calls of f.  One pair alone
    cannot tell a jump from an oscillation on the scale of s: for sin(Kx)
    at 0, D(s) = 2 sin(Ks) agrees with D(s/2) whenever cos(Ks/2) lies in
    [0.375, 0.625], bands that cover about 9 % of large K.  The bands of
    the next pair, cos(Ks/4) in the same range, are disjoint from these, so
    no sinusoid passes two pairs; a sum of two can, and the third pair
    rules most of those out.  The stencils resolve tau only to the finest
    step: a jump closer to tau than s/8 looks the same and is reported too.
    Where a step's square underflows, f2 divides by the step twice instead.

    `f_tau` is f(tau), which the caller already has.
    """
    f, tau, a, b, _, _ = problem
    left = tau - a
    right = b - tau
    delta = left if left < right else right
    # min and max as conditionals: each keeps its first argument unless the
    # second is strictly beyond it, as the builtins do
    scale = abs(tau)
    half = 0.5 * (b - a)
    step = _CBRT_EPS * (scale if scale > half else half)
    least = delta * 1e-4
    if not step > least:
        step = least
    clamp = 0.5 * delta
    if clamp < step:
        step = clamp
    # a checked problem has a positive finite delta, which gives a finite
    # step, positive unless delta / 2 underflows
    if step == 0.0:
        raise ValueError(
            f"tau = {tau!r} lies too close to an endpoint of "
            f"[{a!r}, {b!r}] for a derivative stencil"
        )
    s = step
    for n in range(4):
        if s == 0.0:
            # no finer stencil exists to confirm the jump
            break
        up = f(tau + s)
        down = f(tau - s)
        if not math.isfinite(f_tau + up + down):
            _require_finite_stencil(tau, s, f_tau, up, down)
        s_f1 = (up - down) / (2.0 * s)
        # the pair test reads the finer stencil's f1 alone, so f2 waits
        if n and not _pair_looks_like_jump(coarse, coarse_f1, coarse_f2,
                                           s_f1, f_tau, tau):
            break
        curve = up - 2.0 * f_tau + down
        square = s * s
        s_f2 = curve / s / s if square < _MIN_NORMAL else curve / square
        if not n:
            f1 = s_f1
            f2 = s_f2
        coarse, coarse_f1, coarse_f2 = s, s_f1, s_f2
        s = 0.5 * s
    else:
        # tuple.__new__ skips the generated __new__; the record checks nothing
        return tuple.__new__(DerivativeEstimates, (f1, f2, step, True))
    return tuple.__new__(DerivativeEstimates, (f1, f2, step, False))


def _pair_looks_like_jump(
    s: float,
    f1: float,
    f2: float,
    fine_f1: float,
    f_tau: float,
    tau: float,
) -> bool:
    """Whether two stencils, one with `f1` and `f2` at step `s` and one with
    `fine_f1` at s/2, show a jump.

    The central difference D(s) = f(tau+s) - f(tau-s) halves with the step
    where f is differentiable, shrinks faster where f'(tau) = 0, and stays
    at the jump size J where f jumps, so f1 = D / (2s) doubles from coarse
    to fine.  The pair looks like a jump when the two differences agree
    within a quarter of the fine one (a Hölder exponent within about 0.3 of
    0) and the fine one stands 64 times above its rounding noise: a few
    ulps of the sampled values, which the stencil reconstructs from f(tau),
    f1 and f2, plus the rounding of tau +- s at ulp(tau) times the
    one-sided slope.  A kink such as |x - tau| leaves D at rounding level
    and does not look like a jump; a non-finite estimate never does.  The
    agreement is tested first: where f is differentiable D(s) is about
    2 D(s/2), so that test alone settles almost every call.
    """
    # 2 (s/2) is s: the stencils divided by s * s, so s/2 is exact
    d_fine = s * fine_f1
    if not abs(2.0 * s * f1 - d_fine) <= 0.25 * abs(d_fine):
        return False
    sampled = abs(f_tau) + s * abs(f1) + s * s * abs(f2)
    slope = abs(f1) + s * abs(f2)
    noise = EPS * (sampled + abs(tau) * slope)
    return abs(d_fine) > 64.0 * noise


def log_term_sensitivity(
    f_tau: float, tau: float, eps: float = EPS, a: float = -1.0, b: float = 1.0
) -> float:
    """First-order effect of rounding tau on the logarithmic term.

    Storing the singularity location perturbs it relatively by at most eps,
    which moves f(tau) log((b-tau)/(tau-a)) by about
    eps |tau f(tau)| / min(tau-a, b-tau).  For singularities close to an
    endpoint this floor dominates every other error source and cannot be
    reduced by more quadrature work.
    """
    delta = endpoint_distance(tau, a, b)
    _require_positive("eps", eps)
    if not math.isfinite(f_tau):
        raise ValueError(f"f_tau must be finite, got {f_tau!r}")
    # |tau| / delta first: tau * f_tau can overflow, or underflow, where the
    # bound itself is an ordinary number
    return eps * abs(f_tau) * (abs(tau) / delta)


def total_error_estimate(
    problem: CpvProblem, deriv: DerivativeEstimates, f_tau: float
) -> ErrorBudget:
    """The roundoff floor of the error budget for one integral.

    The floor depends only on f(tau) and the derivative stencil, so it is
    known before any quadrature; the three quadrature terms of the returned
    budget are 0, for the caller to fill with the achieved estimates.  With
    eps = EPS, the accumulated quotient rounding enters as 8 eps |f'(tau)|
    max(h, |tau|) with h = (b-a)/2: the quotients round like f' times the
    interval's scale, and the abscissae tau +- x round at the scale of tau.
    The two sensitivity terms account for the rounded singularity location:
    the paper's log-term bound, and the calibrated curvature term
    8 eps |tau| sqrt(|f''(tau)|), which is not one of the paper's bounds
    and has the same form on every interval.
    A cutoff `mu`, a distance in the units of x, adds the cutoff budget
    on the scale of the interval; ``mu = 0``, the open method, adds zero.
    The problem's tau and `mu` are those :class:`~cpvquad.cpv.CpvProblem`
    accepted, so only `f_tau` is checked here.  A derivative estimate that
    overflowed makes the terms built on it infinite rather than raising.
    """
    _, tau, a, b, _, mu = problem
    f1, f2, _, _ = deriv
    if not math.isfinite(f_tau):
        raise ValueError(f"f_tau must be finite, got {f_tau!r}")
    left = tau - a
    right = b - tau
    slope = abs(f1)
    scale = abs(tau)
    half = 0.5 * (b - a)
    if mu != 0.0:
        d1 = half * slope
        cutoff = cutoff_budget(mu / half, d1) if math.isfinite(d1) else math.inf
    else:
        cutoff = 0.0
    return tuple.__new__(ErrorBudget, (
        0.0,
        0.0,
        0.0,
        # max(half, |tau|), as the builtin picks it
        8.0 * EPS * slope * (scale if scale > half else half),
        # log_term_sensitivity's term, inline
        EPS * abs(f_tau) * (scale / (left if left < right else right)),
        (_CURVATURE_FACTOR * EPS * scale * math.sqrt(abs(f2))
         if math.isfinite(f2) else math.inf),
        cutoff,
    ))
