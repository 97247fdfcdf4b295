"""Roundoff-aware error accounting for the principal value decomposition.

Splitting a principal value integral into a logarithmic term plus difference
quotients removes the singularity analytically, but evaluating those
quotients in floating point amplifies rounding: subtracting nearly equal
function values and dividing by a small distance scales the arithmetic error
by the reciprocal of that distance.  The bounds here are first-order in the
working precision and deliberately conservative; they feed the error budget
attached to every computed integral.

All formulas take the relative rounding error bound ``eps`` explicitly and
default to :data:`EPS`, the bound for IEEE double arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from .quadrature import Integrand, NonfiniteIntegrandError

__all__ = [
    "EPS",
    "ErrorBudget",
    "DerivativeEstimates",
    "symmetric_quotient_roundoff",
    "difference_quotient_roundoff",
    "cutoff_budget",
    "derivative_estimates",
    "log_term_sensitivity",
    "curvature_sensitivity",
    "total_error_estimate",
]

#: Bound on the relative error of one rounded double operation (2^-53).
EPS = 2.0**-53


@dataclass(frozen=True)
class ErrorBudget:
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
        return (
            self.quad_left
            + self.quad_right
            + self.quad_h
            + self.roundoff
            + self.log_sensitivity
            + self.curvature_sensitivity
            + self.cutoff
        )

    def as_dict(self) -> dict[str, float]:
        """The seven terms by field name, in field order."""
        return asdict(self)


@dataclass(frozen=True)
class DerivativeEstimates:
    """Central difference estimates of f' and f'' at the singularity."""

    f1: float
    f2: float
    step: float


def _require_positive(name: str, v: float) -> None:
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {v!r}")


def _require_nonnegative(name: str, v: float) -> None:
    if not (math.isfinite(v) and v >= 0.0):
        raise ValueError(f"{name} must be nonnegative and finite, got {v!r}")


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


def derivative_estimates(
    f: Integrand,
    tau: float,
    delta: float,
    f_tau: Optional[float] = None,
) -> DerivativeEstimates:
    """Estimate f'(tau) and f''(tau) by central divided differences.

    The step is max(delta * 1e-4, EPS**(1/3)), clamped to delta / 2 so both
    sample points stay strictly inside (-1, 1).  The cube-root floor balances
    truncation against rounding for the difference quotients; the
    delta-proportional floor keeps the step meaningful when the singularity
    sits very close to an endpoint.  These estimates feed error bounds only,
    so a few correct digits are plenty.

    `f_tau` avoids re-evaluating f at tau when the caller already has it.
    """
    _require_positive("delta", delta)
    step = max(delta * 1e-4, EPS ** (1.0 / 3.0))
    step = min(step, 0.5 * delta)
    if f_tau is None:
        f_tau = f(tau)
    up = f(tau + step)
    down = f(tau - step)
    for x, v in ((tau, f_tau), (tau + step, up), (tau - step, down)):
        if not math.isfinite(v):
            raise NonfiniteIntegrandError(x)
    f1 = (up - down) / (2.0 * step)
    f2 = (up - 2.0 * f_tau + down) / (step * step)
    return DerivativeEstimates(f1, f2, step)


def log_term_sensitivity(f_tau: float, tau: float, eps: float = EPS) -> float:
    """First-order effect of rounding tau on the logarithmic term.

    Storing the singularity location perturbs it relatively by at most eps,
    which moves f(tau) log((1-tau)/(1+tau)) by about
    eps |tau f(tau)| / min(1+tau, 1-tau).  For singularities close to an
    endpoint this floor dominates every other error source and cannot be
    reduced by more quadrature work.
    """
    if not -1.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (-1, 1), got {tau!r}")
    _require_positive("eps", eps)
    if not math.isfinite(f_tau):
        raise ValueError(f"f_tau must be finite, got {f_tau!r}")
    return eps * abs(tau * f_tau) / min(1.0 + tau, 1.0 - tau)


def curvature_sensitivity(
    tau: float, f2: float, eps: float = EPS, c: float = 8.0
) -> float:
    """First-order effect of rounding tau on the quotient integrals.

    Perturbing the singularity location changes the difference quotients in
    proportion to the curvature of f; the calibrated form is
    c * eps * |tau| * sqrt(|f2|) with c = 8 by default.
    """
    if not -1.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (-1, 1), got {tau!r}")
    _require_nonnegative("f2", f2)
    _require_positive("eps", eps)
    _require_positive("c", c)
    return c * eps * abs(tau) * math.sqrt(f2)


def total_error_estimate(
    pieces: tuple[float, float, float],
    deriv: DerivativeEstimates,
    f_tau: float,
    tau: float,
    eps: float = EPS,
    method: str = "open",
    mu: Optional[float] = None,
    c: float = 8.0,
) -> ErrorBudget:
    """Assemble the full error budget for one computed integral.

    `pieces` carries the achieved quadrature estimates (left and right
    difference quotient integrals, symmetric quotient integral).  The
    accumulated quotient rounding enters as 8 eps |f'(tau)|, and the two
    sensitivity terms account for the rounded singularity location.  Under
    ``method="cutoff"`` the cutoff budget for `mu` is added; under "open"
    it is zero.
    """
    quad_left, quad_right, quad_h = pieces
    for name, v in (
        ("quad_left", quad_left),
        ("quad_right", quad_right),
        ("quad_h", quad_h),
    ):
        _require_nonnegative(name, v)
    if method not in ("open", "cutoff"):
        raise ValueError(f"method must be 'open' or 'cutoff', got {method!r}")
    roundoff = 8.0 * eps * abs(deriv.f1)
    log_sens = log_term_sensitivity(f_tau, tau, eps)
    curv = curvature_sensitivity(tau, abs(deriv.f2), eps, c)
    if method == "cutoff":
        cutoff = cutoff_budget(EPS if mu is None else mu, abs(deriv.f1), eps)
    else:
        cutoff = 0.0
    return ErrorBudget(
        quad_left=quad_left,
        quad_right=quad_right,
        quad_h=quad_h,
        roundoff=roundoff,
        log_sensitivity=log_sens,
        curvature_sensitivity=curv,
        cutoff=cutoff,
    )
