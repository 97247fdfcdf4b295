"""Cauchy principal value integrals on finite intervals.

The package computes integrals of f(x) / (x - tau) in the principal value
sense by splitting off the singular contribution analytically: a closed-form
logarithmic term plus two integrals whose integrands stay finite.  Those are
handled by an in-package adaptive Gauss-Kronrod integrator, and every result
carries an error estimate that accounts for quadrature truncation as well as
the roundoff amplification specific to this decomposition.
"""

from .cpv import (
    CpvProblem,
    CpvResult,
    QuotientOverflowError,
    cpv_general,
    cpv_standard,
)
from .error_model import (
    EPS,
    DerivativeEstimates,
    ErrorBudget,
    cutoff_budget,
    curvature_sensitivity,
    derivative_estimates,
    difference_quotient_roundoff,
    endpoint_distance,
    log_term_sensitivity,
    symmetric_quotient_roundoff,
    total_error_estimate,
)
from .quadrature import (
    AdaptiveResult,
    EmbeddedRulePair,
    Integrand,
    NonfiniteIntegrandError,
    QuadratureRule,
    SumOverflowError,
    adaptive_integrate,
    gauss_legendre_rule,
    kronrod_pair_g7k15,
    kronrod_pair_g10k21,
)

__all__ = [
    "AdaptiveResult",
    "CpvProblem",
    "CpvResult",
    "DerivativeEstimates",
    "EPS",
    "EmbeddedRulePair",
    "ErrorBudget",
    "Integrand",
    "NonfiniteIntegrandError",
    "QuadratureRule",
    "QuotientOverflowError",
    "SumOverflowError",
    "adaptive_integrate",
    "cpv_general",
    "cpv_standard",
    "curvature_sensitivity",
    "cutoff_budget",
    "derivative_estimates",
    "difference_quotient_roundoff",
    "endpoint_distance",
    "gauss_legendre_rule",
    "kronrod_pair_g7k15",
    "kronrod_pair_g10k21",
    "log_term_sensitivity",
    "symmetric_quotient_roundoff",
    "total_error_estimate",
]

__version__ = "0.1.0"
