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
    endpoint_distance,
    longman_split,
    make_difference_quotient,
    make_symmetric_quotient,
    singular_log_term,
    subtract_singularity,
)
from .error_model import (
    EPS,
    DerivativeEstimates,
    ErrorBudget,
    cutoff_budget,
    curvature_sensitivity,
    derivative_estimates,
    difference_quotient_roundoff,
    log_term_sensitivity,
    symmetric_quotient_roundoff,
    total_error_estimate,
)
from .quadrature import (
    AdaptiveResult,
    EmbeddedRulePair,
    Integrand,
    IntervalEstimate,
    NonfiniteIntegrandError,
    QuadratureRule,
    adaptive_integrate,
    apply_rule,
    gauss_legendre_rule,
    kronrod_pair_g7k15,
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
    "IntervalEstimate",
    "NonfiniteIntegrandError",
    "QuadratureRule",
    "QuotientOverflowError",
    "adaptive_integrate",
    "apply_rule",
    "cpv_general",
    "cpv_standard",
    "curvature_sensitivity",
    "cutoff_budget",
    "derivative_estimates",
    "difference_quotient_roundoff",
    "endpoint_distance",
    "gauss_legendre_rule",
    "kronrod_pair_g7k15",
    "log_term_sensitivity",
    "longman_split",
    "make_difference_quotient",
    "make_symmetric_quotient",
    "singular_log_term",
    "subtract_singularity",
    "symmetric_quotient_roundoff",
    "total_error_estimate",
]

__version__ = "0.1.0"
