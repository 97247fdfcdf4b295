"""Cauchy principal value integrals on finite intervals.

The package computes integrals of f(x) / (x - tau) in the principal value
sense by splitting off the singular contribution analytically: a closed-form
logarithmic term plus two integrals whose integrands stay finite.  Those are
handled by an in-package adaptive Gauss-Kronrod integrator, and every result
carries an error estimate that accounts for quadrature truncation as well as
the roundoff amplification specific to this decomposition.

The package root exports the solver, its records and its errors.  The
engine, the rules and the paper's roundoff bounds are importable from
:mod:`cpvquad.quadrature` and :mod:`cpvquad.error_model`.
"""

from .cpv import (
    CpvProblem,
    CpvResult,
    StopReasons,
    cpv_general,
    cpv_standard,
)
from .error_model import ErrorBudget
from .quadrature import NonfiniteIntegrandError, QuotientOverflowError
# perfbench/run.py's set-up builds this rule through the package root
from .quadrature import kronrod_pair_g7k15

__all__ = [
    "CpvProblem",
    "CpvResult",
    "ErrorBudget",
    "NonfiniteIntegrandError",
    "QuotientOverflowError",
    "StopReasons",
    "cpv_general",
    "cpv_standard",
    "kronrod_pair_g7k15",
]

__version__ = "0.1.0"
