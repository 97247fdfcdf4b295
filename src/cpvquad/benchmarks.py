"""Built-in benchmark battery with frozen high-precision references.

Seven integrands, two of them registered at two singularity locations
each, exercise the solver across smooth, highly oscillatory, nearly
log-singular, kinked and chirped integrands, including a singularity at
distance 1e-7 from an endpoint.  Every reference value was computed by two
structurally independent high-precision routes (``python tests/oracles.py``
in a source checkout recomputes them) and is stored here as a pair of
30-digit decimal strings.  Building the reference table re-checks the
pair; disagreement beyond 1e-12 relative aborts rather than silently
trusting either route.

References describe the exact decimal singularity location, the
shortest repr of tau (``tau_text``).
For the near-endpoint case the double rounding of tau itself shifts the
true value by about 1.4e-9; that shift is real, is covered by the reported
error budget, and is why the acceptance bound for that case is looser.
"""

from __future__ import annotations

import csv
import json
import math
import time
from typing import IO, NamedTuple, Sequence

from .cpv import CpvProblem, CpvResult, cpv_standard
from .error_model import json_number
from .quadrature import Integrand, warm

__all__ = [
    "BenchmarkCase",
    "BenchmarkRow",
    "builtin_problems",
    "reference_values",
    "run_benchmark",
    "write_csv",
    "write_json",
]

#: Tolerance the acceptance bounds are calibrated at; looser tolerances
#: scale the bounds proportionally, tighter ones keep them.
CALIBRATION_TOL = 1e-12

#: Relative disagreement between the two stored reference strings that
#: aborts the table build.
_CROSSCHECK_LIMIT = 1e-12


class BenchmarkCase(NamedTuple):
    """One battery entry: a native integrand with its frozen reference.

    ``expression`` is the parser-language mirror of ``integrand``; the two
    must evaluate identically to within one unit in the last place.
    ``reference_text`` and ``crosscheck_text`` are 30-digit decimals from
    two independent computations (``python tests/oracles.py`` prints every
    route of every case).  ``tau_text`` is tau's shortest repr, the
    decimal the references were computed at.  ``error_bound`` is the
    acceptance bound on the absolute error at the calibration tolerance.
    """

    name: str
    integrand: Integrand
    expression: str
    tau: float
    reference_text: str
    crosscheck_text: str
    error_bound: float

    @property
    def tau_text(self) -> str:
        """The decimal the references were computed at: tau's shortest repr."""
        return repr(self.tau)

    def reference_value(self) -> float:
        """The reference as a double, after re-checking the stored pair."""
        primary = float(self.reference_text)
        check = float(self.crosscheck_text)
        scale = max(abs(primary), abs(check))
        if abs(primary - check) > _CROSSCHECK_LIMIT * scale:
            raise RuntimeError(
                f"reference cross-check failed for {self.name}: "
                f"{self.reference_text} vs {self.crosscheck_text}"
            )
        return primary


class BenchmarkRow(NamedTuple):
    """Result of running one battery case at some tolerance."""

    name: str
    tau: float
    result: CpvResult
    abs_error: float
    elapsed_seconds: float
    bound: float

    @property
    def passed(self) -> bool:
        """Bound on the actual error holds and the estimate covers it."""
        return (self.abs_error <= self.bound
                and self.result.error_estimate >= self.abs_error)


def _fast_sine(x: float) -> float:
    return math.sin(550.0 * x)


def _modulated_root(x: float) -> float:
    return math.sqrt(2.0 + math.cos(200.0 * x))


def _log_squared(x: float) -> float:
    return math.log(1.0001 - x) ** 2


def _cusped_cosine(x: float) -> float:
    return abs(math.cos(44.0 * x)) ** 1.5


def _semicircle_cosine(x: float) -> float:
    return math.sqrt(1.0 - x * x) * math.cos(100.0 * x)


def _gaussian_chirp(x: float) -> float:
    return math.exp(-100.0 * (x + 0.4) ** 2) * math.sin(math.exp(-10.0 * x))


_CASES: tuple[BenchmarkCase, ...] = (
    BenchmarkCase(
        name="case1",
        integrand=math.exp,
        expression="exp(x)",
        tau=0.5,
        reference_text="0.913786431723662428316752218177",
        crosscheck_text="0.913786431723662428316752218177",
        error_bound=5e-12,
    ),
    BenchmarkCase(
        name="case2",
        integrand=_fast_sine,
        expression="sin(550*x)",
        tau=0.8,
        reference_text="3.10236535075020418598260532316",
        crosscheck_text="3.10236535075020418598260532316",
        error_bound=5e-12,
    ),
    BenchmarkCase(
        name="case3",
        integrand=_modulated_root,
        expression="sqrt(2 + cos(200*x))",
        tau=0.7,
        reference_text="-3.55347128154434046352370846655",
        crosscheck_text="-3.55347128154434046352370846655",
        error_bound=5e-12,
    ),
    BenchmarkCase(
        name="case4",
        integrand=_log_squared,
        expression="log(1.0001 - x)^2",
        tau=0.99,
        reference_text="-3.24719292500464820267090419589",
        crosscheck_text="-3.24719292500464820267090419589",
        error_bound=5e-12,
    ),
    BenchmarkCase(
        name="case5",
        integrand=_cusped_cosine,
        expression="abs(cos(44*x))^1.5",
        tau=-0.6,
        reference_text="1.80141410585479103731155569105",
        crosscheck_text="1.80141410585479103731155569105",
        error_bound=5e-12,
    ),
    BenchmarkCase(
        name="case6",
        integrand=_semicircle_cosine,
        expression="sqrt(1 - x^2)*cos(100*x)",
        tau=0.5,
        reference_text="0.712213598205206236997977082899",
        crosscheck_text="0.712213598205206236997977082899",
        error_bound=5e-12,
    ),
    BenchmarkCase(
        name="case6b",
        integrand=_semicircle_cosine,
        expression="sqrt(1 - x^2)*cos(100*x)",
        tau=0.9,
        reference_text="-1.23575761278377288091026361754",
        crosscheck_text="-1.23575761278377288091026361754",
        error_bound=5e-12,
    ),
    BenchmarkCase(
        name="case7",
        integrand=math.exp,
        expression="exp(x)",
        tau=0.9999999,
        reference_text="-42.1115617933223817213857497322",
        crosscheck_text="-42.1115617933223817213857497322",
        error_bound=5e-9,
    ),
    BenchmarkCase(
        name="case8",
        integrand=_gaussian_chirp,
        expression="exp(-100*(x + 0.4)^2)*sin(exp(-10*x))",
        tau=-0.41,
        reference_text="2.4760780010848814589111422744",
        crosscheck_text="2.4760780010848814589111422744",
        error_bound=5e-12,
    ),
)


def builtin_problems() -> list[BenchmarkCase]:
    """The built-in battery; two of its integrands appear at two taus."""
    return list(_CASES)


def reference_values() -> dict[str, float]:
    """Map case name to its reference, re-checking every stored pair."""
    return {case.name: case.reference_value() for case in _CASES}


def run_benchmark(tol: float = 1e-12) -> list[BenchmarkRow]:
    """Run the battery at `tol` and return one row per case.  Cases run
    sequentially so the per-case timings do not contend with each other.
    """
    bound_scale = max(1.0, tol / CALIBRATION_TOL)
    # the one-time rule builds, their exactness checks and the compile of
    # what the engine runs on the quotient forms belong to no case
    warm(("difference", "symmetric"))
    rows = []
    for case in _CASES:
        reference = case.reference_value()
        start = time.perf_counter()
        result = cpv_standard(CpvProblem(f=case.integrand, tau=case.tau, tol=tol))
        elapsed = time.perf_counter() - start
        rows.append(
            BenchmarkRow(
                name=case.name,
                tau=case.tau,
                result=result,
                abs_error=abs(result.value - reference),
                elapsed_seconds=elapsed,
                bound=case.error_bound * bound_scale,
            )
        )
    return rows


_CSV_COLUMNS = (
    "name",
    "tau",
    "value",
    "abs_error",
    "estimate",
    "evaluations",
    "converged",
    "elapsed_seconds",
)


def write_csv(rows: Sequence[BenchmarkRow], stream: IO[str]) -> None:
    """Write rows as CSV with shortest-roundtrip decimal formatting;
    ``converged`` reads ``true`` or ``false``, as in the JSON."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        result = row.result
        writer.writerow(
            [
                row.name,
                repr(row.tau),
                repr(result.value),
                repr(row.abs_error),
                repr(result.error_estimate),
                str(result.evaluations),
                "true" if result.converged else "false",
                repr(row.elapsed_seconds),
            ]
        )


def write_json(rows: Sequence[BenchmarkRow], stream: IO[str]) -> None:
    """Write rows as a strict JSON array: floats keep shortest-roundtrip
    form, and a NaN or infinite one (a jump at tau) is written as null."""
    json.dump(
        [{"name": row.name, "tau": row.tau, **row.result.as_json_dict(),
          "abs_error": json_number(row.abs_error),
          "elapsed_seconds": row.elapsed_seconds}
         for row in rows],
        stream, indent=2, allow_nan=False,
    )
    stream.write("\n")

