"""Reference figures for the README: cpvquad against QUADPACK's QAWC.

    python3 perfbench/reference_figures.py

For the unseeded problems of the `library` round and ten seeded ones
drawn the same way, prints evaluations, time (median of five calls, not
drift-corrected), actual error and error estimate for cpvquad, and the same
for `scipy.integrate.quad(weight="cauchy")` when scipy imports.  scipy is a
yardstick here, not a dependency.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calls  # noqa: E402
import references as ref  # noqa: E402
import workloads  # noqa: E402

#: Seed of the ten seeded problems in the table.
SEED = 1


def _timed(fn, reps: int = 5):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times)


def _error(value: float, exact) -> float:
    with mp.workdps(ref.DPS):
        return float(abs(mp.mpf(value) - exact))


def main() -> int:
    try:
        from scipy.integrate import quad
    except ImportError:
        quad = None
    rng = random.Random(SEED)
    problems = (workloads.fixed_integrals()
                + workloads.seeded_integrals(rng, on_unit=5, per_width=1))
    print("| problem | fault | evals | ms | error | estimate |"
          + (" QAWC evals | QAWC ms | QAWC error | QAWC estimate |" if quad else ""))
    print("|---" * (10 if quad else 6) + "|")
    for p in problems:
        f = p.native()
        exact = p.reference()
        answer, seconds = _timed(lambda: calls.solve(f, p.tau, p.a, p.b, p.tol))
        row = (f"| {p.name} tau={p.tau:.7g} [{p.a:g}, {p.b:g}] "
               f"| {p.fault or '-'} | {answer.evaluations} | {seconds * 1e3:.3f} "
               f"| {_error(answer.value, exact):.1e} | {answer.estimate:.1e} |")
        if quad:
            (value, abserr, info), q_seconds = _timed(lambda: quad(
                f, p.a, p.b, weight="cauchy", wvar=p.tau, epsabs=p.tol,
                epsrel=0.0, limit=2000, full_output=1)[:3])
            row += (f" {info['neval']} | {q_seconds * 1e3:.3f} "
                    f"| {_error(value, exact):.1e} | {abserr:.1e} |")
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
