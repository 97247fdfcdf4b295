"""The benchmark's only calls into cpvquad's entry points.

Every operation of every workload reaches the program through one of the
three functions below, so a change to the program's public entry points
(for example one `cpv(problem)` in place of `cpv_standard` and
`cpv_general`) changes this file and nothing else in the benchmark.

Entry points are looked up on their modules at call time, never bound at
import, so the tracer in `spans.py` can wrap them in spans.
"""

from __future__ import annotations

import contextlib
import io
import json
from typing import Callable, NamedTuple

from cpvquad import cli, cpv, logbound

REFERENCE_INTERVAL = (-1.0, 1.0)


class Answer(NamedTuple):
    """What one principal value operation returned.

    ``converged`` is the program's own claim: the result's flag for library
    calls, exit status 0 for the command line.  ``status`` is the command
    line's exit status (0 for library calls).
    """

    value: float
    estimate: float
    evaluations: int
    converged: bool
    status: int


def solve(f: Callable[[float], float], tau: float, a: float, b: float,
          tol: float) -> Answer:
    """Principal value of f(x) / (x - tau) over [a, b] through the library."""
    if (a, b) == REFERENCE_INTERVAL:
        r = cpv.cpv_standard(cpv.CpvProblem(f=f, tau=tau, tol=tol))
    else:
        r = cpv.cpv_general(f, tau, a, b, tol=tol)
    return Answer(r.value, r.error_estimate, r.evaluations, r.converged, 0)


def solve_cli(expression: str, tau: float, a: float, b: float,
              tol: float) -> Answer:
    """The same integral through `cpvquad integrate ... --json`, in process.

    The JSON carries no convergence flag, so convergence is read from the
    exit status: 0 means converged with the estimate within tolerance.
    """
    argv = ["integrate", f"--f={expression}", f"--tau={tau!r}",
            f"--tol={tol!r}", "--json"]
    if (a, b) != REFERENCE_INTERVAL:
        argv += [f"--a={a!r}", f"--b={b!r}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status not in (0, 1) or not out.getvalue():
        return Answer(float("nan"), float("nan"), 0, False, status)
    obj = json.loads(out.getvalue())
    return Answer(obj["value"], obj["estimate"], obj["evaluations"],
                  status == 0, status)


def sweep_cell(m: int, n: int, trials: int, seed: int) -> logbound.SweepCell:
    """One (m, n) cell of the composite-Gauss observation sweep."""
    return logbound.sweep([m], [n], trials, seed).cells[0]
