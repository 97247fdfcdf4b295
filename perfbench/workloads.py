"""Workload inputs, their references, and the checks on every output.

A workload is a round: a list of operations made from the seed.  A run
repeats whole rounds, so each run attempts the same operations in the same
proportions whatever its length.

Seeded parameters are drawn by Latin hypercube sampling: each range is cut
into as many strata as there are draws, each stratum gets one jittered
value, and the strata of different parameters are paired by a seeded
shuffle.  The cost of a round then barely depends on the seed, which keeps
`evals_per_op` and `ops_per_s` steady from seed to seed.

Known faults.  Some operations fail on every run because of a fault in the
program; they are marked with the fault's label and counted as failed.
Their inputs are fixed, never seeded, so the failed share of a round is
the same for every seed:

    F1  cpv_general rounds the abscissa in x = mid + half*t without
        budgeting it (offset general intervals).
    F2  huge magnitude: the budget misses the error of 1e300*exp(x).
    F3  jump at tau: the principal value does not exist, yet the solver
        claims convergence.
    F4  the budget omits the rounding of the result itself, so problems
        whose estimate falls below a few ulps of the log term or of the
        pieces (x^k, exp(cx) with small c, cos(kx) at tau near 0)
        report an estimate below the actual error.

Seeded members are sin(kx) on [-1, 1] and on [-L, L] with L a power of
two.  On the latter the map to [-1, 1] is exact, so F1 cannot arise; the
other families fail F4 on a seed-dependent 1-3 % of random members and
are therefore carried by fixed members, some of which fail every time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import mpmath as mp
import numpy as np

import calls
import references as ref
from cpvquad.benchmarks import builtin_problems
# Bound at import, before the tracer can wrap the module attribute, so the
# witness check below is never counted as the program's work.
from cpvquad.logbound import random_partition

#: Requested tolerance of every library and command-line operation.
TOL = 1e-12

#: Random partitions per observation cell, as in the acceptance sweep.
TRIALS = 200

WORKLOADS = ("library", "cli", "stress", "observation")

_BATTERY = {case.name: case for case in builtin_problems()}


@dataclass(frozen=True)
class Integral:
    """One principal value problem, described apart from how it is solved.

    ``family`` is "sin", "cos", "exp", "pow", "shifted_sin" (sin(x - c)
    with tau = c), "scaled_exp" (param * exp(x)), "jump" (the step
    x >= tau) or the name of a battery case.  ``fault`` names the known
    fault expected to make it fail, or is empty.
    """

    family: str
    param: float
    tau: float
    a: float = -1.0
    b: float = 1.0
    tol: float = TOL
    fault: str = ""

    @property
    def name(self) -> str:
        if self.family in _BATTERY:
            return self.family
        return f"{self.family}({self.param!r})"

    def native(self) -> Callable[[float], float]:
        k, tau = self.param, self.tau
        if self.family in _BATTERY:
            return _BATTERY[self.family].integrand
        return {
            "sin": lambda x: math.sin(k * x),
            "cos": lambda x: math.cos(k * x),
            "exp": lambda x: math.exp(k * x),
            "pow": lambda x: math.pow(x, k),
            "shifted_sin": lambda x: math.sin(x - k),
            "scaled_exp": lambda x: k * math.exp(x),
            "jump": lambda x: 1.0 if x >= tau else 0.0,
        }[self.family]

    def expression(self) -> str:
        """The same integrand in the command line's expression language."""
        if self.family in _BATTERY:
            return _BATTERY[self.family].expression
        if self.family == "pow":
            return f"x^{self.param!r}"
        if self.family in ("sin", "cos", "exp"):
            return f"{self.family}({self.param!r}*x)"
        raise ValueError(f"no expression for family {self.family!r}")

    def reference(self) -> Optional[mp.mpf]:
        """The exact principal value, or None where none exists."""
        k, tau, a, b = self.param, self.tau, self.a, self.b
        if self.family in _BATTERY:
            case = _BATTERY[self.family]
            case.reference_value()  # re-checks the stored two-route pair
            with mp.workdps(ref.DPS):
                return mp.mpf(case.reference_text)
        if self.family == "jump":
            return None
        if self.family == "scaled_exp":
            with mp.workdps(ref.DPS):
                return mp.mpf(k) * ref.pv_exp(1.0, tau, a, b)
        if self.family == "shifted_sin":
            return ref.pv_shifted_sin(k, a, b)
        closed = {"sin": ref.pv_sin, "cos": ref.pv_cos, "exp": ref.pv_exp,
                  "pow": ref.pv_pow}[self.family]
        return closed(k, tau, a, b)

    def bound(self) -> float:
        """Acceptance bound on the actual error (battery cases only)."""
        case = _BATTERY.get(self.family)
        return case.error_bound if case is not None else math.inf


class Verdict(NamedTuple):
    """Outcome of checking one output: ``message`` is None when it passed."""

    message: Optional[str]
    estimate_over_error: Optional[float] = None


def check_answer(answer: calls.Answer, reference: Optional[mp.mpf],
                 bound: float = math.inf) -> Verdict:
    """Judge a principal value answer against its exact reference.

    Without a reference (no principal value exists) the only correct
    outcome is a refusal to claim convergence.  Otherwise the actual error
    must not exceed the reported estimate, nor the acceptance bound.
    """
    if answer.status not in (0, 1):
        return Verdict(f"command line exited with status {answer.status}")
    if reference is None:
        if answer.converged:
            return Verdict("claims convergence where no principal value exists")
        return Verdict(None)
    if not (math.isfinite(answer.value) and math.isfinite(answer.estimate)):
        return Verdict("non-finite value or estimate")
    with mp.workdps(ref.DPS):
        error = float(abs(mp.mpf(answer.value) - reference))
    ratio = answer.estimate / error if error > 0.0 else None
    if error > answer.estimate:
        return Verdict(
            f"error {error:.3e} exceeds estimate {answer.estimate:.3e}", ratio)
    if error > bound:
        return Verdict(f"error {error:.3e} exceeds bound {bound:.1e}", ratio)
    return Verdict(None, ratio)


def witness_ratio(m: int, n: int, seed: int, scheme: str) -> float:
    """Rebuild a sweep witness and recompute its ratio with numpy's rule."""
    s = np.asarray(random_partition(n, seed, scheme).breakpoints)
    nodes, weights = np.polynomial.legendre.leggauss(m)
    half = 0.5 * (s[1:] - s[:-1])
    mid = 0.5 * (s[1:] + s[:-1])
    x = mid[:, None] + half[:, None] * nodes[None, :]
    a_value = float(np.sum(half[:, None] * weights[None, :] / x))
    x00 = float(s[1] * 0.5 * (nodes[0] + 1.0))
    return a_value / math.log(1.0 / x00)


def check_cell(cell, m: int, n: int) -> Verdict:
    """Bounds ratio < 2 (< 1.3 for m >= 15) and a reproducible witness."""
    if (cell.m, cell.n, cell.trials) != (m, n, TRIALS):
        return Verdict(f"cell reports m={cell.m} n={cell.n} trials={cell.trials}")
    if not cell.max_ratio < 2.0:
        return Verdict(f"ratio {cell.max_ratio!r} reaches 2")
    if m >= 15 and not cell.max_ratio < 1.3:
        return Verdict(f"ratio {cell.max_ratio!r} reaches 1.3 with m={m}")
    rebuilt = witness_ratio(m, n, cell.witness_seed, cell.witness_scheme)
    if abs(rebuilt - cell.max_ratio) > 1e-10 * rebuilt:
        return Verdict(f"witness gives ratio {rebuilt!r}, cell {cell.max_ratio!r}")
    return Verdict(None)


@dataclass(frozen=True)
class Op:
    """One timed operation: ``call`` is timed, ``check`` judges its output."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    evaluations: Callable[[object], int]
    fault: str = ""


def judge(op: Op, out) -> Verdict:
    """Check an operation's output; an exception it raised is a failure."""
    if isinstance(out, Exception):
        return Verdict(f"raised {out!r}")
    return op.check(out)


def _evaluations(answer: calls.Answer) -> int:
    return answer.evaluations


def integral_op(integral: Integral, via_cli: bool,
                wrap: Callable = lambda f: f) -> Op:
    """An operation solving `integral` through the library or the CLI.

    `wrap` decorates the native integrand (the tracer's integrand span).
    """
    i = integral
    reference = i.reference()
    bound = i.bound()
    if via_cli:
        expression = i.expression()
        def call():
            return calls.solve_cli(expression, i.tau, i.a, i.b, i.tol)
        label = f"cli {expression} tau={i.tau!r} [{i.a!r}, {i.b!r}]"
    else:
        f = wrap(i.native())
        def call():
            return calls.solve(f, i.tau, i.a, i.b, i.tol)
        label = f"{i.name} tau={i.tau!r} [{i.a!r}, {i.b!r}]"
    return Op(
        label=f"{label} tol={i.tol!r}",
        call=call,
        check=lambda answer: check_answer(answer, reference, bound),
        evaluations=_evaluations,
        fault=i.fault,
    )


def cell_op(m: int, n: int, seed: int) -> Op:
    return Op(
        label=f"cell m={m} n={n} seed={seed}",
        call=lambda: calls.sweep_cell(m, n, TRIALS, seed),
        check=lambda cell: check_cell(cell, m, n),
        evaluations=lambda cell: cell.trials * cell.m * cell.n,
    )


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One jittered draw from each of `count` equal strata of [lo, hi], shuffled."""
    values = [lo + (hi - lo) * (j + rng.random()) / count for j in range(count)]
    rng.shuffle(values)
    return values


#: Fixed family members on [-1, 1]; the ones marked F4 fail every time.
_FIXED = (
    Integral("cos", 30.0, 0.37),
    Integral("cos", 7.0, -0.62),
    Integral("exp", 2.0, 0.4),
    Integral("exp", -3.0, -0.55),
    Integral("pow", 3, 0.6),
    Integral("pow", 9, -0.7),
    Integral("cos", 2.0, 0.001953125, fault="F4"),
    Integral("exp", -0.25, -0.3, fault="F4"),
    Integral("pow", 6, 0.05, fault="F4"),
)

#: Offset general intervals that fail F1 every time.
_OFFSET = (
    Integral("sin", 100.0, 8.2, 7.5, 8.5, fault="F1"),
    Integral("sin", 100.0, 2.2, 1.5, 2.5, fault="F1"),
)

#: Half-widths of the seeded general intervals [-L, L]; powers of two keep
#: the map to [-1, 1] exact.
_HALF_WIDTHS = (0.25, 0.5, 2.0, 4.0, 8.0)


def seeded_integrals(rng: random.Random, on_unit: int, per_width: int
                     ) -> list[Integral]:
    """sin(kx), k in [1, 200] after scaling to [-1, 1], tau in 95 % of it."""
    out = [Integral("sin", k, tau)
           for k, tau in zip(_strata(rng, on_unit, 1.0, 200.0),
                             _strata(rng, on_unit, -0.95, 0.95))]
    count = per_width * len(_HALF_WIDTHS)
    widths = [w for w in _HALF_WIDTHS for _ in range(per_width)]
    rng.shuffle(widths)
    for w, k, u in zip(widths, _strata(rng, count, 1.0, 200.0),
                       _strata(rng, count, -0.95, 0.95)):
        out.append(Integral("sin", k / w, u * w, -w, w))
    return out


def fixed_integrals() -> list[Integral]:
    """The unseeded part of the library and cli rounds."""
    battery = [Integral(name, 0.0, case.tau) for name, case in _BATTERY.items()]
    return battery + list(_FIXED) + list(_OFFSET)


def _stress_integrals() -> list[Integral]:
    out = [Integral("case8", 0.0, _BATTERY["case8"].tau, tol=tol)
           for tol in (1e-14, 1e-15)]
    for e in range(50, 301, 50):
        out.append(Integral("scaled_exp", 10.0**e, 0.5,
                            fault="F2" if e == 300 else ""))
    for e in range(3, 10):
        c = 10.0**e
        out.append(Integral("shifted_sin", c, c, c - 1.0, c + 1.0, fault="F1"))
    for t in (0.3, -0.5, 0.1):
        out.append(Integral("jump", 0.0, t, fault="F3"))
    return out


def build(workload: str, seed: int, wrap: Callable = lambda f: f) -> list[Op]:
    """The round of `workload` for `seed`; the same seed gives the same ops.

    `wrap` decorates native integrands (the tracer's integrand span).
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "observation":
        # every m in 2..30 twice, each time with a stratified n in 1..50 and
        # with 51 - n, so the rule-node count 200 * m * n of a round is the
        # same for every seed
        ms = [m for m in range(2, 31) for _ in range(2)]
        ns = [min(50, 1 + int(v)) for v in _strata(rng, len(ms), 0.0, 50.0)]
        cells = [(m, k) for m, n in zip(ms, ns) for k in (n, 51 - n)]
        rng.shuffle(cells)
        return [cell_op(m, n, rng.getrandbits(32)) for m, n in cells]
    if workload == "stress":
        # fixed inputs: their failures must not depend on the seed, which
        # only sets the order
        integrals = _stress_integrals()
        rng.shuffle(integrals)
        return [integral_op(i, False, wrap) for i in integrals]
    if workload == "library":
        seeded = seeded_integrals(rng, on_unit=640, per_width=32)
    elif workload == "cli":
        seeded = seeded_integrals(rng, on_unit=320, per_width=16)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    integrals = fixed_integrals() + seeded
    rng.shuffle(integrals)
    return [integral_op(i, workload == "cli", wrap) for i in integrals]
