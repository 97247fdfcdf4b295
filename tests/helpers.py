"""Shared oracles and harnesses used by several test modules."""

from __future__ import annotations

import csv
import math
import operator
import re
import shlex
import sys
from pathlib import Path
from typing import IO, Callable, NamedTuple

import numpy as np
from hypothesis import strategies as st

from cpvquad.benchmarks import _CSV_COLUMNS
from cpvquad.error_model import DerivativeEstimates
from cpvquad.expressions import (
    _CONSTANTS,
    _FUNCTIONS,
    _OP_PREC,
    _PREC_ADD,
    _PREC_ATOM,
    _PREC_NEG,
    BinOp,
    Call,
    Const,
    Expr,
    Neg,
    Num,
    Var,
    _node_prec,
)
from cpvquad.quadrature import (
    QuadratureRule,
    adaptive_integrate,
    gauss_legendre_rule,
)

EPS_SINGLE = 2.0**-24

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(language: str) -> list[str]:
    """The bodies of the README's fenced blocks in `language`."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def readme_commands(subcommand: str) -> list[list[str]]:
    """argv of each ``cpvquad <subcommand>`` line of the README's ``sh``
    blocks, trailing comment dropped."""
    lines = [
        shlex.split(line, comments=True)
        for block in readme_blocks("sh")
        for line in block.splitlines()
    ]
    return [argv for argv in lines if argv[:2] == ["cpvquad", subcommand]]


def float32_quotient_errors():
    """Single-precision quotient errors vs double oracles on a log grid.

    Evaluates the symmetric quotient h and the difference quotient g for
    f = e^x, tau = 0.5 entirely in float32 and compares against float64
    evaluated at the same (float32-rounded) points, so the measured error
    is arithmetic rounding only.  Returns a list of
    (x, h_error, h_bound, g_error, g_bound) tuples over a 60-point
    logarithmic grid x = 2^-20 .. 2^-1, with bounds at d1 = e, eps = 2^-24.
    """
    from cpvquad.error_model import (
        difference_quotient_roundoff,
        symmetric_quotient_roundoff,
    )

    d1 = math.e
    tau32 = np.float32(0.5)
    tau64 = 0.5
    out = []
    for x in 2.0 ** np.linspace(-20.0, -1.0, 60):
        x32 = np.float32(x)
        x64 = float(x32)

        h32 = float((np.exp(tau32 + x32) - np.exp(tau32 - x32)) / x32)
        h64 = (math.exp(tau64 + x64) - math.exp(tau64 - x64)) / x64
        h_bound = symmetric_quotient_roundoff(x64, d1, EPS_SINGLE)

        point32 = tau32 + x32
        g32 = float((np.exp(point32) - np.exp(tau32)) / (point32 - tau32))
        point64 = float(point32)
        g64 = (math.exp(point64) - math.exp(tau64)) / (point64 - tau64)
        g_bound = difference_quotient_roundoff(x64, d1, EPS_SINGLE)

        out.append((x64, abs(h32 - h64), h_bound, abs(g32 - g64), g_bound))
    return out


def monomial_integral(k: int) -> float:
    """Exact integral of x^k over [-1, 1]."""
    return 0.0 if k % 2 else 2.0 / (k + 1)


def cpv_monomial(k: int, tau: float) -> float:
    """Closed-form principal value of x^k / (x - tau) over [-1, 1].

    Polynomial division gives x^k/(x-tau) = sum_j tau^j x^(k-1-j)
    + tau^k/(x-tau), so the value is the matching sum of monomial
    integrals plus tau^k log((1-tau)/(1+tau)).
    """
    total = sum(tau**j * monomial_integral(k - 1 - j) for j in range(k))
    return total + tau**k * math.log((1.0 - tau) / (1.0 + tau))


def roundoff_floor(budget):
    """The terms of a budget after its three quadrature estimates, which no
    amount of quadrature lowers, added left to right in field order."""
    total = 0.0
    for term in budget[3:]:
        total += term
    return total


def stencil_at(f, tau, step, f_tau=None):
    """The central differences of f at tau for a given `step`, which
    ``derivative_estimates`` would otherwise choose itself, in the same
    arithmetic: f is called at tau + step, then tau - step, and where
    step * step underflows f2 divides by step twice.  The jump is not
    decided here, so ``jump`` is False."""
    if f_tau is None:
        f_tau = f(tau)
    up = f(tau + step)
    down = f(tau - step)
    curve = up - 2.0 * f_tau + down
    square = step * step
    f2 = curve / step / step if square < sys.float_info.min else curve / square
    return DerivativeEstimates((up - down) / (2.0 * step), f2, step, False)


def make_difference_quotient(f, tau, f_tau=None):
    """Quotient (f(x) - f(tau)) / (x - tau) with f(tau) captured once.

    The reference the fused difference kernels must match: every quotient
    evaluation subtracts the same number, which the error analysis of the
    whole decomposition assumes.  Calling it at exactly tau divides zero by
    zero.
    """
    if f_tau is None:
        f_tau = f(tau)

    def quotient(x):
        return (f(x) - f_tau) / (x - tau)
    return quotient


def make_symmetric_quotient(f, tau):
    """Quotient (f(tau+x) - f(tau-x)) / x, finite as x tends to 0.

    The reference the fused symmetric kernels must match; for
    differentiable f it tends to 2 f'(tau).
    """
    def quotient(x):
        return (f(tau + x) - f(tau - x)) / x
    return quotient


def form_reference(form, f, tau=0.0, f_tau=0.0):
    """The engine's `form` of f as a closure: f itself ("plain"), or its
    difference or symmetric quotient about tau."""
    if form == "difference":
        return make_difference_quotient(f, tau, f_tau)
    if form == "symmetric":
        return make_symmetric_quotient(f, tau)
    return f


def apply_rule_reference(rule, f, a, b):
    """The per-node loop that the compiled rule kernels must reproduce.

    Visits the nodes in ascending order, stops at the first non-finite value
    and accumulates the Kronrod and Gauss sums from 0.0 in node order, the
    Gauss sum skipping zero weights.  A plain rule is a pair whose embedded
    weights are all zero, and only its value is returned.
    """
    from cpvquad.quadrature import EmbeddedRulePair, NonfiniteIntegrandError

    if isinstance(rule, EmbeddedRulePair):
        kronrod, gauss_weights = rule.kronrod, rule.gauss_weights
    else:
        kronrod, gauss_weights = rule, (0.0,) * len(rule.nodes)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    if not (a < mid + half * kronrod.nodes[0] and mid + half * kronrod.nodes[-1] < b):
        raise RuntimeError(
            f"node mapped onto an interval endpoint of [{a!r}, {b!r}]"
        )
    sum_k = 0.0
    sum_g = 0.0
    for x, wk, wg in zip(kronrod.nodes, kronrod.weights, gauss_weights):
        t = mid + half * x
        v = f(t)
        if not math.isfinite(v):
            raise NonfiniteIntegrandError(t)
        sum_k += wk * v
        if wg != 0.0:
            sum_g += wg * v
    value = sum_k * half
    if isinstance(rule, EmbeddedRulePair):
        return value, abs(value - sum_g * half)
    return value


def gauss_legendre_reference(m: int) -> tuple[tuple, tuple]:
    """The numpy Newton iteration that ``gauss_legendre_rule`` replaced.

    Iterates the positive roots of P_m as one array from the Chebyshev
    angle estimates, all nodes taking the same steps until the largest is
    below two ulps of 1.0, and mirrors them; the plain-float builder must
    give the same nodes and weights bit for bit.
    """
    def legendre(x):
        p_prev = np.ones_like(x)
        p = np.array(x, copy=True)
        for k in range(2, m + 1):
            p_prev, p = p, ((2.0 * k - 1.0) * x * p - (k - 1.0) * p_prev) / k
        return p, m * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))

    pos_nodes: list = []
    pos_weights: list = []
    if m // 2:
        i = np.arange(1, m // 2 + 1, dtype=float)
        x = np.cos(math.pi * (i - 0.25) / (m + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            step = p / dp
            x = x - step
            if np.max(np.abs(step)) <= 2.0 * np.finfo(float).eps:
                break
        _, dp = legendre(x)
        w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
        pos_nodes = [float(v) for v in x[::-1]]
        pos_weights = [float(v) for v in w[::-1]]
    nodes = [-v for v in reversed(pos_nodes)]
    weights = list(reversed(pos_weights))
    if m % 2:
        _, dp0 = legendre(np.zeros(1))
        nodes.append(0.0)
        weights.append(float(2.0 / (dp0[0] * dp0[0])))
    return tuple(nodes + pos_nodes), tuple(weights + pos_weights)


def composite_sums_reference(stack, m: int):
    """The 3-D broadcast that ``logbound._composite_sums`` replaced.

    Builds the (trials, n, m) array of terms with the m nodes broadcast
    innermost, then sums its (trials, n*m) reshape row by row.  The flat
    layout must give the same (a_values, x00) bit for bit.
    """
    rule = gauss_legendre_rule(m)
    nodes = np.asarray(rule.nodes)
    weights = np.asarray(rule.weights)
    lo, hi = stack[:, :-1], stack[:, 1:]
    terms = ((hi + lo) / (hi - lo))[:, :, None] + nodes
    np.divide(weights, terms, out=terms)
    a_values = terms.reshape(len(stack), -1).sum(axis=1)
    x00 = stack[:, 1] * 0.5 * (nodes[0] + 1.0)
    return a_values, x00


def _moment(j):
    """Exact integral of x^j over [-1, 1], as an mpf."""
    import mpmath as mp

    return mp.mpf(0) if j % 2 else mp.mpf(2) / (j + 1)


def _product_moment(p, j):
    """Integral of p(x) x^j over [-1, 1] for ascending coefficients p."""
    import mpmath as mp

    return mp.fsum(c * _moment(i + j) for i, c in enumerate(p))


def _legendre_and_stieltjes():
    """Ascending coefficients of P_10 and of the Stieltjes polynomial E_11,
    at the working precision.

    P_10 comes from the three-term recurrence.  E_11 is monic, odd, and
    orthogonal to x^k P_10(x) for k = 0..9 (only odd k constrain an odd
    E_11), which fixes its five lower coefficients through exact monomial
    moments of P_10.
    """
    import mpmath as mp

    p_prev, p = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
    for k in range(2, 11):
        nxt = [mp.mpf(0)] + [(2 * k - 1) * c / k for c in p]
        for i, c in enumerate(p_prev):
            nxt[i] -= (k - 1) * c / k
        p_prev, p = p, nxt
    odd = (1, 3, 5, 7, 9)
    lower = mp.lu_solve(
        mp.matrix([[_product_moment(p, j + k) for j in odd] for k in odd]),
        mp.matrix([-_product_moment(p, 11 + k) for k in odd]),
    )
    stieltjes = [mp.mpf(0)] * 12
    stieltjes[11] = mp.mpf(1)
    for j, c in zip(odd, lower):
        stieltjes[j] = c
    return p, stieltjes


def kronrod_g10k21_reference():
    """The 10/21 Gauss-Kronrod pair at 80 digits, from first principles.

    The Kronrod-only nodes are the roots of the Stieltjes polynomial E_11
    and the Gauss nodes those of P_10 (see ``_legendre_and_stieltjes``).
    Weights of either rule solve the moment equations: exactness for x^0 up
    to x^(nodes - 1).  Returns ``(nodes, kronrod_weights, gauss_weights)``
    as ascending mpf lists over the 21 nodes, the Gauss weight zero at a
    Kronrod-only node.
    """
    import mpmath as mp

    def moment_weights(xs):
        n = len(xs)
        vandermonde = mp.matrix([[x**k for x in xs] for k in range(n)])
        return list(mp.lu_solve(vandermonde, mp.matrix([_moment(k) for k in range(n)])))

    with mp.workdps(80):
        p, stieltjes = _legendre_and_stieltjes()

        def roots(coefficients):
            found = mp.polyroots(coefficients[::-1], maxsteps=200, extraprec=200)
            return sorted(mp.re(x) for x in found)

        gauss_nodes = roots(p)
        # E_11 is odd: its root 0 is exact, the other ten are those of E_11/x
        nodes = sorted(gauss_nodes + roots(stieltjes[1:]) + [mp.mpf(0)])
        kronrod_weights = moment_weights(nodes)
        gauss_of = dict(zip(gauss_nodes, moment_weights(gauss_nodes)))
        gauss_weights = [gauss_of.get(x, mp.mpf(0)) for x in nodes]
    return nodes, kronrod_weights, gauss_weights


def patterson_k43_reference():
    """Patterson's 43-point extension of the 10/21 pair at 160 digits, from
    first principles.

    The 22 new nodes are the roots of G_22: monic, even, and orthogonal to
    x^k P_10(x) E_11(x) for k = 0..21.  P_10 E_11 is odd, so only odd k
    constrain an even G_22, which fixes its eleven lower coefficients.  The
    21 old nodes are the roots of P_10 E_11.  Each even polynomial's
    positive roots are the square roots of its roots in y = x^2.  The
    weights solve the moment equations of the even monomials x^0..x^42 on
    the symmetric nodes.  Returns ``(nodes, weights)`` as ascending mpf
    lists over the 43 nodes.
    """
    import mpmath as mp

    def positive_roots(even):
        found = mp.polyroots(even[::-2], maxsteps=400, extraprec=400)
        return [mp.sqrt(mp.re(y)) for y in found]

    with mp.workdps(160):
        p, stieltjes = _legendre_and_stieltjes()
        product = [mp.mpf(0)] * 22
        for i, c in enumerate(p):
            for j, d in enumerate(stieltjes):
                product[i + j] += c * d
        odd = range(1, 22, 2)
        even = range(0, 21, 2)
        lower = mp.lu_solve(
            mp.matrix([[_product_moment(product, j + k) for j in even]
                       for k in odd]),
            mp.matrix([-_product_moment(product, 22 + k) for k in odd]),
        )
        extension = [mp.mpf(0)] * 23
        extension[22] = mp.mpf(1)
        for j, c in zip(even, lower):
            extension[j] = c
        positive = sorted(positive_roots(p) + positive_roots(stieltjes[1:])
                          + positive_roots(extension))
        # the centre weight counts once, every other weight for +x and -x
        system = mp.matrix(22, 22)
        for k in range(22):
            system[k, 0] = 1 if k == 0 else 0
            for i, x in enumerate(positive):
                system[k, i + 1] = 2 * x ** (2 * k)
        solved = mp.lu_solve(system, mp.matrix([_moment(2 * k) for k in range(22)]))
        centre, weights = solved[0], list(solved)[1:]
    nodes = [-x for x in reversed(positive)] + [mp.mpf(0)] + positive
    return nodes, weights[::-1] + [centre] + weights


def patterson_k43_rule() -> QuadratureRule:
    """Patterson's 43-point rule as QUADPACK's QNG table lists it: its 43
    nodes, ascending, with their weights in the rule."""
    from cpvquad.quadrature import _QNG_CENTER, _QNG_HALF, _mirrored

    nodes, weights, _, _ = _mirrored(_QNG_HALF, _QNG_CENTER)
    return QuadratureRule(nodes, weights)


class OnePieceResult(NamedTuple):
    """One integral's outcome: its value, estimate and evaluations, whether
    the estimate met the tolerance, and the engine's stop reason."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    stop_reason: str = "tolerance"


def one_piece(f, a, b, tol, max_intervals=10_000) -> OnePieceResult:
    """The engine's integral of f itself over [a, b], as one plain piece."""
    values, estimates, evaluations, reason = adaptive_integrate(
        f, (("plain", a, b),), tol, max_intervals, 0.0, 0.0
    )
    return OnePieceResult(values[0], estimates[0], evaluations[0],
                          reason == "tolerance", reason)


def compiled_kernels() -> tuple[int, int, int]:
    """How many kernels the engine has compiled so far: pair kernels,
    extension kernels and resolvers."""
    from cpvquad.quadrature import _extension_kernel, _pair_kernel, _resolver

    return tuple(cache.cache_info().currsize
                 for cache in (_pair_kernel, _extension_kernel, _resolver))


def clear_engine_caches() -> None:
    """Forget the engine's rules and every kernel compiled from them."""
    from cpvquad.quadrature import (
        _extension_kernel,
        _pair_kernel,
        _patterson_extension,
        _resolver,
    )

    for cache in (_patterson_extension, _pair_kernel, _extension_kernel,
                  _resolver):
        cache.cache_clear()


def pair_application_reference(f, a, b, form="plain", tau=0.0, f_tau=0.0):
    """The engine's application of the 10/21 pair to the `form` of f on
    [a, b], one node at a time.

    Returns ``(value, |value - gauss value|, values)`` like the engine's
    kernel: the sums run from 0.0 in ascending node order, and values are
    the form at the 21 nodes.  The form is evaluated at every node before a
    non-finite value is reported, in the form's terms.
    """
    from cpvquad.quadrature import (
        _midpoint,
        _patterson_extension,
        _raise_first_nonfinite,
    )

    rules = _patterson_extension()
    kronrod, gauss_weights = rules.pair.kronrod, rules.pair.gauss_weights
    mid = _midpoint(a, b)
    half = 0.5 * (b - a)
    g = form_reference(form, f, tau, f_tau)
    values = tuple(g(mid + half * x) for x in kronrod.nodes)
    sum_k = 0.0
    for w, v in zip(kronrod.weights, values):
        sum_k += w * v
    value = sum_k * half
    if not math.isfinite(value):
        _raise_first_nonfinite(form, f, tau, kronrod.nodes, values, a, b)
    sum_g = 0.0
    for w, v in zip(gauss_weights, values):
        if w != 0.0:
            sum_g += w * v
    return value, abs(value - sum_g * half), values


def resolve_reference(values, half, err):
    """The engine's decision whether an interval of half-width `half`, with
    pair values `values` and embedded difference `err`, looks resolved.

    resasc is QUADPACK's QK21 sum of w |v - mean| times the half-width; when
    `err` is at most ``_RESOLVED`` times it, returns the 43-point rule's sum
    over the 21 nodes, else None.  Every sum runs from 0.0 in node order.
    """
    from cpvquad.quadrature import _RESOLVED, _patterson_extension

    kronrod = _patterson_extension().pair.kronrod
    weight43 = dict(zip(*patterson_k43_rule()))
    sum_k = 0.0
    for w, v in zip(kronrod.weights, values):
        sum_k += w * v
    mean = 0.5 * sum_k
    spread = 0.0
    for w, v in zip(kronrod.weights, values):
        spread += w * abs(v - mean)
    if err > _RESOLVED * (spread * half):
        return None
    partial = 0.0
    for x, v in zip(kronrod.nodes, values):
        partial += weight43[x] * v
    return partial


def extension_reference(f, a, b, partial, old, form="plain", tau=0.0,
                        f_tau=0.0):
    """The engine's extension of [a, b] to the 43-point rule for the `form`
    of f, one node at a time: the sum goes on from `partial` over the 22
    new nodes in ascending order.  Returns ``(value, |value - old|)``."""
    from cpvquad.quadrature import (
        _midpoint,
        _patterson_extension,
        _raise_first_nonfinite,
    )

    rule = patterson_k43_rule()
    kronrod = _patterson_extension().pair.kronrod
    new_nodes = [x for x in rule.nodes if x not in kronrod.nodes]
    weight43 = dict(zip(*rule))
    mid = _midpoint(a, b)
    half = 0.5 * (b - a)
    g = form_reference(form, f, tau, f_tau)
    values = [g(mid + half * x) for x in new_nodes]
    total = partial
    for x, v in zip(new_nodes, values):
        total += weight43[x] * v
    value = total * half
    if not math.isfinite(value):
        _raise_first_nonfinite(form, f, tau, new_nodes, values, a, b)
    return value, abs(value - old)


def adaptive_integrate_reference(f, a, b, tol, max_intervals=10_000,
                                 resumes=None):
    """The one-piece adaptive loop, one node at a time.

    Applies the engine's Kronrod pair to [a, b] and refines the interval
    with the largest estimate until the running sum of estimates meets tol,
    the partition reaches max_intervals or no interval can be refined,
    resuming from the ordered sum when the running sum drifted below it.
    An interval that looks resolved, its embedded difference at most
    ``_RESOLVED`` times QUADPACK's resasc, and is wide enough is extended
    the first time it is picked: the 22 new nodes complete Patterson's
    43-point rule, whose value replaces the pair's, with the difference of
    the two as its estimate.  Any other interval is bisected.  An [a, b] too
    narrow for the rule gets the one-point midpoint charge.  The one-piece
    call of the engine must give the same result bit for bit, with f called
    at the same abscissae in the same order.  Each resume appends the
    running and the ordered sum to the list `resumes`, when one is given.
    """
    import heapq

    from cpvquad.quadrature import (
        _MIN_EXTENSION_ULPS,
        _MIN_WIDTH_ULPS,
        NonfiniteIntegrandError,
        _midpoint,
        _patterson_extension,
        _wider_than,
    )

    if a == b:
        return OnePieceResult(0.0, 0.0, 0, True)
    kronrod = _patterson_extension().pair.kronrod
    extension = len(patterson_k43_rule().nodes) - len(kronrod.nodes)
    mid = _midpoint(a, b)
    half = 0.5 * (b - a)
    if not (a < mid + half * kronrod.nodes[0]
            and mid + half * kronrod.nodes[-1] < b):
        if not a < mid < b:
            value, estimate, evaluations = 0.0, math.inf, 0
        else:
            v = f(mid)
            if not math.isfinite(v):
                raise NonfiniteIntegrandError(mid)
            value = (b - a) * v
            estimate = abs(value)
            evaluations = 1
        converged = estimate <= tol
        return OnePieceResult(
            value, estimate, evaluations, converged,
            "tolerance" if converged else "width_floor",
        )

    value, err, values = pair_application_reference(f, a, b)
    evaluations = len(kronrod.nodes)
    heap = [(-err, 0, a, b, value, values)]
    settled = []
    seq = 1
    count = 1
    err_sum = err
    while True:
        while err_sum > tol and count < max_intervals and heap:
            neg_est, _, ia, ib, ival, values = heapq.heappop(heap)
            est = -neg_est
            partial = None
            if values is not None and _wider_than(ia, ib, _MIN_EXTENSION_ULPS):
                partial = resolve_reference(values, 0.5 * (ib - ia), est)
            if partial is not None:
                value, err = extension_reference(f, ia, ib, partial, ival)
                evaluations += extension
                heapq.heappush(heap, (-err, seq, ia, ib, value, None))
                seq += 1
                err_sum += err - est
                continue
            if not _wider_than(ia, ib, _MIN_WIDTH_ULPS):
                settled.append((ia, ival, est))
                continue
            mid = _midpoint(ia, ib)
            lv, le, lvalues = pair_application_reference(f, ia, mid)
            rv, re, rvalues = pair_application_reference(f, mid, ib)
            evaluations += 2 * len(kronrod.nodes)
            heapq.heappush(heap, (-le, seq, ia, mid, lv, lvalues))
            heapq.heappush(heap, (-re, seq + 1, mid, ib, rv, rvalues))
            seq += 2
            count += 1
            err_sum += le + re - est
        pieces = [(ia, v, -neg) for neg, _, ia, _, v, _ in heap]
        pieces.extend(settled)
        pieces.sort(key=lambda p: p[0])
        total = 0.0
        estimate = 0.0
        for _, v, e in pieces:
            total += v
            estimate += e
        if not err_sum <= tol < estimate or count >= max_intervals or not heap:
            break
        if resumes is not None:
            resumes.append((err_sum, estimate))
        err_sum = estimate
    if estimate <= tol:
        reason = "tolerance"
    elif heap:
        reason = "interval_cap"
    else:
        reason = "width_floor"
    return OnePieceResult(total, estimate, evaluations, reason == "tolerance",
                          reason)


# Tree-walking references for the expression layer: the function that
# `compile_expression` returns must match `evaluate` bit for bit, NaN and
# signed zero included, and `to_source` prints a tree that reparses to an
# equal one, which the property tests use to feed generated trees to the
# compiler.

_ARITHMETIC: dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _eval(expr: Expr, x: float) -> float:
    """Value of expr at x; runs of unary minus and left-associative chains
    are walked in a loop, not by recursion, so a long sum costs no stack."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return x
    if isinstance(expr, Const):
        return _CONSTANTS[expr.name]
    if isinstance(expr, Call):
        return _FUNCTIONS[expr.name](_eval(expr.arg, x))
    if isinstance(expr, Neg):
        signs = 0
        while isinstance(expr, Neg):
            signs += 1
            expr = expr.operand
        value = _eval(expr, x)
        return -value if signs % 2 else value
    if expr.op == "^":
        # math.pow keeps '^' real-valued; (-8)^(1/3) is a domain error, not
        # a complex number
        return math.pow(_eval(expr.left, x), _eval(expr.right, x))
    spine = []
    while isinstance(expr, BinOp) and expr.op != "^":
        spine.append(expr)
        expr = expr.left
    value = _eval(expr, x)
    for node in reversed(spine):
        value = _ARITHMETIC[node.op](value, _eval(node.right, x))
    return value


def evaluate(expr: Expr, x: float) -> float:
    """Evaluate at x with NaN for any domain violation along the way."""
    try:
        return _eval(expr, x)
    except (ValueError, ZeroDivisionError, OverflowError):
        return math.nan


def _render(expr: Expr, min_prec: int) -> str:
    """Source text of expr, parenthesized below `min_prec`; chains and runs
    of unary minus are walked in a loop, as in `expressions._python`."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return "x"
    if isinstance(expr, Const):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.name}({_render(expr.arg, _PREC_ADD)})"
    prec = _node_prec(expr)
    if isinstance(expr, Neg):
        signs = 0
        while isinstance(expr, Neg):
            signs += 1
            expr = expr.operand
        text = "-" * signs + _render(expr, _PREC_NEG)
    elif expr.op == "^":
        # right-associative: parenthesize any left operand below atom,
        # let the right operand be a factor (unary minus included)
        text = f"{_render(expr.left, _PREC_ATOM)}^{_render(expr.right, _PREC_NEG)}"
    else:
        # left-associative: the left spine needs no parentheses, a right
        # operand of the same class does
        tail = []
        while isinstance(expr, BinOp) and _OP_PREC[expr.op] == prec:
            tail.append(f"{expr.op}{_render(expr.right, prec + 1)}")
            expr = expr.left
        text = _render(expr, prec) + "".join(reversed(tail))
    if prec < min_prec:
        return f"({text})"
    return text


def to_source(expr: Expr) -> str:
    """Render with the fewest parentheses; reparsing gives an equal tree."""
    return _render(expr, _PREC_ADD)


def expr_trees(
    numbers: st.SearchStrategy[float], max_leaves: int
) -> st.SearchStrategy[Expr]:
    """Expression trees of the grammar, with literals drawn from `numbers`
    (nonnegative, as the parser builds them) and at most `max_leaves`
    leaves."""
    leaves = st.one_of(
        numbers.map(Num),
        st.just(Var()),
        st.sampled_from(["pi", "e"]).map(Const),
    )

    def extend(children):
        ops = st.sampled_from(["+", "-", "*", "/", "^"])
        funcs = st.sampled_from(
            ["sin", "cos", "tan", "exp", "log", "sqrt", "abs"]
        )
        return st.one_of(
            children.map(Neg),
            st.builds(Call, funcs, children),
            st.builds(BinOp, ops, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def read_csv(stream: IO[str]) -> list[dict]:
    """Reparse a CSV that `benchmarks.write_csv` emitted into typed dicts."""
    reader = csv.reader(stream)
    header = next(reader)
    if tuple(header) != _CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {header!r}")
    out = []
    for rec in reader:
        out.append(
            {
                "name": rec[0],
                "tau": float(rec[1]),
                "value": float(rec[2]),
                "abs_error": float(rec[3]),
                "estimate": float(rec[4]),
                "evaluations": int(rec[5]),
                "converged": {"true": True, "false": False}[rec[6]],
                "elapsed_seconds": float(rec[7]),
            }
        )
    return out
