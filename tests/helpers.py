"""Shared oracles and harnesses used by several test modules."""

from __future__ import annotations

import math

import numpy as np

EPS_SINGLE = 2.0**-24


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


def pv_sin_interval(k: float, tau: float, a: float, b: float):
    """Principal value of sin(k x) / (x - tau) over [a, b], as an mpf.

    With A = tau - a and B = b - tau, u = x - tau splits sin(k x) into
    cos(k tau) sin(k u) + sin(k tau) cos(k u), whose principal values are
    Si(k B) + Si(k A) and Ci(k B) - Ci(k A).  The doubles are converted
    exactly, so this is the problem the solver is given.
    """
    import mpmath as mp

    with mp.workdps(40):
        k, tau = mp.mpf(k), mp.mpf(tau)
        A, B = tau - mp.mpf(a), mp.mpf(b) - tau
        odd = mp.si(k * B) + mp.si(k * A)
        even = mp.ci(k * B) - mp.ci(k * A)
        return +(mp.cos(k * tau) * odd + mp.sin(k * tau) * even)


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
        kronrod, gauss_weights = rule, (0.0,) * rule.order
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


def kronrod_g10k21_reference():
    """The 10/21 Gauss-Kronrod pair at 80 digits, from first principles.

    The Kronrod-only nodes are the roots of the Stieltjes polynomial E_11:
    monic, odd, and orthogonal to x^k P_10(x) for k = 0..9 (only odd k
    constrain an odd E_11), which fixes its five lower coefficients through
    exact monomial moments of P_10.  The Gauss nodes are the roots of P_10.
    Weights of either rule solve the moment equations: exactness for x^0 up
    to x^(nodes - 1).  Returns ``(nodes, kronrod_weights, gauss_weights)``
    as ascending mpf lists over the 21 nodes, the Gauss weight zero at a
    Kronrod-only node.
    """
    import mpmath as mp

    def moment(j):
        return mp.mpf(0) if j % 2 else mp.mpf(2) / (j + 1)

    def moment_weights(xs):
        n = len(xs)
        vandermonde = mp.matrix([[x**k for x in xs] for k in range(n)])
        return list(mp.lu_solve(vandermonde, mp.matrix([moment(k) for k in range(n)])))

    with mp.workdps(80):
        # ascending coefficients of P_10 by the three-term recurrence
        p_prev, p = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
        for k in range(2, 11):
            nxt = [mp.mpf(0)] + [(2 * k - 1) * c / k for c in p]
            for i, c in enumerate(p_prev):
                nxt[i] -= (k - 1) * c / k
            p_prev, p = p, nxt

        def p_moment(j):
            return mp.fsum(c * moment(i + j) for i, c in enumerate(p))

        odd = (1, 3, 5, 7, 9)
        lower = mp.lu_solve(
            mp.matrix([[p_moment(j + k) for j in odd] for k in odd]),
            mp.matrix([-p_moment(11 + k) for k in odd]),
        )
        stieltjes = [mp.mpf(0)] * 12
        stieltjes[11] = mp.mpf(1)
        for j, c in zip(odd, lower):
            stieltjes[j] = c

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


def adaptive_integrate_reference(f, a, b, tol, max_intervals=10_000):
    """The one-piece adaptive loop that the shared priority queue replaced.

    Applies the engine's Kronrod pair to [a, b] and bisects the interval
    with the largest embedded difference until the running sum of
    differences meets tol, the partition reaches max_intervals or no
    interval can be split, resuming from the ordered sum when the running
    sum drifted below it; an [a, b] too narrow for the rule gets the
    one-point midpoint charge.  The one-piece call of the engine must give
    the same result bit for bit.
    """
    import heapq

    from cpvquad.quadrature import (
        AdaptiveResult,
        NonfiniteIntegrandError,
        _nodes_fit,
        _splittable,
        kronrod_pair_g10k21,
    )

    if a == b:
        return AdaptiveResult(0.0, 0.0, 0, True)
    pair = kronrod_pair_g10k21()
    order = pair.kronrod.order
    if not _nodes_fit(pair.kronrod, a, b):
        mid = 0.5 * (a + b)
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
        return AdaptiveResult(
            value, estimate, evaluations, converged,
            "tolerance" if converged else "width_floor",
        )
    kernel = pair._kernel
    value, err = kernel(f, a, b)
    evaluations = order
    heap = [(-err, 0, a, b, value)]
    settled = []
    seq = 1
    count = 1
    err_sum = err
    while True:
        while err_sum > tol and count < max_intervals and heap:
            neg_est, _, ia, ib, ival = heap[0]
            est = -neg_est
            if not _splittable(ia, ib):
                heapq.heappop(heap)
                settled.append((ia, ival, est))
                continue
            heapq.heappop(heap)
            mid = 0.5 * (ia + ib)
            lv, le = kernel(f, ia, mid)
            rv, re = kernel(f, mid, ib)
            evaluations += 2 * order
            heapq.heappush(heap, (-le, seq, ia, mid, lv))
            heapq.heappush(heap, (-re, seq + 1, mid, ib, rv))
            seq += 2
            count += 1
            err_sum += le + re - est
        pieces = [(ia, v, -neg) for neg, _, ia, _, v in heap]
        pieces.extend(settled)
        pieces.sort(key=lambda p: p[0])
        total = 0.0
        estimate = 0.0
        for _, v, e in pieces:
            total += v
            estimate += e
        if not err_sum <= tol < estimate or count >= max_intervals or not heap:
            break
        err_sum = estimate
    if estimate <= tol:
        reason = "tolerance"
    elif heap:
        reason = "interval_cap"
    else:
        reason = "width_floor"
    return AdaptiveResult(total, estimate, evaluations, reason == "tolerance", reason)
