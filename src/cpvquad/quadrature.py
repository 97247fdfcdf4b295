"""Gauss-Legendre rules, the embedded 7/15 Gauss-Kronrod pair, and a
deterministic adaptive integrator.

Rules are represented by their nodes and weights on the reference interval
(-1, 1).  All nodes are strictly interior, so an integrand is never evaluated
at an interval endpoint; the rest of the package relies on this to integrate
quotients that are finite on the open interval but undefined at an endpoint.

Gauss-Legendre rules of arbitrary point count are built by Newton iteration
on the three-term Legendre recurrence, starting from Chebyshev-angle
estimates of the roots.  No linear-algebra machinery is involved.  The 15/7
Kronrod pair is a transcribed table; it is checked against its polynomial
exactness degrees the first time it is requested, so a corrupted transcription
cannot go unnoticed.

The adaptive integrator bisects whichever interval currently reports the
largest embedded error difference, keeps every floating-point operation in a
fixed order, and therefore returns bit-identical results for identical inputs.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Union

import numpy as np

__all__ = [
    "Integrand",
    "NonfiniteIntegrandError",
    "QuadratureRule",
    "EmbeddedRulePair",
    "IntervalEstimate",
    "AdaptiveResult",
    "gauss_legendre_rule",
    "kronrod_pair_g7k15",
    "apply_rule",
    "adaptive_integrate",
]

Integrand = Callable[[float], float]

#: Spacing of doubles at 1.0; Newton iterations stop once nodes move by less
#: than two of these.
_NODE_TOL = 2.0 * sys.float_info.epsilon

#: Largest supported Gauss-Legendre point count.  The Chebyshev-angle initial
#: guesses are comfortably inside Newton's basin of attraction up to here.
MAX_GAUSS_POINTS = 100

#: An interval is split only while it stays wider than this many ulps of its
#: endpoints; below that, mapped nodes could round onto an endpoint.
_MIN_WIDTH_ULPS = 1024.0


class NonfiniteIntegrandError(ValueError):
    """Raised when an integrand returns NaN or an infinity.

    The offending abscissa is kept in ``x`` so callers can report where the
    integrand broke down.
    """

    def __init__(self, x: float):
        super().__init__(f"integrand returned a non-finite value at x = {x!r}")
        self.x = x


@dataclass(frozen=True)
class QuadratureRule:
    """An interpolatory rule on (-1, 1): strictly interior nodes, ascending."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    order: int

    def __post_init__(self):
        if self.order != len(self.nodes) or self.order != len(self.weights):
            raise ValueError("rule arrays disagree with the stated point count")
        for i, x in enumerate(self.nodes):
            if not -1.0 < x < 1.0:
                raise ValueError(f"node {x!r} is not interior to (-1, 1)")
            if i and x <= self.nodes[i - 1]:
                raise ValueError("nodes must be strictly increasing")
            if self.nodes[self.order - 1 - i] != -x:
                raise ValueError("nodes must be symmetric about zero")
            if self.weights[self.order - 1 - i] != self.weights[i]:
                raise ValueError("weights must mirror the node symmetry")
        if any(w <= 0.0 for w in self.weights):
            raise ValueError("weights must be positive")
        if abs(math.fsum(self.weights) - 2.0) > 1e-14:
            raise ValueError("weights must sum to the interval length 2")


@dataclass(frozen=True)
class EmbeddedRulePair:
    """A Kronrod rule plus the weights of its embedded Gauss rule.

    ``gauss_weights`` is aligned index-by-index with ``kronrod.nodes``; the
    entries at Kronrod-only nodes are zero.
    """

    kronrod: QuadratureRule
    gauss_weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.gauss_weights) != self.kronrod.order:
            raise ValueError("embedded weights are not aligned with the nodes")


class IntervalEstimate(NamedTuple):
    a: float
    b: float
    value: float
    estimate: float


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of an adaptive integration.

    ``error_estimate`` is the sum of the per-interval embedded differences
    over the final partition; ``converged`` records whether that sum met the
    requested tolerance before the interval cap (or the width floor) stopped
    refinement.  ``stop_reason`` says which of the three ended refinement:
    "tolerance" exactly when ``converged``, otherwise "interval_cap" or
    "width_floor" (no interval left wide enough to bisect).  The value and
    estimate are returned either way so the caller can decide what a miss
    means.
    """

    value: float
    error_estimate: float
    evaluations: int
    intervals: tuple[IntervalEstimate, ...]
    converged: bool
    stop_reason: str = "tolerance"


def _legendre(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Legendre polynomial P_m and its derivative at the points x."""
    p_prev = np.ones_like(x)
    p = np.array(x, copy=True)
    for k in range(2, m + 1):
        p_prev, p = p, ((2.0 * k - 1.0) * x * p - (k - 1.0) * p_prev) / k
    # P_m'(x) = m (x P_m - P_{m-1}) / (x^2 - 1); the factored denominator
    # keeps full precision for nodes close to +-1.
    dp = m * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))
    return p, dp


@lru_cache(maxsize=None)
def gauss_legendre_rule(m: int) -> QuadratureRule:
    """Build the m-point Gauss-Legendre rule on (-1, 1).

    Nodes are the roots of P_m, found by Newton iteration from the Chebyshev
    angle estimates cos(pi (i - 1/4) / (m + 1/2)); weights follow from the
    derivative formula w = 2 / ((1 - x^2) P_m'(x)^2).  Only the positive half
    is iterated and the rest is mirrored, so the symmetry of the returned
    rule is exact, including a node at exactly 0.0 for odd m.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError("point count must be an integer")
    if not 1 <= m <= MAX_GAUSS_POINTS:
        raise ValueError(
            f"point count must be between 1 and {MAX_GAUSS_POINTS}, got {m}"
        )
    half = m // 2
    pos_nodes: list[float] = []
    pos_weights: list[float] = []
    if half:
        i = np.arange(1, half + 1, dtype=float)
        x = np.cos(math.pi * (i - 0.25) / (m + 0.5))
        for _ in range(100):
            p, dp = _legendre(m, x)
            step = p / dp
            x = x - step
            if np.max(np.abs(step)) <= _NODE_TOL:
                break
        _, dp = _legendre(m, x)
        w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
        # x is ordered by descending magnitude; flip to ascending positives.
        pos_nodes = [float(v) for v in x[::-1]]
        pos_weights = [float(v) for v in w[::-1]]
    nodes = [-v for v in reversed(pos_nodes)]
    weights = list(reversed(pos_weights))
    if m % 2:
        _, dp0 = _legendre(m, np.zeros(1))
        nodes.append(0.0)
        weights.append(float(2.0 / (dp0[0] * dp0[0])))
    nodes.extend(pos_nodes)
    weights.extend(pos_weights)
    return QuadratureRule(tuple(nodes), tuple(weights), m)


# Positive half of the 15-point Kronrod rule with the embedded 7-point Gauss
# weights (zero marks a Kronrod-only node).  Transcription is verified by the
# exactness checks in kronrod_pair_g7k15, not trusted as written.
_G7K15_HALF = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144838258730, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_G7K15_CENTER = (0.209482141084727828012999174891714,
                 0.417959183673469387755102040816327)


def _monomial_exactness_check(nodes, weights, degree, label):
    """Fail loudly if the rule misses any monomial it should integrate."""
    xs = np.asarray(nodes)
    ws = np.asarray(weights)
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = float(np.sum(ws * xs**k))
        if abs(got - exact) > 1e-13 * max(1.0, abs(exact)):
            raise RuntimeError(
                f"{label} fails exactness at degree {k}: {got!r} vs {exact!r}"
            )


@lru_cache(maxsize=None)
def kronrod_pair_g7k15() -> EmbeddedRulePair:
    """The 15-point Kronrod rule with its embedded 7-point Gauss rule.

    Built from the transcribed table above and validated on first use: the
    Kronrod weights must integrate monomials exactly through degree 22, the
    embedded Gauss weights through degree 13, and the nonzero Gauss positions
    must coincide with the independently constructed 7-point rule.
    """
    nodes: list[float] = []
    kronrod_w: list[float] = []
    gauss_w: list[float] = []
    for x, wk, wg in _G7K15_HALF:
        nodes.append(-x)
        kronrod_w.append(wk)
        gauss_w.append(wg)
    nodes.append(0.0)
    kronrod_w.append(_G7K15_CENTER[0])
    gauss_w.append(_G7K15_CENTER[1])
    for x, wk, wg in reversed(_G7K15_HALF):
        nodes.append(x)
        kronrod_w.append(wk)
        gauss_w.append(wg)
    pair = EmbeddedRulePair(
        QuadratureRule(tuple(nodes), tuple(kronrod_w), 15), tuple(gauss_w)
    )
    _monomial_exactness_check(nodes, kronrod_w, 22, "15-point Kronrod rule")
    embedded = [(x, w) for x, w in zip(nodes, gauss_w) if w != 0.0]
    reference = gauss_legendre_rule(7)
    _monomial_exactness_check(
        [x for x, _ in embedded], [w for _, w in embedded], 13,
        "embedded 7-point Gauss rule",
    )
    for (x, w), rx, rw in zip(embedded, reference.nodes, reference.weights):
        if abs(x - rx) > 5e-15 or abs(w - rw) > 5e-15:
            raise RuntimeError(
                "embedded Gauss nodes disagree with the constructed 7-point rule"
            )
    return pair


def _nodes_fit(rule: QuadratureRule, a: float, b: float) -> bool:
    """Whether every node of `rule` mapped to [a, b] lands strictly inside.

    The map mid + half * x rounds monotonically in x, so the two outermost
    nodes decide.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return a < mid + half * rule.nodes[0] and mid + half * rule.nodes[-1] < b


def _apply_pair(pair: EmbeddedRulePair, f: Integrand, a: float, b: float):
    """Evaluate both rules of the pair on [a, b] sharing one set of f values.

    Returns (kronrod value, |kronrod - gauss|).  Nodes are visited in
    ascending order and the two weighted sums are accumulated in that fixed
    order, which pins down the result bit-for-bit.
    """
    rule = pair.kronrod
    if not _nodes_fit(rule, a, b):
        raise RuntimeError(
            f"node mapped onto an interval endpoint of [{a!r}, {b!r}]"
        )
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    sum_k = 0.0
    sum_g = 0.0
    for x, wk, wg in zip(rule.nodes, rule.weights, pair.gauss_weights):
        t = mid + half * x
        v = f(t)
        if not math.isfinite(v):
            raise NonfiniteIntegrandError(t)
        sum_k += wk * v
        if wg != 0.0:
            sum_g += wg * v
    value = sum_k * half
    return value, abs(value - sum_g * half)


def apply_rule(
    rule: Union[QuadratureRule, EmbeddedRulePair], f: Integrand, a: float, b: float
):
    """Apply a rule to f on [a, b] after the affine map from (-1, 1).

    For a plain ``QuadratureRule`` the weighted sum is returned as a float.
    For an ``EmbeddedRulePair`` the return value is the tuple
    ``(kronrod value, |kronrod - gauss|)``; the second entry is the embedded
    error difference used by the adaptive driver.  Mapped nodes stay strictly
    inside (a, b); f is never called at an endpoint.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if not a < b:
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    if isinstance(rule, EmbeddedRulePair):
        return _apply_pair(rule, f, a, b)
    # a plain rule is a pair whose embedded weights are all zero
    bare = EmbeddedRulePair(rule, (0.0,) * rule.order)
    return _apply_pair(bare, f, a, b)[0]


def _splittable(a: float, b: float) -> bool:
    """Whether [a, b] can be bisected without nodes rounding onto endpoints."""
    mid = 0.5 * (a + b)
    if not a < mid < b:
        return False
    return (b - a) > _MIN_WIDTH_ULPS * max(math.ulp(a), math.ulp(b))


def adaptive_integrate(
    f: Integrand,
    a: float,
    b: float,
    tol: float,
    max_intervals: int = 10_000,
) -> AdaptiveResult:
    """Integrate f over [a, b] to an absolute tolerance.

    The 7/15 pair is applied to [a, b] and then the interval with the largest
    embedded difference is bisected at its midpoint, repeatedly, until the sum
    of differences drops to ``tol``, the partition reaches ``max_intervals``,
    or no interval is wide enough to split.  Ties in the priority queue fall
    back on insertion order, and the final value and estimate are summed over
    the partition in ascending interval order, so identical inputs give
    bit-identical results.

    ``a == b`` short-circuits to an exact zero with no evaluations, and an
    [a, b] too narrow for the rule's nodes to land strictly inside it gets
    the midpoint rule with its own magnitude as the estimate.  An
    unmet tolerance is reported through ``converged``, never raised; a
    non-finite integrand value raises :class:`NonfiniteIntegrandError`.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a > b:
        raise ValueError(f"need a <= b, got [{a!r}, {b!r}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    if max_intervals < 1:
        raise ValueError("interval cap must be at least 1")
    if a == b:
        return AdaptiveResult(0.0, 0.0, 0, (), True)

    pair = kronrod_pair_g7k15()
    if not _nodes_fit(pair.kronrod, a, b):
        return _too_narrow(f, a, b, tol)
    value, err = _apply_pair(pair, f, a, b)
    evaluations = 15
    # Heap entries are (-estimate, sequence, a, b, value); the sequence number
    # breaks ties deterministically.  Intervals too narrow to split migrate to
    # `settled` and keep contributing their estimate.
    heap: list[tuple[float, int, float, float, float]] = [(-err, 0, a, b, value)]
    settled: list[tuple[float, float, float, float]] = []
    seq = 1
    count = 1
    err_sum = err

    while True:
        while err_sum > tol and count < max_intervals and heap:
            neg_est, _, ia, ib, _ival = heap[0]
            est = -neg_est
            if not _splittable(ia, ib):
                heapq.heappop(heap)
                settled.append((ia, ib, _ival, est))
                continue
            heapq.heappop(heap)
            mid = 0.5 * (ia + ib)
            lv, le = _apply_pair(pair, f, ia, mid)
            rv, re = _apply_pair(pair, f, mid, ib)
            evaluations += 30
            heapq.heappush(heap, (-le, seq, ia, mid, lv))
            heapq.heappush(heap, (-re, seq + 1, mid, ib, rv))
            seq += 2
            count += 1
            err_sum += le + re - est

        pieces = [(ia, ib, v, -neg) for neg, _, ia, ib, v in heap]
        pieces.extend(settled)
        pieces.sort(key=lambda p: p[0])
        total = 0.0
        estimate = 0.0
        for _, _, v, e in pieces:
            total += v
            estimate += e
        if not err_sum <= tol < estimate or count >= max_intervals or not heap:
            break
        # The running sum drifted down to tol while the ordered sum did not;
        # resume from the ordered sum, so that the stop reason and
        # `converged` are both read from the estimate that is returned.
        err_sum = estimate

    if estimate <= tol:
        reason = "tolerance"
    elif heap:
        reason = "interval_cap"
    else:
        reason = "width_floor"
    intervals = tuple(IntervalEstimate(*p) for p in pieces)
    return AdaptiveResult(
        total, estimate, evaluations, intervals, reason == "tolerance", reason
    )


def _too_narrow(f: Integrand, a: float, b: float, tol: float) -> AdaptiveResult:
    """[a, b] too narrow for the rule's nodes: the one-point midpoint rule.

    An interval a few ulps wide, such as the far piece left by a principal
    value singularity a few ulps off the midpoint, gets the value
    (b - a) f(mid) and that value's magnitude as its error estimate, one
    evaluation.  Without a double strictly between a and b no point can be
    sampled, and the estimate is infinite.
    """
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
        value,
        estimate,
        evaluations,
        (IntervalEstimate(a, b, value, estimate),),
        converged,
        "tolerance" if converged else "width_floor",
    )
