"""Gauss-Legendre rules, the embedded 10/21 and 7/15 Gauss-Kronrod pairs,
Patterson's 43-point extension of the 10/21 pair, and a deterministic
adaptive integrator.

Rules are represented by their nodes and weights on the reference interval
(-1, 1).  All nodes are strictly interior, so an integrand is never evaluated
at an interval endpoint; the rest of the package relies on this to integrate
quotients that are finite on the open interval but undefined at an endpoint.

Gauss-Legendre rules of arbitrary point count are built by Newton iteration
on the three-term Legendre recurrence, starting from Chebyshev-angle
estimates of the roots.  Like QUADPACK's QK21, everything here is plain
scalar float arithmetic: no array or linear-algebra library is imported.
The 7/15 pair is a transcribed table.  The 10/21 pair and the 43-point
rule are read off one, QUADPACK's QNG table, which lists each node once with
its weight in each rule.  Each rule is checked against its polynomial
exactness degrees the first time it is requested, so a corrupted
transcription cannot go unnoticed.  Every rule is built symmetric, by
mirroring a positive half, and passes one shape check,
:func:`_checked_rule`, so the rule records themselves are plain tuples that
check nothing.  The engine
applies the 10/21 pair, QUADPACK's QK21, and extends an interval that looks
resolved to Patterson's 43-point rule, the next rule of QUADPACK's QNG,
whose 22 new nodes reuse the pair's 21 values.  The engine applies neither
the 7/15 pair nor the Gauss-Legendre rules; the latter check the embedded
Gauss nodes of each pair.

The engine applies its rules through kernels: straight-line Python
functions emitted from the nodes and weights and compiled the first time
the engine needs them, after the exactness checks have passed.  A kernel
applies a rule to f, to its difference quotient or to its symmetric
quotient about tau, with the quotient written into each node's line.  Each
kind of kernel is compiled once per form and kept in a cache of its own, as
the rules themselves are.  A kernel calls f in ascending node order and
adds the weighted values in that order, the same arithmetic as a loop over
the nodes, bit for bit, without the loop.

The adaptive integrator, :func:`adaptive_integrate`, is the engine's one
entry point, for one integral and for the pieces of a principal value
alike.  It keeps one priority queue over the intervals of all its pieces,
as QUADPACK's QAG does for one integral (there is no
extrapolation, as in QAGS), and refines the interval with the largest error
estimate until the summed estimate meets the tolerance.  It raises the
degree of an interval that looks resolved and bisects any other, as the
doubly adaptive schemes of Gonnet's review (ACM Comput. Surv. 44(4), 2012)
do.  Every floating-point operation runs in a fixed order, so identical
inputs give bit-identical results.
"""

from __future__ import annotations

import heapq
import math
import sys
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

__all__ = [
    "Integrand",
    "NonfiniteIntegrandError",
    "SumOverflowError",
    "QuotientOverflowError",
    "QuadratureRule",
    "EmbeddedRulePair",
    "AdaptiveResult",
    "gauss_legendre_rule",
    "kronrod_pair_g7k15",
    "kronrod_pair_g10k21",
    "adaptive_integrate",
]

Integrand = Callable[[float], float]

#: Spacing of doubles at 1.0; Newton iterations stop once nodes move by less
#: than two of these.
_NODE_TOL = 2.0 * sys.float_info.epsilon

#: Largest supported Gauss-Legendre point count.  The Chebyshev-angle initial
#: guesses are comfortably inside Newton's basin of attraction up to here.
MAX_GAUSS_POINTS = 100

class NonfiniteIntegrandError(ValueError):
    """Raised when an integrand returns NaN or an infinity.

    The offending abscissa is kept in ``x`` so callers can report where the
    integrand broke down.
    """

    def __init__(self, x: float):
        super().__init__(f"integrand returned a non-finite value at x = {x!r}")
        self.x = x


class SumOverflowError(NonfiniteIntegrandError):
    """Raised when a rule's weighted sum overflows although every value is
    finite.

    ``x`` is the node with the largest value in magnitude, and ``a`` and
    ``b`` are the ends of the interval whose sum overflowed.
    """

    def __init__(self, x: float, a: float, b: float):
        ValueError.__init__(
            self,
            f"the weighted sum over [{a!r}, {b!r}] overflowed although the "
            f"integrand is finite at every node (largest at x = {x!r})",
        )
        self.x = x
        self.a = a
        self.b = b


class QuotientOverflowError(NonfiniteIntegrandError):
    """Raised when a quotient overflows although the integrand is finite.

    ``x`` is the quotient's abscissa and ``quotient`` names the quotient,
    "difference" or "symmetric".  A steep integrand such as 1e308 * x
    overflows (f(tau+x) - f(tau-x)) / x near 2 f'(tau) while every f value
    stays finite; with 6e307 * x every quotient value is finite but their
    weighted sum over an ``interval`` [a, b] overflows, and ``x`` is the
    node of the largest quotient value.
    """

    def __init__(self, quotient: str, x: float,
                 interval: Optional[tuple[float, float]] = None):
        if interval is None:
            message = (
                f"{quotient} quotient overflowed at x = {x!r} although the "
                "integrand is finite at its abscissae"
            )
        else:
            message = (
                f"{quotient} quotient overflowed in its weighted sum over "
                f"[{interval[0]!r}, {interval[1]!r}] although every quotient "
                f"value there is finite (largest at x = {x!r})"
            )
        ValueError.__init__(self, message)
        self.x = x
        self.quotient = quotient
        self.interval = interval


#: Each form of the integrand at the abscissa t; f_tau is f(tau).
_FORMS = {
    "plain": "f({t})",
    "difference": "(f({t}) - f_tau) / ({t} - tau)",
    "symmetric": "(f(tau + {t}) - f(tau - {t})) / {t}",
}


class QuadratureRule(NamedTuple):
    """An interpolatory rule on (-1, 1): strictly interior nodes, ascending.

    Built only by this module's rule builders, through :func:`_checked_rule`.
    """

    nodes: tuple[float, ...]
    weights: tuple[float, ...]


class EmbeddedRulePair(NamedTuple):
    """A Kronrod rule plus the weights of its embedded Gauss rule.

    ``gauss_weights`` is aligned index-by-index with ``kronrod.nodes``; the
    entries at Kronrod-only nodes are zero.  Built only by
    :func:`_checked_pair`.
    """

    kronrod: QuadratureRule
    gauss_weights: tuple[float, ...]


class AdaptiveResult(NamedTuple):
    """Outcome of an adaptive integration of one or several pieces.

    ``values``, ``estimates`` and ``piece_evaluations`` hold one entry per
    piece, 0.0, 0.0 and 0 for an empty one.  A piece's estimate sums those
    of its intervals in the final partition: |K21 - G10| for an interval
    the 10/21 pair was last applied to, |K43 - K21| for one extended to the
    43-point rule, and the midpoint value's magnitude for an [a, b] too
    narrow for the pair.  ``stop_reason`` says what ended refinement:
    "tolerance" when the summed estimate met the tolerance, "interval_cap"
    when the partition reached the cap, else "width_floor" (no interval left
    wide enough to bisect).  The values and estimates are returned either
    way so the caller can decide what a miss means.
    """

    values: list[float]
    estimates: list[float]
    piece_evaluations: list[int]
    stop_reason: str

    @property
    def evaluations(self) -> int:
        """The evaluations of all pieces together."""
        return sum(self.piece_evaluations)

    @property
    def converged(self) -> bool:
        """Whether the summed estimate met the tolerance."""
        return self.stop_reason == "tolerance"


def _legendre(m: int, x: float) -> tuple[float, float]:
    """Legendre polynomial P_m and its derivative at x."""
    p_prev, p = 1.0, x
    for k in range(2, m + 1):
        p_prev, p = p, ((2.0 * k - 1.0) * x * p - (k - 1.0) * p_prev) / k
    # P_m'(x) = m (x P_m - P_{m-1}) / (x^2 - 1); the factored denominator
    # keeps full precision for nodes close to +-1.
    dp = m * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))
    return p, dp


def _weight(m: int, x: float) -> float:
    """Gauss-Legendre weight 2 / ((1 - x^2) P_m'(x)^2) at the node x."""
    _, dp = _legendre(m, x)
    return 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


def _checked_rule(nodes, weights) -> QuadratureRule:
    """The rule with these nodes and weights, refused with a ValueError
    unless the nodes are strictly interior to (-1, 1) and increasing, and
    the weights are positive and sum to 2.  Its callers build every rule
    by mirroring a positive half, so the nodes and weights are symmetric
    and equal in number by construction."""
    for i, x in enumerate(nodes):
        if not -1.0 < x < 1.0:
            raise ValueError(f"node {x!r} is not interior to (-1, 1)")
        if i and x <= nodes[i - 1]:
            raise ValueError("nodes must be strictly increasing")
    if any(w <= 0.0 for w in weights):
        raise ValueError("weights must be positive")
    if abs(math.fsum(weights) - 2.0) > 1e-14:
        raise ValueError("weights must sum to the interval length 2")
    return QuadratureRule(nodes, weights)


@lru_cache(maxsize=None)
def gauss_legendre_rule(m: int) -> QuadratureRule:
    """Build the m-point Gauss-Legendre rule on (-1, 1).

    Nodes are the roots of P_m, found by Newton iteration from the Chebyshev
    angle estimates cos(pi (i - 1/4) / (m + 1/2)); weights follow from the
    derivative formula w = 2 / ((1 - x^2) P_m'(x)^2).  All nodes take the
    same number of Newton steps, until the largest step is below
    ``_NODE_TOL``.  Only the positive half is iterated and the rest is
    mirrored, so the symmetry of the returned rule is exact, including a
    node at exactly 0.0 for odd m.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError("point count must be an integer")
    if not 1 <= m <= MAX_GAUSS_POINTS:
        raise ValueError(
            f"point count must be between 1 and {MAX_GAUSS_POINTS}, got {m}"
        )
    # descending positive roots
    xs = [math.cos(math.pi * (i - 0.25) / (m + 0.5)) for i in range(1, m // 2 + 1)]
    if xs:
        for _ in range(100):
            steps = [p / dp for p, dp in (_legendre(m, x) for x in xs)]
            xs = [x - step for x, step in zip(xs, steps)]
            if max(abs(step) for step in steps) <= _NODE_TOL:
                break
    pos_nodes = xs[::-1]
    pos_weights = [_weight(m, x) for x in pos_nodes]
    nodes = [-x for x in xs]
    weights = pos_weights[::-1]
    if m % 2:
        nodes.append(0.0)
        weights.append(_weight(m, 0.0))
    nodes.extend(pos_nodes)
    weights.extend(pos_weights)
    return _checked_rule(tuple(nodes), tuple(weights))


# Positive halves of the Kronrod rules, descending, with the embedded Gauss
# weights (zero marks a Kronrod-only node), and the centre node's two
# weights.  Transcription is verified by the exactness checks in
# _checked_pair, not trusted as written.
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

# QUADPACK's QNG table for the 10/21 pair and Patterson's 43-point extension
# of it: one row (x, w43, w21, w10) per positive node of the 43-point rule,
# descending, with the node's weight in each nested rule (zero marks a rule
# that lacks the node), and the centre node's three weights.
_QNG_HALF = (
    (0.999333360901932081394099323919911, 0.001844477640212414100389106552965,
     0.0, 0.0),
    (0.995657163025808080735527280689003, 0.005768556059769796184184327908655,
     0.011694638867371874278064396062192, 0.0),
    (0.987433402908088869795961478381209, 0.010798689585891651740465406741293,
     0.0, 0.0),
    (0.973906528517171720077964012084452, 0.016296734289666564924281974617663,
     0.032558162307964727478818972459390, 0.066671344308688137593568809893332),
    (0.954807934814266299257919200290473, 0.021895363867795428102523123075149,
     0.0, 0.0),
    (0.930157491355708226001207180059508, 0.027371890593248842081276069289151,
     0.054755896574351996031381300244580, 0.0),
    (0.900148695748328293625099494069092, 0.032597463975345689443882222526137,
     0.0, 0.0),
    (0.865063366688984510732096688423493, 0.037522876120869501461613795898115,
     0.075039674810919952767043140916190, 0.149451349150580593145776339657697),
    (0.825198314983114150847066732588520, 0.042163137935191811847627924327955,
     0.0, 0.0),
    (0.780817726586416897063717578345042, 0.046560826910428830743339154433824,
     0.093125454583697605535065465083366, 0.0),
    (0.732148388989304982612354848755461, 0.050741939600184577780189020092084,
     0.0, 0.0),
    (0.679409568299024406234327365114874, 0.054694902058255442147212685465005,
     0.109387158802297641899210590325805, 0.219086362515982043995534934228163),
    (0.622847970537725238641159120344323, 0.058379395542619248375475369330206,
     0.0, 0.0),
    (0.562757134668604683339000099272694, 0.061744995201442564496240336030883,
     0.123491976262065851077600525464215, 0.0),
    (0.499479574071056499952214885499755, 0.064746404951445885544689259517511,
     0.0, 0.0),
    (0.433395394129247190799265943165784, 0.067355414609478086075553166302174,
     0.134709217311473325928054001771707, 0.269266719309996355091226921569469),
    (0.364901661346580768043989548502644, 0.069566197912356484528633315038405,
     0.0, 0.0),
    (0.294392862701460198131126603103866, 0.071387267268693397768559114425516,
     0.142775938577060080797094273138717, 0.0),
    (0.222254919776601296498260928066212, 0.072824441471833208150939535192842,
     0.0, 0.0),
    (0.148874338981631210884826001129720, 0.073870199632393953432140695251367,
     0.147739104901338491374841515972068, 0.295524224714752870173892994651338),
    (0.074650617461383322043914435796506, 0.074507751014175118273571813842889,
     0.0, 0.0),
)
_QNG_CENTER = (0.074722147517403005594425168280423,
               0.149445554002916905664936468389821, 0.0)


def _monomial_exactness_check(nodes, weights, degree, label):
    """Fail loudly if the rule misses any monomial it should integrate."""
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = math.fsum(w * x**k for x, w in zip(nodes, weights))
        if abs(got - exact) > 1e-13 * max(1.0, abs(exact)):
            raise RuntimeError(
                f"{label} fails exactness at degree {k}: {got!r} vs {exact!r}"
            )


def _mirrored(half, center) -> list[tuple[float, ...]]:
    """The ascending columns (nodes, weights...) of a symmetric rule, from
    its positive half, descending, and the centre node's weights."""
    rows = [(-x, *w) for x, *w in half] + [(0.0, *center)] + list(half[::-1])
    return [tuple(column) for column in zip(*rows)]


def _checked_pair(half, center, n: int) -> EmbeddedRulePair:
    """The (2n+1)-point Kronrod rule with its embedded n-point Gauss rule.

    Built from a positive half and centre row of the tables above and
    validated: the Kronrod weights must integrate monomials exactly through
    degree 3n + 1, the embedded Gauss weights through degree 2n - 1, and the
    nonzero Gauss positions must coincide with the independently constructed
    n-point rule.
    """
    nodes, kronrod_w, gauss_w = _mirrored(half, center)
    kronrod = _checked_rule(nodes, kronrod_w)
    _monomial_exactness_check(
        nodes, kronrod_w, 3 * n + 1, f"{2 * n + 1}-point Kronrod rule"
    )
    embedded = [(x, w) for x, w in zip(nodes, gauss_w) if w != 0.0]
    reference = gauss_legendre_rule(n)
    _monomial_exactness_check(
        [x for x, _ in embedded], [w for _, w in embedded], 2 * n - 1,
        f"embedded {n}-point Gauss rule",
    )
    for (x, w), rx, rw in zip(embedded, reference.nodes, reference.weights):
        if abs(x - rx) > 5e-15 or abs(w - rw) > 5e-15:
            raise RuntimeError(
                f"embedded Gauss nodes disagree with the constructed {n}-point rule"
            )
    return EmbeddedRulePair(kronrod, gauss_w)


@lru_cache(maxsize=None)
def kronrod_pair_g7k15() -> EmbeddedRulePair:
    """The 15-point Kronrod rule with its embedded 7-point Gauss rule.

    Validated on first use: Kronrod weights exact through degree 22, Gauss
    weights through degree 13 (see :func:`_checked_pair`).
    """
    return _checked_pair(_G7K15_HALF, _G7K15_CENTER, 7)


@lru_cache(maxsize=None)
def kronrod_pair_g10k21() -> EmbeddedRulePair:
    """The 21-point Kronrod rule with its embedded 10-point Gauss rule.

    QUADPACK's QK21 pair, the adaptive engine's rule, validated on first
    use: Kronrod weights exact through degree 31, Gauss weights through
    degree 19 (see :func:`_checked_pair`).
    """
    half = [(x, w21, w10) for x, _, w21, w10 in _QNG_HALF if w21 != 0.0]
    return _checked_pair(half, _QNG_CENTER[1:], 10)


#: An interval looks resolved when its embedded difference is at most this
#: share of its resasc, QUADPACK's QK21 measure of the integrand's spread,
#: the rule applied to |f - mean|.  The engine then raises the degree to 43
#: points instead of bisecting it.
_RESOLVED = 1e-3


class _PattersonRules(NamedTuple):
    """The 10/21 pair, the 22 nodes that Patterson's 43-point rule adds to
    it, ascending, with their weights in that rule, and
    ``partial_weights``, its weights of the 21 Kronrod nodes in node order.
    """

    pair: EmbeddedRulePair
    new_nodes: tuple[float, ...]
    new_weights: tuple[float, ...]
    partial_weights: tuple[float, ...]


@lru_cache(maxsize=None)
def _patterson_extension() -> _PattersonRules:
    """The engine's rules: the 10/21 pair and its 43-point extension.

    Both come from QUADPACK's QNG table, which lists each node once, so the
    43-point rule nests the pair by construction.  The extension is
    validated on first use: its weights integrate monomials exactly through
    degree 64.
    """
    nodes, weights, w21, _ = _mirrored(_QNG_HALF, _QNG_CENTER)
    _checked_rule(nodes, weights)
    _monomial_exactness_check(nodes, weights, 64, "43-point Patterson rule")
    new = [(x, w) for x, w, k in zip(nodes, weights, w21) if k == 0.0]
    return _PattersonRules(
        kronrod_pair_g10k21(), tuple(x for x, _ in new),
        tuple(w for _, w in new),
        tuple(w for w, k in zip(weights, w21) if k != 0.0),
    )


#: Fewest ulps of its ends by which the outermost mapped node of the engine's
#: rule stays inside an interval the engine applies it to.
_ENDPOINT_MARGIN_ULPS = 2.0


def _width_floor(outermost: float, bisected: bool = True) -> float:
    """Ulps above which an interval keeps the nodes of a rule whose
    outermost node is `outermost` clear of its ends: the ends of its halves
    when `bisected`, else its own.

    The outermost node maps to (1 - outermost) half-widths from an end.  An
    interval has half its width as half-width, and each half of a bisected
    one a quarter, so the margin holds from 2 margin / (1 - outermost) ulps
    on, or twice that for the halves; the floor is that rounded up to a
    power of two.
    """
    share = 4.0 if bisected else 2.0
    return 2.0 ** math.ceil(
        math.log2(share * _ENDPOINT_MARGIN_ULPS / (1.0 - outermost))
    )


#: The pair's outermost node, on the first row of the QNG table with a
#: 21-point weight, and the numbers of nodes of the pair and of those the
#: 43-point rule adds, read off the table the rules come from.
_PAIR_OUTERMOST = _QNG_HALF[1][0]
_PAIR_ORDER = 1 + 2 * sum(row[2] != 0.0 for row in _QNG_HALF)
_EXTENSION_ORDER = 2 * sum(row[2] == 0.0 for row in _QNG_HALF)

#: An interval is split only while it stays wider than this many ulps of its
#: endpoints; below that, mapped nodes could round onto an endpoint.  The
#: floor is that of the pair's outermost node.
_MIN_WIDTH_ULPS = _width_floor(_PAIR_OUTERMOST)

#: An interval is extended to the 43-point rule only while it is wider than
#: this many ulps, the floor of that rule's outermost node on the interval
#: itself: 2**13.
_MIN_EXTENSION_ULPS = _width_floor(_QNG_HALF[0][0], bisected=False)


def _midpoint(a: float, b: float) -> float:
    """The midpoint of [a, b]: 0.5 * (a + b), or, where a + b overflows,
    0.5 * a + 0.5 * b, whose halves are exact at that magnitude."""
    mid = 0.5 * (a + b)
    if not math.isfinite(mid):
        return 0.5 * a + 0.5 * b
    return mid


def _node_on_endpoint(a: float, b: float):
    """The kernels' guard: a node rounded onto an endpoint of [a, b]."""
    raise RuntimeError(f"node mapped onto an interval endpoint of [{a!r}, {b!r}]")


def _raise_first_nonfinite(form: str, f: Integrand, tau: float, nodes,
                           values, a: float, b: float):
    """Raise for the lowest of `nodes` on [a, b] whose value of `form` is
    NaN or infinite.

    Reached only when a kernel's Kronrod value is not finite, so the
    kernels carry no check per value.  For a quotient, f is evaluated again
    where the quotient evaluated it (t, or tau + t and tau - t), and
    :class:`NonfiniteIntegrandError` names the abscissa where f itself is
    not finite; with f finite there, the quotient overflowed, a
    :class:`QuotientOverflowError`.  With every value finite the weighted
    sum overflowed instead, at the node of the largest value: a
    :class:`SumOverflowError` for f itself, a
    :class:`QuotientOverflowError` over [a, b] for a quotient.
    """
    mid = _midpoint(a, b)
    half = 0.5 * (b - a)
    for x, v in zip(nodes, values):
        if not math.isfinite(v):
            t = mid + half * x
            if form != "plain":
                for u in (t,) if form == "difference" else (tau + t, tau - t):
                    if not math.isfinite(f(u)):
                        raise NonfiniteIntegrandError(u)
                raise QuotientOverflowError(form, t)
            raise NonfiniteIntegrandError(t)
    x = mid + half * max(zip(values, nodes), key=lambda p: abs(p[0]))[1]
    if form == "plain":
        raise SumOverflowError(x, a, b)
    raise QuotientOverflowError(form, x, (a, b))


def _node_lines(nodes, form: str) -> list[str]:
    """A kernel's opening lines: map `nodes` to [a, b], guard the ends, and
    bind ``v0, v1, ...`` to the form's term at the mapped nodes, with f
    called in ascending node order."""
    n = len(nodes)
    term = _FORMS[form]
    ends = {0: "t0", n - 1: f"t{n - 1}"}
    # the midpoint as _midpoint computes it, inline
    lines = ["    mid = 0.5 * (a + b)", "    if not isfinite(mid):",
             "        mid = 0.5 * a + 0.5 * b", "    half = 0.5 * (b - a)"]
    for i, t in ends.items():
        lines.append(f"    {t} = mid + half * {nodes[i]!r}")
    lines.append(f"    if not (a < t0 and {ends[n - 1]} < b):")
    lines.append("        _node_on_endpoint(a, b)")
    for i, x in enumerate(nodes):
        t = ends.get(i)
        if t is None:
            t = f"mid + half * {x!r}"
            if form != "plain":
                # the quotients use t more than once
                lines.append(f"    t = {t}")
                t = "t"
        lines.append(f"    v{i} = {term.format(t=t)}")
    return lines


def _weighted(weights, value: str = "v{}", start: str = "0.0") -> str:
    """The sum of ``w * value`` from `start` in node order, skipping zero
    weights."""
    terms = "".join(f" + {w!r} * {value.format(i)}"
                    for i, w in enumerate(weights) if w != 0.0)
    return f"{start}{terms}"


def _exec_kernel(lines: list[str], nodes, label: str):
    """Compile the kernel source `lines`, whose non-finite values are
    reported against `nodes`."""
    namespace = {
        "isfinite": math.isfinite,
        "nodes": nodes,
        "_node_on_endpoint": _node_on_endpoint,
        "_raise_first_nonfinite": _raise_first_nonfinite,
    }
    exec(compile("\n".join(lines), f"<{label}>", "exec"), namespace)
    return namespace["kernel"]


def _values(n: int) -> str:
    """The names of a kernel's n node values: ``v0, v1, ...``."""
    return ", ".join(f"v{i}" for i in range(n))


def _finite_check(n: int, form: str) -> list[str]:
    """A kernel's test of ``value`` for a NaN or infinity, which reports
    the first non-finite of its n node values of `form` or an overflowing
    sum."""
    return ["    if not isfinite(value):",
            f"        _raise_first_nonfinite({form!r}, f, tau, nodes, "
            f"({_values(n)},), a, b)"]


def _compile_kernel(pair: EmbeddedRulePair, partial_weights, form: str):
    """Emit one straight-line function applying `pair` to a form of f on
    [a, b].

    Nodes and weights are written as ``repr`` literals, which round-trip
    exactly.  Each node's value is the form's term at the mapped node t,
    the quotient functions' arithmetic operation for operation, with f
    called in ascending node order.  Each weighted sum starts at 0.0 and
    adds ``w * v`` in that same order, so the result is the one a loop over
    the nodes gives, bit for bit.  The function returns ``(value,
    |value - gauss value|, partial)``, the Gauss sum skipping zero weights:
    partial is the sum of ``partial_weights`` times the values when the
    difference is at most ``_RESOLVED`` times resasc, computed as QUADPACK's
    QK21 does, and None otherwise; or, when the kernel is called with
    ``keep=True``, the tuple of node values that decides it later (see
    :func:`_compile_resolve`).
    One finiteness test on the Kronrod value stands for a test per value:
    every weight is positive, so a NaN or infinite value always spoils it.
    The same test catches a sum that overflowed from finite values.
    """
    rule = pair.kronrod
    n = len(rule.nodes)
    lines = ["def kernel(f, a, b, tau=0.0, f_tau=0.0, keep=False):"]
    lines += _node_lines(rule.nodes, form)
    lines.append(f"    sum_k = {_weighted(rule.weights)}")
    lines.append("    value = sum_k * half")
    lines += _finite_check(n, form)
    lines.append(f"    sum_g = {_weighted(pair.gauss_weights)}")
    lines.append("    err = abs(value - sum_g * half)")
    lines.append("    if keep:")
    lines.append(f"        return value, err, ({_values(n)})")
    lines += _resolved_lines(rule.weights, partial_weights, "value, err, {}")
    return _exec_kernel(lines, rule.nodes, f"{form} rule kernel, {n} points")


def _resolved_lines(weights, partial_weights, returned: str) -> list[str]:
    """The lines that return ``returned`` formatted with the sum of
    ``partial_weights`` times the values when ``err`` is at most
    ``_RESOLVED`` times resasc, from ``sum_k``, ``half`` and the values, and
    with None otherwise."""
    spread = _weighted(weights, "abs(v{} - mean)")
    return [
        "    mean = 0.5 * sum_k",
        f"    if err > {_RESOLVED!r} * (({spread}) * half):",
        f"        return {returned.format('None')}",
        f"    return {returned.format(_weighted(partial_weights))}",
    ]


def _compile_resolve(rule: QuadratureRule, partial_weights):
    """Emit ``resolve(values, half, err)``, which decides from the values a
    kernel kept what the kernel would have returned as partial, bit for
    bit: the same sums in the same order."""
    lines = ["def kernel(values, half, err):",
             f"    {_values(len(rule.nodes))} = values",
             f"    sum_k = {_weighted(rule.weights)}"]
    lines += _resolved_lines(rule.weights, partial_weights, "{}")
    return _exec_kernel(lines, rule.nodes, f"resolve, {len(rule.nodes)} points")


def _compile_extension(nodes, weights, form: str):
    """Emit the function ``(f, a, b, tau, f_tau, partial, old)`` that
    completes a nested rule on [a, b] from its new `nodes` and `weights`.

    It goes on from ``partial``, the weighted sum over the nodes already
    evaluated, adding ``w * v`` at the new nodes in ascending order, and
    returns ``(value, |value - old|)``, ``old`` being the value of the rule
    it nests.  A non-finite value is reported at the lowest non-finite new
    node, or as an overflowing sum.
    """
    lines = ["def kernel(f, a, b, tau, f_tau, partial, old):"]
    lines += _node_lines(nodes, form)
    lines.append(f"    value = ({_weighted(weights, start='partial')}) * half")
    lines += _finite_check(len(nodes), form)
    lines.append("    return value, abs(value - old)")
    return _exec_kernel(lines, nodes, f"{form} extension kernel, {len(nodes)} points")


@lru_cache(maxsize=None)
def _pair_kernel(form: str):
    """The engine's 10/21 pair kernel for `form`, compiled on first use.

    It returns ``(value, |value - gauss value|, partial)``: partial is the
    43-point rule's sum over the 21 Kronrod nodes when the interval looks
    resolved (see ``_RESOLVED``), else None.  Called with ``keep=True`` it
    returns the 21 values in place of partial, and :func:`_resolver` gives
    partial from them later, bit for bit, when the interval is picked.  A
    piece's first application keeps its values, so a call whose first
    applications meet the tolerance pays nothing for the decision; a
    bisection's children decide at once, as most are picked.
    """
    rules = _patterson_extension()
    return _compile_kernel(rules.pair, rules.partial_weights, form)


@lru_cache(maxsize=None)
def _extension_kernel(form: str):
    """The kernel completing the 43-point rule from a resolved interval's
    partial sum, ``(f, a, b, tau, f_tau, partial, old)``, compiled on first
    use: a call that extends no interval compiles none."""
    rules = _patterson_extension()
    return _compile_extension(rules.new_nodes, rules.new_weights, form)


@lru_cache(maxsize=None)
def _resolver():
    """``resolve(values, half, err)`` for the values a pair kernel kept,
    compiled on first use."""
    rules = _patterson_extension()
    return _compile_resolve(rules.pair.kronrod, rules.partial_weights)


def warm(forms) -> None:
    """Compile everything the engine may run on pieces of `forms`."""
    for form in forms:
        _pair_kernel(form)
        _extension_kernel(form)
    _resolver()


#: The partition holds up to this many intervals per non-empty piece, the
#: cap each piece had when integrated alone.
_INTERVALS_PER_PIECE = 10_000


def _wider_than(a: float, b: float, ulps: float) -> bool:
    """Whether [a, b] is wider than `ulps` ulps of its ends: with
    ``_MIN_WIDTH_ULPS``, whether it can be bisected, and with
    ``_MIN_EXTENSION_ULPS``, extended, without nodes rounding onto its
    ends."""
    return (b - a) > ulps * max(math.ulp(a), math.ulp(b))


def adaptive_integrate(
    f: Integrand,
    pieces: Sequence[tuple[str, float, float]],
    tol: float,
    tau: float,
    f_tau: float,
) -> AdaptiveResult:
    """Integrate a sum of pieces to one absolute tolerance on their sum.

    Each piece ``(form, a, b)`` integrates over [a, b] f itself ("plain"),
    (f(t) - f_tau) / (t - tau) ("difference") or
    (f(tau + t) - f(tau - t)) / t ("symmetric"); ``a == b`` is an empty
    piece, and ``tau`` and ``f_tau`` must be finite even where no piece
    reads them.  The pieces are walked once: the 10/21 pair is applied to
    every non-empty piece in piece order, and a piece with an unknown form
    or bad bounds is refused when the walk reaches it, after f was called
    on the pieces before it.  Then one priority queue over the intervals of
    all pieces refines the interval with the largest estimate until the
    summed estimate drops to ``tol``, the partition reaches
    ``_INTERVALS_PER_PIECE`` intervals per non-empty piece, or no interval
    is wide enough to split.
    Ties fall back on insertion order.  A call whose first applications
    meet ``tol`` builds no queue, no heap entry and no list of settled
    intervals: it returns their values and estimates as they stand, and
    only a call that refines builds them, from what the first applications
    kept.

    An interval's estimate is the embedded difference |K21 - G10|.  When it
    is at most ``_RESOLVED`` times QUADPACK's resasc, the interval looks
    resolved, and the first time it is picked it is extended instead of
    bisected, provided it is wider than ``_MIN_EXTENSION_ULPS`` ulps: f at
    the 22 new nodes completes Patterson's 43-point rule, whose value
    replaces the pair's, with |K43 - K21| as the new estimate.  An interval
    is extended at most once; picked again, it is bisected.  An extension
    adds no interval to the partition, so the cap bounds a piece's
    evaluations by 43 rather than 21 per application of the pair: about 86
    instead of 42 per interval of the partition in the worst case.

    Each piece's value and estimate are summed over its intervals in
    ascending order, and the summed estimate adds those in piece order.
    Refinement resumes from that ordered sum when a running sum met ``tol``
    and it did not.

    Returns an :class:`AdaptiveResult`, which unpacks as ``(values,
    estimates, piece_evaluations, stop_reason)``.  The one-integral call is
    ``adaptive_integrate(f, (("plain", a, b),), tol, 0.0, 0.0)``.

    A piece too narrow for the rule's nodes to land strictly inside it gets
    the one-point midpoint rule: (b - a) times the form at the midpoint,
    with that value's magnitude as its estimate (infinite, with no
    evaluation, when no double lies strictly inside).  No bisection lowers
    that charge, so one above ``tol`` ends refinement at once.

    A non-finite value raises at the lowest such node of its interval, after
    f was called at all the nodes of that application, in f's terms (see
    :func:`_raise_first_nonfinite`): :class:`NonfiniteIntegrandError` where
    f itself is not finite, else :class:`QuotientOverflowError`; a weighted
    sum of f itself that overflows raises :class:`SumOverflowError`.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    if not (math.isfinite(tau) and math.isfinite(f_tau)):
        raise ValueError(
            f"tau and f(tau) must be finite, got {tau!r} and {f_tau!r}"
        )

    n = len(pieces)
    values = [0.0] * n
    estimates = [0.0] * n
    evaluations = [0] * n
    # A piece's first application keeps its 21 values, for the interval's
    # first pick to decide whether it looks resolved, so a call whose first
    # applications meet tol pays nothing for the decision.  One-point pieces
    # keep None, and `fixed` sums their charges.
    kept: list[Optional[tuple]] = [None] * n
    err_sum = 0.0
    fixed = 0.0
    count = 0
    for piece, (form, a, b) in enumerate(pieces):
        if form not in _FORMS:
            raise ValueError(f"unknown integrand form {form!r}")
        if not 0.0 <= b - a < math.inf:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("integration endpoints must be finite")
            if a > b:
                raise ValueError(f"need a <= b, got [{a!r}, {b!r}]")
            raise ValueError(
                f"interval [{a!r}, {b!r}] is wider than the largest double"
            )
        if a == b:
            continue
        count += 1
        mid = 0.5 * (a + b)  # _midpoint, inline
        if not math.isfinite(mid):
            mid = 0.5 * a + 0.5 * b
        half = 0.5 * (b - a)
        # the map mid + half * x rounds monotonically in x, so the rule's
        # nodes land strictly inside [a, b] when its two outermost nodes do
        reach = half * _PAIR_OUTERMOST
        if a < mid - reach and mid + reach < b:
            value, err, kept[piece] = _pair_kernel(form)(
                f, a, b, tau, f_tau, True
            )
            evaluations[piece] = _PAIR_ORDER
        else:
            value, err, evaluations[piece] = _one_point(
                form, f, a, b, tau, f_tau
            )
            fixed += err
        values[piece] = 0.0 + value
        estimates[piece] = 0.0 + err
        err_sum += err
    if err_sum <= tol:
        # every piece has one interval, so the ordered sums below would add
        # these terms in this order: no queue is built
        return tuple.__new__(
            AdaptiveResult, (values, estimates, evaluations, "tolerance")
        )

    # Heap entries are (-estimate, sequence, a, b, value, piece, partial);
    # the sequence number breaks ties deterministically, and partial is the
    # 43-point sum over the 21 nodes of an interval that looks resolved and
    # has not been extended, else None, or a first application's kept
    # values.  Intervals too narrow to split migrate to `settled` as
    # (piece, a, value, estimate) and keep contributing their estimate;
    # one-point pieces start there.  A piece's value and estimate stand for
    # its one interval: 0.0 + v differs from v only at -0.0, which every sum
    # and difference below treats as 0.0.
    kernels = [None] * n
    heap: list[tuple[float, int, float, float, float, int, object]] = []
    settled: list[tuple[int, float, float, float]] = []
    for piece, (form, a, b) in enumerate(pieces):
        if kept[piece] is not None:
            kernels[piece] = _pair_kernel(form)
            heap.append((-estimates[piece], len(heap), a, b, values[piece],
                         piece, kept[piece]))
        elif a != b:
            settled.append((piece, a, values[piece], estimates[piece]))
    heapq.heapify(heap)
    seq = len(heap)
    # count is the number of non-empty pieces, at least 1 here, as an empty
    # call met tol; no bisection lowers a one-point charge
    max_intervals = _INTERVALS_PER_PIECE * count
    cap = count if fixed > tol else max_intervals

    while True:
        while err_sum > tol and count < cap and heap:
            neg_est, _, ia, ib, ival, piece, partial = heap[0]
            est = -neg_est
            if type(partial) is tuple:
                partial = _resolver()(partial, 0.5 * (ib - ia), est)
            if partial is not None and _wider_than(
                ia, ib, _MIN_EXTENSION_ULPS
            ):
                extend = _extension_kernel(pieces[piece][0])
                value, err = extend(f, ia, ib, tau, f_tau, partial, ival)
                evaluations[piece] += _EXTENSION_ORDER
                heapq.heapreplace(heap, (-err, seq, ia, ib, value, piece, None))
                seq += 1
                err_sum += err - est
                continue
            heapq.heappop(heap)
            if not _wider_than(ia, ib, _MIN_WIDTH_ULPS):
                settled.append((piece, ia, ival, est))
                continue
            mid = _midpoint(ia, ib)
            kernel = kernels[piece]
            lv, le, lp = kernel(f, ia, mid, tau, f_tau)
            rv, re, rp = kernel(f, mid, ib, tau, f_tau)
            evaluations[piece] += 2 * _PAIR_ORDER
            heapq.heappush(heap, (-le, seq, ia, mid, lv, piece, lp))
            heapq.heappush(heap, (-re, seq + 1, mid, ib, rv, piece, rp))
            seq += 2
            count += 1
            err_sum += le + re - est

        entries = [(p, ia, v, -neg) for neg, _, ia, _, v, p, _ in heap]
        entries.extend(settled)
        entries.sort()
        values = [0.0] * n
        estimates = [0.0] * n
        for p, _, v, e in entries:
            values[p] += v
            estimates[p] += e
        estimate = 0.0
        for e in estimates:
            estimate += e
        if not err_sum <= tol < estimate or count >= cap or not heap:
            break
        # The running sum drifted down to tol while the ordered sum did
        # not; resume from the ordered sum, so that the stop reason and
        # `converged` are both read from the estimate that is returned.
        err_sum = estimate

    if estimate <= tol:
        reason = "tolerance"
    elif heap and count >= max_intervals:
        reason = "interval_cap"
    else:
        reason = "width_floor"
    return tuple.__new__(AdaptiveResult, (values, estimates, evaluations, reason))


@lru_cache(maxsize=None)
def _at_point(form: str):
    """The form at one abscissa t, compiled on first use."""
    return eval(f"lambda f, t, tau, f_tau: {_FORMS[form].format(t='t')}")


def _one_point(form: str, f: Integrand, a: float, b: float, tau: float,
               f_tau: float) -> tuple[float, float, int]:
    """The midpoint rule on an [a, b] too narrow for the rule's nodes.

    Returns ``(value, estimate, evaluations)``: (b - a) times the form at
    the midpoint, its magnitude, 1; or 0.0, inf, 0 when no double lies
    strictly between a and b.
    """
    mid = _midpoint(a, b)
    if not a < mid < b:
        return 0.0, math.inf, 0
    v = _at_point(form)(f, mid, tau, f_tau)
    if not math.isfinite(v):
        # the midpoint is the node 0.0 mapped to [a, b]
        _raise_first_nonfinite(form, f, tau, (0.0,), (v,), a, b)
    value = (b - a) * v
    return value, abs(value), 1
