"""Independent high-precision references for the benchmark battery.

The frozen reference values in :mod:`cpvquad.benchmarks` are regenerated
and audited here: every reference is computed by two structurally different
routes and, where special functions permit, by a closed form as a third.
This module needs mpmath and imports nothing from cpvquad.

Route one mirrors the production decomposition (log term, one-sided
difference quotient integrals, symmetric quotient cut off at 1e-300) but in
arbitrary precision with tanh-sinh panels.  Route two splits the subtracted
quotient at the singularity instead and never forms the symmetric quotient.
Since the two routes share no decomposition beyond the log term, agreement
pins the value down to the quadrature accuracy of the weaker route.

Run ``python tests/oracles.py`` to print a regeneration table.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import mpmath as mp


def pv_decomposed(
    f: Callable,
    tau_text: str,
    breaks: Sequence[float] = (),
    dps: int = 60,
    mu_exponent: int = -300,
) -> mp.mpf:
    """Principal value over [-1, 1] via the production-style decomposition.

    `tau_text` is the decimal literal of the singularity so the reference
    describes the exact decimal problem, not its double rounding.  `breaks`
    are panel boundaries in the x of f (oscillation periods, kinks); they are
    mapped automatically into the symmetric quotient's coordinate.
    """
    with mp.workdps(dps):
        tau = mp.mpf(tau_text)
        if not -1 < tau < 1:
            raise ValueError(f"tau must lie in (-1, 1), got {tau_text!r}")
        delta = min(1 + tau, 1 - tau)
        f_tau = f(tau)
        def g(x):
            return (f(x) - f_tau) / (x - tau)
        def h(x):
            return (f(tau + x) - f(tau - x)) / x
        total = f_tau * mp.log((1 - tau) / (1 + tau))
        lo, hi = mp.mpf(-1), tau - delta
        if hi > lo:
            pts = [lo] + [mp.mpf(b) for b in breaks if lo < b < hi] + [hi]
            total += mp.quad(g, pts, maxdegree=8)
        lo, hi = tau + delta, mp.mpf(1)
        if hi > lo:
            pts = [lo] + [mp.mpf(b) for b in breaks if lo < b < hi] + [hi]
            total += mp.quad(g, pts, maxdegree=8)
        mu = mp.mpf(10) ** mu_exponent
        folded = sorted({abs(mp.mpf(b) - tau) for b in (*breaks, -1.0, 1.0)})
        pts = [mu] + [b for b in folded if mu < b < delta] + [delta]
        total += mp.quad(h, pts, maxdegree=8)
        return +total


def pv_split(
    f: Callable,
    tau_text: str,
    breaks: Sequence[float] = (),
    dps: int = 50,
) -> mp.mpf:
    """Principal value over [-1, 1] via subtraction split at the singularity.

    The subtracted quotient is bounded through tau, so integrating up to tau
    from both sides with endpoint-clustering panels needs no symmetric fold
    at all.  This is the structurally independent cross-check for
    :func:`pv_decomposed`.
    """
    with mp.workdps(dps):
        tau = mp.mpf(tau_text)
        if not -1 < tau < 1:
            raise ValueError(f"tau must lie in (-1, 1), got {tau_text!r}")
        f_tau = f(tau)
        # Extreme tanh-sinh nodes can round onto the panel endpoint tau
        # itself; there the quotient is its limit, the derivative.
        limit_step = mp.mpf(10) ** (-(dps // 2))
        def g(x):
            if x == tau:
                return (f(tau + limit_step) - f(tau - limit_step)) / (2 * limit_step)
            return (f(x) - f_tau) / (x - tau)
        total = f_tau * mp.log((1 - tau) / (1 + tau))
        pts = [mp.mpf(-1)] + [mp.mpf(b) for b in breaks if -1 < b < tau] + [tau]
        total += mp.quad(g, pts, maxdegree=8)
        pts = [tau] + [mp.mpf(b) for b in breaks if tau < b < 1] + [mp.mpf(1)]
        total += mp.quad(g, pts, maxdegree=8)
        return +total


def pv_exp_closed(tau_text: str, dps: int = 60) -> mp.mpf:
    """Closed form for f(x) = exp(x): exp(tau) (Ei(1-tau) - Ei(-(1+tau)))."""
    with mp.workdps(dps):
        tau = mp.mpf(tau_text)
        return +(mp.exp(tau) * (mp.ei(1 - tau) - mp.ei(-(1 + tau))))


def pv_sin_interval(k, tau, a, b, dps: int = 40) -> mp.mpf:
    """Principal value of sin(k x) / (x - tau) over [a, b], as an mpf.

    With A = tau - a and B = b - tau, u = x - tau splits sin(k x) into
    cos(k tau) sin(k u) + sin(k tau) cos(k u), whose principal values are
    Si(k B) + Si(k A) and Ci(k B) - Ci(k A).  Every argument goes through
    ``mp.mpf`` at `dps` digits: a double is converted exactly, so this is
    the problem the solver is given, and a decimal string such as "0.8" is
    the exact decimal problem.
    """
    with mp.workdps(dps):
        k, tau = mp.mpf(k), mp.mpf(tau)
        A, B = tau - mp.mpf(a), mp.mpf(b) - tau
        odd = mp.si(k * B) + mp.si(k * A)
        even = mp.ci(k * B) - mp.ci(k * A)
        return +(mp.cos(k * tau) * odd + mp.sin(k * tau) * even)


def _uniform_breaks(step: float) -> tuple[float, ...]:
    n = round(2.0 / step)
    return tuple(-1.0 + step * k for k in range(1, n))


def _kink_breaks() -> tuple[float, ...]:
    # Interior zeros of cos(44 x), where |cos(44 x)|^(3/2) loses smoothness.
    return tuple(
        (k + 0.5) * math.pi / 44.0 for k in range(-14, 14)
    )


def _chirp_breaks() -> tuple[float, ...]:
    # Panels sized to hold about 25 radians of the phase exp(-10 x).
    xs = []
    x = -1.0
    while x < 1.0:
        rate = 10.0 * math.exp(-10.0 * x)
        x = min(1.0, x + min(0.05, 25.0 / rate))
        if x < 1.0:
            xs.append(x)
    return tuple(xs)


_BREAKS: dict[str, tuple[float, ...]] = {
    "case1": (),
    "case2": _uniform_breaks(0.02),
    "case3": _uniform_breaks(0.02),
    "case4": (0.9, 0.98, 0.995, 0.999, 0.9995, 0.9999, 0.99995, 0.99999),
    "case5": _kink_breaks(),
    "case6": _uniform_breaks(0.02),
    "case6b": _uniform_breaks(0.02),
    "case7": (-0.5, 0.0, 0.5, 0.9, 0.99),
    "case8": _chirp_breaks(),
}


def _mp_integrands() -> dict[str, Callable]:
    shift = mp.mpf("1.0001")
    offset = mp.mpf("0.4")
    three_halves = mp.mpf(3) / 2
    return {
        "case1": mp.exp,
        "case2": lambda x: mp.sin(550 * x),
        "case3": lambda x: mp.sqrt(2 + mp.cos(200 * x)),
        "case4": lambda x: mp.log(shift - x) ** 2,
        "case5": lambda x: mp.fabs(mp.cos(44 * x)) ** three_halves,
        "case6": lambda x: mp.sqrt(1 - x**2) * mp.cos(100 * x),
        "case6b": lambda x: mp.sqrt(1 - x**2) * mp.cos(100 * x),
        "case7": mp.exp,
        "case8": lambda x: mp.exp(-100 * (x + offset) ** 2) * mp.sin(mp.exp(-10 * x)),
    }


_TAUS: dict[str, str] = {
    "case1": "0.5",
    "case2": "0.8",
    "case3": "0.7",
    "case4": "0.99",
    "case5": "-0.6",
    "case6": "0.5",
    "case6b": "0.9",
    "case7": "0.9999999",
    "case8": "-0.41",
}

_CLOSED: dict[str, Callable[[int], mp.mpf]] = {
    "case1": lambda dps: pv_exp_closed("0.5", dps),
    "case2": lambda dps: pv_sin_interval(550, "0.8", -1, 1, dps),
    "case7": lambda dps: pv_exp_closed("0.9999999", dps),
}


def oracle_breakpoints(name: str) -> tuple[float, ...]:
    return _BREAKS[name]


def oracle_integrand(name: str) -> Callable:
    return _mp_integrands()[name]


def reference_table(
    dps_primary: int = 60,
    dps_secondary: int = 50,
    names: Optional[Sequence[str]] = None,
) -> dict[str, dict[str, Optional[str]]]:
    """Recompute every reference by all available routes.

    Returns, per case, 30-digit decimal strings for the decomposed route,
    the split route, and the closed form (None where no closed form exists).
    """
    integrands = _mp_integrands()
    out: dict[str, dict[str, Optional[str]]] = {}
    for name in names or sorted(_TAUS):
        f = integrands[name]
        tau_text = _TAUS[name]
        breaks = _BREAKS[name]
        primary = pv_decomposed(f, tau_text, breaks, dps=dps_primary)
        secondary = pv_split(f, tau_text, breaks, dps=dps_secondary)
        closed = _CLOSED[name](dps_primary) if name in _CLOSED else None
        with mp.workdps(dps_primary):
            out[name] = {
                "decomposed": mp.nstr(primary, 30),
                "split": mp.nstr(secondary, 30),
                "closed": mp.nstr(closed, 30) if closed is not None else None,
            }
    return out


def _main() -> None:
    table = reference_table()
    for name, row in table.items():
        print(name)
        for route, value in row.items():
            print(f"    {route:<10} {value}")


if __name__ == "__main__":
    _main()
