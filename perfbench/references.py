"""Principal values computed apart from cpvquad, in mpmath.

Every family has a closed form on an arbitrary interval [a, b] with the
singularity tau inside it.  With A = tau - a and B = b - tau, the
substitution u = x - tau reduces the principal value of g(x) / (x - tau)
to integrals of sin(k u) / u, cos(k u) / u and exp(c u) / u over
(-A, B), which are the sine, cosine and exponential integrals:

    PV of sin(k u) / u = Si(k B) + Si(k A)
    PV of cos(k u) / u = Ci(k B) - Ci(k A)
    PV of exp(c u) / u = Ei(c B) - Ei(-c A)

The monomial x^k splits by polynomial division into the polynomial
(x^k - tau^k) / (x - tau), integrated term by term, plus tau^k times the
log term log(B / A).  Inputs are doubles and are converted exactly, so a
reference describes the problem the program is actually given.
"""

from __future__ import annotations

import mpmath as mp

#: Working precision of every closed form; far beyond what double results
#: can resolve, so cancellation in the Si/Ci differences is harmless.
DPS = 40


def _split(tau: float, a: float, b: float):
    tau = mp.mpf(tau)
    return tau, tau - mp.mpf(a), mp.mpf(b) - tau


def pv_sin(k: float, tau: float, a: float = -1.0, b: float = 1.0) -> mp.mpf:
    """Principal value of sin(k x) / (x - tau) over [a, b]."""
    with mp.workdps(DPS):
        tau, A, B = _split(tau, a, b)
        k = mp.mpf(k)
        odd = mp.si(k * B) + mp.si(k * A)
        even = mp.ci(k * B) - mp.ci(k * A)
        return +(mp.cos(k * tau) * odd + mp.sin(k * tau) * even)


def pv_cos(k: float, tau: float, a: float = -1.0, b: float = 1.0) -> mp.mpf:
    """Principal value of cos(k x) / (x - tau) over [a, b]."""
    with mp.workdps(DPS):
        tau, A, B = _split(tau, a, b)
        k = mp.mpf(k)
        odd = mp.si(k * B) + mp.si(k * A)
        even = mp.ci(k * B) - mp.ci(k * A)
        return +(mp.cos(k * tau) * even - mp.sin(k * tau) * odd)


def pv_exp(c: float, tau: float, a: float = -1.0, b: float = 1.0) -> mp.mpf:
    """Principal value of exp(c x) / (x - tau) over [a, b], c nonzero."""
    with mp.workdps(DPS):
        tau, A, B = _split(tau, a, b)
        c = mp.mpf(c)
        return +(mp.exp(c * tau) * (mp.ei(c * B) - mp.ei(-c * A)))


def pv_pow(k: int, tau: float, a: float = -1.0, b: float = 1.0) -> mp.mpf:
    """Principal value of x^k / (x - tau) over [a, b], k >= 0."""
    with mp.workdps(DPS):
        tau, A, B = _split(tau, a, b)
        lo, hi = mp.mpf(a), mp.mpf(b)
        # (x^k - tau^k) / (x - tau) = sum_j x^j tau^(k-1-j)
        poly = mp.fsum(
            tau ** (k - 1 - j) * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
            for j in range(k)
        )
        return +(poly + tau**k * mp.log(B / A))


def pv_shifted_sin(c: float, a: float, b: float) -> mp.mpf:
    """Principal value of sin(x - c) / (x - c) over [a, b], tau = c."""
    with mp.workdps(DPS):
        _, A, B = _split(c, a, b)
        return +(mp.si(B) + mp.si(A))
