"""Exponential integrals with removable singularities handled exactly.

Every closed-form observable in this package reduces to combinations of

    phi(x, t)      = int_0^t e^{-x tau} dtau
    jint(z, w, t)  = int_0^t dtau int_0^tau dtau' e^{-z(tau-tau')} e^{-w tau'}

and divided differences of these in their parameters.  The naive forms
(e^{-xt} - e^{-yt})/(x - y) etc. lose all precision when two decay
constants approach each other, which happens systematically at the
bright/dark points of the waveguide (cos k0d -> +-1).  The functions
here evaluate the same quantities through sinch-type series, uniformly
accurate for any complex arguments including exact coincidence.

t = math.inf is accepted wherever the integral converges (real parts of
the relevant exponents > 0) and returns the exact limit.  sinch and dexp
(for any finite t >= 0) broadcast over numpy arrays, and so do the
t = inf limits of jint, jint_dz and jint_dw (rational in their
arguments); the finite-t series of phi, phi_k, mint and jint_dw branch
on the size of their arguments and take complex scalars.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf

_FACT = [float(math.factorial(k)) for k in range(40)]


def sinch(x):
    """sinh(x)/x for complex x, scalar or array, exactly 1 at x = 0.

    Below |x| = 1e-8 the x^2/6 term is under half an ulp, so shifting
    numerator and denominator by 1 there returns 1 without a branch and
    without the overflow of a complex division by a subnormal x.
    """
    z = abs(x) < 1e-8
    return (np.sinh(x) + z) / (x + z)


def dexp(x: complex, y: complex, t):
    """(e^{-xt} - e^{-yt})/(x - y); equals -t e^{-(x+y)t/2} sinch((x-y)t/2).

    The sinch form is exact at x = y.  Where |Re(x - y)| t/2 > 30 its
    sinh heads for overflow and e^{-(x+y)t/2} for underflow (NaN past
    Gamma t ~ 710 at k0d = n*pi), while the two exponentials differ by
    e^60 or more, so their direct difference cannot cancel and is used.
    """
    m = 0.5 * (x + y)
    v = 0.5 * (x - y) * t
    far = abs(v.real) > 30.0
    # a Python or numpy bool for scalars, whose np.any would triple the cost
    if not (far.any() if isinstance(far, np.ndarray) else far):
        return -t * np.exp(-m * t) * sinch(v)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        near = -t * np.exp(-m * t) * sinch(v)
        direct = (np.exp(-x * t) - np.exp(-y * t)) / (x - y)
    return np.where(far, direct, near)[()]


def phi(x: complex, t: float) -> complex:
    """int_0^t e^{-x tau} dtau = (1 - e^{-xt})/x, with the x = 0 limit t."""
    if t == INF:
        return 1.0 / x
    if x == 0:
        return complex(t)
    if abs(x * t) <= 30.0:
        return -np.expm1(-x * t) / x
    return (1.0 - np.exp(-x * t)) / x


def phi_k(x: complex, t: float, k: int = 0) -> complex:
    """k-th x-derivative of phi: (-1)^k int_0^t tau^k e^{-x tau} dtau.

    Works for any complex x (including 0) with finite t >= 0, or t = inf
    with Re x > 0, where it gives (-1)^k k!/x^{k+1}.
    """
    if t == INF:
        return (-1.0) ** k * _FACT[k] / x ** (k + 1)
    if t == 0.0:
        return 0.0 + 0.0j
    y = x * t
    if abs(y) <= 30.0:
        # (-1)^k t^{k+1} k! e^{-y} sum_m y^m / (m+k+1)!
        s = 0.0 + 0.0j
        c = 1.0 / (k + 1.0)  # k!/(k+1)!
        m = 0
        while True:
            s += c
            c *= y / (m + k + 2.0)
            m += 1
            if abs(c) < 1e-18 * abs(s) + 1e-300 or m > 300:
                break
        return (-1.0) ** k * t ** (k + 1) * np.exp(-y) * s
    # large |xt|: truncated-exponential form, no cancellation out here
    ssum = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for j in range(k + 1):
        ssum += term
        term *= y / (j + 1.0)
    return (-1.0) ** k * _FACT[k] / x ** (k + 1) * (1.0 - np.exp(-y) * ssum)


def jint(z: complex, w: complex, t: float) -> complex:
    """Ordered double decay integral, stable for z close to w.

    jint = int_0^t dtau int_0^tau dtau' e^{-z(tau-tau')} e^{-w tau'}.
    The textbook form (phi(w,t) - phi(z,t))/(z - w) cancels badly for
    z ~ w; the exact rearrangement (1/z)[phi(w,t) - e^{-zt} phi(w-z,t)]
    does not.  Requires z != 0 (callers guarantee Re z >= Gamma/2 or
    skip the term).  t = inf needs Re z, Re w > 0 and gives 1/(z w).
    """
    if t == INF:
        return 1.0 / (z * w)
    return (phi(w, t) - np.exp(-z * t) * phi(w - z, t)) / z


def mint(z: complex, w: complex, t: float, k: int) -> complex:
    """int_0^t dtau int_0^tau dtau' tau'^k e^{-z(tau-tau')} e^{-w tau'} (z != 0)."""
    if t == INF:
        return _FACT[k] / (z * w ** (k + 1))
    return (-1.0) ** k * (phi_k(w, t, k) - np.exp(-z * t) * phi_k(w - z, t, k)) / z


def jint_dw(z: complex, w1: complex, w2: complex, t: float) -> complex:
    """(jint(z,w1,t) - jint(z,w2,t))/(w1 - w2), stable for w1 ~ w2.

    Direct quotient when the two inner decays separate over the
    effective window, otherwise a sinch expansion about the midpoint,
    -sum_j (v/2)^{2j}/(2j+1)! mint(z, wm, t, 2j+1), exact at w1 = w2.
    """
    if t == INF:
        return -1.0 / (z * w1 * w2)
    v = w1 - w2
    if abs(v) * min(t, 8.0 / max(abs(z), 1e-300)) > 4.0:
        return (jint(z, w1, t) - jint(z, w2, t)) / v
    wm = 0.5 * (w1 + w2)
    h = 0.5 * v
    out = 0.0 + 0.0j
    c = 1.0 + 0.0j
    for j in range(16):
        term = c / _FACT[2 * j + 1] * mint(z, wm, t, 2 * j + 1)
        out -= term
        if abs(term) < 1e-17 * abs(out) + 1e-300:
            break
        c *= h * h
    return out


def jint_dz(z1: complex, z2: complex, w: complex, t: float) -> complex:
    """(jint(z1,w,t) - jint(z2,w,t))/(z1 - z2).

    Callers only use it with |z1 - z2| >= Gamma, so the direct quotient
    is always safe.
    """
    if t == INF:
        return -1.0 / (z1 * z2 * w)
    return (jint(z1, w, t) - jint(z2, w, t)) / (z1 - z2)
