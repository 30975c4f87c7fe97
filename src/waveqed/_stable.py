"""Exponential integrals with removable singularities handled exactly.

Every closed-form observable in this package reduces to combinations of

    phi(x, t)      = int_0^t e^{-x tau} dtau
    jint(z, w, t)  = int_0^t dtau int_0^tau dtau' e^{-z(tau-tau')} e^{-w tau'}

and the four-node jint_dz, each a divided difference of f(x) = e^{-xt}:
dexp = f[x, y], phi = -f[x, 0], phi_dd = -f[a, b, 0], jint(z, w) =
f[z, w, 0] and jint_dz(z1, z2, w) = f[z1, z2, w, 0].  Node order does
not matter, so jint_dz(z, w1, w2) is also the difference of jint in w,
exact at w1 = w2 provided z lies at least Gamma from w1.  The naive
quotients lose all precision when two nodes approach each other or 0,
which happens systematically at the bright/dark points of the waveguide
(cos k0d -> +-1).  The forms here stay exact there and sum no series,
except phi_dd's Taylor branch (about 20 terms, only while all three
nodes lie within 1/t).

t = math.inf is accepted wherever the integral converges (real parts of
the relevant exponents > 0) and returns the exact limit.  sinch and dexp
(for any finite t >= 0) broadcast over numpy arrays, and so do the
t = inf limits of jint and jint_dz (rational in their arguments); the
finite-t phi, phi_dd and with them jint and jint_dz branch on the size
of their arguments and take complex scalars.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


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
    return -np.expm1(-x * t) / x


def phi_dd(a: complex, b: complex, t: float) -> complex:
    """(phi(a,t) - phi(b,t))/(a - b) for finite t >= 0, exact at a = b.

    Minus the divided difference of e^{-xt} over {a, b, 0}, evaluated as
    McCurdy, Ng and Parlett (Math. Comp. 43, 1984) do.  With |a| >= |b|:
    the Taylor series sum_{n>=1} (-1)^n t^{n+1}/(n+1)! h_{n-1}(a, b),
    h_k = a h_{k-1} + b^k, while |a| t < 1; the direct quotient when
    |a - b| >= |a|; else -(dexp(a, b, t) + phi(b, t))/a.
    """
    if abs(a) < abs(b):
        a, b = b, a
    r = abs(a) * t
    if r < 1.0:
        # |h_{n-1}| <= n |a|^{n-1} bounds each term, and the sum is at
        # least 0.1 t^2 in size (Re e^{-x} > 0.19 for |x| < 1)
        c = -0.5 * t * t
        h = bk = 1.0 + 0j
        out = c + 0j
        bound = -c
        tol = 1e-18 * t * t
        n = 1
        while bound > tol:
            n += 1
            bk *= b
            h = a * h + bk
            c *= -t / (n + 1)
            out += c * h
            bound *= r * n / ((n - 1) * (n + 1))
        return out
    if abs(a - b) >= abs(a):
        return (phi(a, t) - phi(b, t)) / (a - b)
    return -(dexp(a, b, t) + phi(b, t)) / a


def jint(z: complex, w: complex, t: float) -> complex:
    """Ordered double decay integral, stable for any z and w.

    jint = int_0^t dtau int_0^tau dtau' e^{-z(tau-tau')} e^{-w tau'}
    = (phi(w,t) - phi(z,t))/(z - w), which is -phi_dd(w, z, t) and so
    stays exact where z ~ w, z ~ 0 or both.  t = inf needs Re z,
    Re w > 0 and gives 1/(z w).
    """
    if t == INF:
        return 1.0 / (z * w)
    return -phi_dd(w, z, t)


def jint_dz(z1: complex, z2: complex, w: complex, t: float) -> complex:
    """(jint(z1,w,t) - jint(z2,w,t))/(z1 - z2) = f[z1, z2, w, 0].

    Requires |z1 - z2| >= Gamma, where the direct quotient is safe; w
    may equal z1 or z2, because jint is exact at coincident nodes.
    """
    if t == INF:
        return -1.0 / (z1 * z2 * w)
    return (jint(z1, w, t) - jint(z2, w, t)) / (z1 - z2)
