"""Primitive exponential integrals against high-precision references.

Every function in waveqed._stable is checked two ways: against mpmath
quadrature/arithmetic at 40+ digits on separated arguments (correct
integral), and against high-precision divided differences right on top
of the coincidence points (stability where the naive forms cancel).
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from waveqed._stable import (
    INF,
    dexp,
    jint,
    jint_dz,
    phi,
    phi_dd,
    sinch,
)

mp.mp.dps = 40


def _mpc(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _close(got, want, rel=1e-12, absolute=1e-300):
    got = complex(got)
    want = complex(want)
    err = abs(got - want)
    assert err <= rel * abs(want) + absolute, (got, want, err)


def _mp_jint(z, w, t):
    """Triangle double integral: one mpmath quadrature over tau of the
    elementary inner integral e^{-z tau} (e^{(z-w) tau} - 1)/(z - w)."""
    z, w = _mpc(z), _mpc(w)
    u = z - w
    if u == 0:
        inner = lambda tau: tau * mp.e ** (-z * tau)
    else:
        inner = lambda tau: mp.e ** (-z * tau) * mp.expm1(u * tau) / u
    return complex(mp.quad(inner, [0, t]))


def _mp_mint(z, w, t):
    """The tau'-weighted triangle integral, one quadrature like _mp_jint:
    the inner int_0^tau tau' e^{u tau'} dtau' with u = z - w is
    tau e^{u tau}/u - (e^{u tau} - 1)/u^2, or tau^2/2 at u = 0."""
    z, w = _mpc(z), _mpc(w)
    u = z - w
    if u == 0:
        inner = lambda tau: tau**2 / 2 * mp.e ** (-z * tau)
    else:
        inner = lambda tau: mp.e ** (-z * tau) * (
            tau * mp.e ** (u * tau) / u - mp.expm1(u * tau) / u**2
        )
    return complex(mp.quad(inner, [0, t]))


def _mp_sinch(x):
    x = _mpc(x)
    return complex(mp.sinh(x) / x) if x != 0 else 1.0


@pytest.mark.parametrize(
    "x",
    [
        0.0, 5e-324, 1e-310 + 1e-310j, 1e-30, 3e-7, 3e-7j, 1e-3, 0.0999, 0.0999j,
        0.1001, 1.0, -2.5, 0.03 + 0.04j, -0.08j, 3.0 + 4.0j,
    ],
)
def test_sinch_matches_mpmath(x):
    if x == 0.0:
        assert sinch(x) == 1.0
        return
    # a few ulp: one sinh and one division, no series truncation anywhere
    _close(sinch(x), _mp_sinch(x), rel=1e-15)


def test_sinch_on_an_array():
    x = np.array([0.0, 5e-324, 1e-9j, 0.0999, 0.05 - 0.08j, 3.0 + 4.0j, -20.0])
    got = sinch(x)
    assert got.shape == x.shape
    for g, xi in zip(got, x):
        _close(g, _mp_sinch(xi), rel=1e-15)


@pytest.mark.parametrize(
    "x, y, t",
    [
        (0.1, 0.07, 3.0),
        (0.1 + 0.2j, 0.1 - 0.05j, 7.0),
        (0.05, 0.1, 40.0),
        (2.0 + 1.0j, 0.3, 1.2),
    ],
)
def test_dexp_separated_arguments(x, y, t):
    want = (mp.e ** (-_mpc(x) * t) - mp.e ** (-_mpc(y) * t)) / (_mpc(x) - _mpc(y))
    _close(dexp(x, y, t), complex(want), rel=1e-13)


def test_dexp_coincident_and_near_coincident():
    x = 0.1 + 0.05j
    t = 6.0
    assert dexp(x, x, t) == pytest.approx(-t * np.exp(-x * t), rel=1e-15)
    # 1e-13 apart: the naive quotient would lose ~10 digits here
    y = x + 1e-13
    with mp.workdps(60):
        want = (mp.e ** (-_mpc(x) * t) - mp.e ** (-_mpc(y) * t)) / (
            _mpc(x) - _mpc(y)
        )
        _close(dexp(x, y, t), complex(want), rel=1e-13)


@pytest.mark.parametrize(
    "x, y, t",
    [
        (0.1, 0.0, 14400.0),  # the feeding term at k0d = pi, Gamma t = 720
        (0.1, 1e-9, 1e5),
        (2.0, 0.0, 1e4),
        (0.1 + 0.3j, 0.02 - 0.1j, 3000.0),
        (0.1, 0.07, 2001.0),  # |Re(x - y)| t/2 just past the switch at 30
        (0.1, 0.07, 1999.0),  # and just below it
    ],
)
def test_dexp_long_times(x, y, t):
    want = (mp.e ** (-_mpc(x) * t) - mp.e ** (-_mpc(y) * t)) / (_mpc(x) - _mpc(y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dexp(x, y, t)
        both = dexp(x, y, np.array([1.0, t]))
    # e^{-xt} itself carries the rounding of x t, a few hundred ulp here
    _close(got, complex(want), rel=1e-13)
    assert both[1] == got
    _close(both[0], dexp(x, y, 1.0), rel=1e-15)


@pytest.mark.parametrize(
    "x, t",
    [
        (0.3, 2.0),
        (0.05 + 1.0j, 11.0),
        (4.0, 20.0),  # |xt| = 80, e^{-xt} below 1e-34
        (-0.2, 3.0),
    ],
)
def test_phi_matches_integral(x, t):
    want = mp.quad(lambda u: mp.e ** (-_mpc(x) * u), [0, t])
    _close(phi(x, t), complex(want), rel=1e-13)


def test_phi_limits():
    assert phi(0.0, 7.5) == 7.5


#: the k-th x-derivative of phi, (-1)^k int_0^t u^k e^{-xu} du, for the
#: orders the library computes: phi itself and phi_dd at coincident nodes
_PHI_DERIVATIVE = {0: phi, 1: lambda x, t: phi_dd(x, x, t)}


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize(
    "x, t",
    [
        (0.1, 5.0),
        (0.1 + 0.9j, 5.0),
        (0.0, 3.0),
        (2.5 + 0.5j, 30.0),  # |xt| > 30: far past phi_dd's Taylor branch
    ],
)
def test_phi_k_matches_integral(x, t, k):
    want = (-1.0) ** k * mp.quad(
        lambda u: u**k * mp.e ** (-_mpc(x) * u), [0, t]
    )
    _close(_PHI_DERIVATIVE[k](x, t), complex(want), rel=5e-13)


def _mp_phi_dd(a, b, t):
    """(phi(a,t) - phi(b,t))/(a - b) at 120 digits; the a-derivative at a = b."""
    with mp.workdps(120):
        a, b, t = _mpc(a), _mpc(b), mp.mpf(t)
        if a != b:
            phi_a = t if a == 0 else (1 - mp.exp(-a * t)) / a
            phi_b = t if b == 0 else (1 - mp.exp(-b * t)) / b
            return complex((phi_a - phi_b) / (a - b))
        if a == 0:
            return complex(-t * t / 2)
        e = mp.exp(-a * t)
        return complex((t * a * e - (1 - e)) / a**2)


#: a node of modulus 0.05 and times putting |a| t below, at and above the
#: Taylor switch at |a| t = 1
_NODE = 0.04 + 0.03j
_DD_TIMES = [6.0, 19.98, 20.02, 100.0, 1000.0]


@pytest.mark.parametrize("t", _DD_TIMES)
@pytest.mark.parametrize("gap", [0.0, 1e-16, 1e-12, 1e-9, 1e-3, 0.3, 1.0])
def test_phi_dd_coincident_and_near_coincident_nodes(gap, t):
    # b = a (1 + gap e^{i theta}): exact, rounding-close and separated nodes
    b = _NODE * (1.0 + gap * (0.6 - 0.8j))
    _close(phi_dd(_NODE, b, t), _mp_phi_dd(_NODE, b, t), rel=1e-13)
    _close(phi_dd(b, _NODE, t), _mp_phi_dd(_NODE, b, t), rel=1e-13)


@pytest.mark.parametrize("t", _DD_TIMES)
@pytest.mark.parametrize("a", [_NODE, 1e-9 * _NODE, 0.0])
def test_phi_dd_with_a_zero_node(a, t):
    _close(phi_dd(a, 0.0, t), _mp_phi_dd(a, 0.0, t), rel=1e-13)
    _close(phi_dd(0.0, a, t), _mp_phi_dd(a, 0.0, t), rel=1e-13)


def test_phi_dd_is_exactly_zero_at_t_zero():
    for a, b in ((0.0, 0.0), (_NODE, _NODE), (3.0 + 40.0j, 0.0), (1e5, 2.0 - 1e3j)):
        assert phi_dd(a, b, 0.0) == 0.0
    assert phi_dd(0.0, 0.0, 2.0) == -2.0


def test_phi_dd_random_node_pairs():
    # complex nodes with Re >= 0, |a| t from 1e-9 to ~100 and t from 1e-3
    # to 1e3; b coincides, sits 1e-16 ... 1 away (relative), is 0, or is
    # drawn on its own
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(400):
        t = 10.0 ** rng.uniform(-3.0, 3.0)
        a = 10.0 ** rng.uniform(-9.0, 2.0) / t * np.exp(1j * rng.uniform(-1.5, 1.5))
        kind = k % 4
        if kind == 0:
            b = a
        elif kind == 1:
            b = a * (1.0 + 10.0 ** rng.uniform(-16.0, 0.0) * np.exp(1j * rng.uniform(0.0, 6.3)))
            b = complex(max(b.real, 0.0), b.imag)
        elif kind == 2:
            b = 0.0
        else:
            b = 10.0 ** rng.uniform(-9.0, 2.0) / t * np.exp(1j * rng.uniform(-1.5, 1.5))
        want = _mp_phi_dd(a, b, t)
        worst = max(worst, abs(complex(phi_dd(a, b, t)) - want) / abs(want))
    assert worst <= 1e-13


@pytest.mark.parametrize(
    "z, w, t",
    [
        (0.05 + 0.02j, 0.1, 4.0),
        (0.1 - 0.3j, 0.07 + 0.1j, 9.0),
        (0.5, 0.02, 25.0),
    ],
)
def test_jint_matches_double_integral(z, w, t):
    _close(jint(z, w, t), _mp_jint(z, w, t), rel=1e-11)


def test_jint_coincident_and_limit():
    # z == w exactly: the rearranged form never divides by z - w
    z = 0.08 + 0.03j
    _close(jint(z, z, 5.0), _mp_jint(z, z, 5.0), rel=1e-11)
    # 1 ulp apart
    _close(jint(z, z + 2e-16, 5.0), _mp_jint(z, z, 5.0), rel=1e-10)
    assert jint(0.1, 0.2, INF) == pytest.approx(1.0 / 0.02, rel=1e-15)
    zc = 0.05 * (1 + 1j)
    assert jint(zc, 0.1, INF) == pytest.approx(1.0 / (zc * 0.1), rel=1e-15)


@pytest.mark.parametrize("z", [0.0, 1.25e-16, 1e-9 + 3e-10j, 1e-4j])
def test_jint_with_a_vanishing_outer_decay(z):
    # the dark-line detector near k0d = 2 pi: |z| t << 1, where dividing
    # by z cancels all digits; jint = (phi(w) - phi(z))/(z - w)
    w, t = 0.05 * (1.0 - 1e-7j), 240.0
    _close(jint(z, w, t), -_mp_phi_dd(w, z, t), rel=1e-13)


@pytest.mark.parametrize("k", [1])
def test_mint_matches_double_integral(k):
    # the tau'^k-weighted double integral is (-1)^k d^k jint/dw^k; for
    # k = 1 that is minus the w-difference jint_dz(z, w, w) at
    # coincident inner decays
    z, w, t = 0.06 + 0.04j, 0.09, 6.0
    _close(-jint_dz(z, w, w, t), _mp_mint(z, w, t), rel=1e-10)
    want_inf = math.factorial(k) / (z * w ** (k + 1))
    _close(-jint_dz(z, w, w, INF), want_inf, rel=1e-14)


# the divided difference of jint in w, f[z, w1, w2, 0], is jint_dz with
# the nodes reordered so that it divides by z - w1, never by w1 - w2


def test_jint_dw_separated_equals_quotient():
    z, w1, w2, t = 0.05 + 0.01j, 0.4, 0.1, 30.0
    want = (jint(z, w1, t) - jint(z, w2, t)) / (w1 - w2)
    _close(jint_dz(z, w1, w2, t), want, rel=1e-13)


def test_jint_dw_exact_coincidence():
    # at w1 == w2 the divided difference is -d(jint)/dw, a weighted
    # double integral checked directly
    z, w, t = 0.05 + 0.02j, 0.1, 12.0
    _close(jint_dz(z, w, w, t), -_mp_mint(z, w, t), rel=1e-10)
    assert jint_dz(0.1, 0.2, 0.3, INF) == pytest.approx(
        -1.0 / (0.1 * 0.2 * 0.3), rel=1e-15
    )


@pytest.mark.parametrize("dv", [1e-14, 1e-9, 1e-3])
def test_jint_dw_near_coincidence(dv):
    # separations far below the rounding floor of the direct quotient
    # in w, which jint_dz never forms
    z, w, t = 0.05 + 0.02j, 0.1, 12.0
    w1 = w + dv  # rounded like the library sees it; divide by the same
    got = jint_dz(z, w1, w, t)
    with mp.workdps(60):
        j1 = _mp_jint_closed(z, w1, t)
        j2 = _mp_jint_closed(z, w, t)
        want = complex((j1 - j2) / (mp.mpf(w1) - mp.mpf(w)))
    _close(got, want, rel=1e-10)


def _mp_jint_closed(z, w, t):
    """jint through its closed form at extended precision (stability ref)."""
    z, w = _mpc(z), _mpc(w)
    phi_w = (1 - mp.e ** (-w * t)) / w
    phi_wz = t if w == z else (1 - mp.e ** (-(w - z) * t)) / (w - z)
    return (phi_w - mp.e ** (-z * t) * phi_wz) / z


def test_jint_dz_quotient_and_limit():
    z1, z2, w, t = 0.15 + 0.3j, 0.05 - 0.1j, 0.1, 8.0
    want = (jint(z1, w, t) - jint(z2, w, t)) / (z1 - z2)
    _close(jint_dz(z1, z2, w, t), want, rel=1e-14)
    assert jint_dz(0.1, 0.2, 0.4, INF) == pytest.approx(
        -1.0 / (0.1 * 0.2 * 0.4), rel=1e-15
    )
