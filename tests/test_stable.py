"""Primitive exponential integrals against high-precision references.

Every function in waveqed._stable is checked two ways: against mpmath
quadrature/arithmetic at 40+ digits on separated arguments (correct
integral), and against high-precision divided differences right on top
of the coincidence points (stability where the naive forms cancel).
"""

import math

import mpmath as mp
import numpy as np
import pytest

from waveqed._stable import (
    INF,
    dexp,
    jint,
    jint_dw,
    jint_dz,
    mint,
    phi,
    phi_k,
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
    """Triangle double integral by nested mpmath quadrature."""
    z, w = _mpc(z), _mpc(w)
    inner = lambda tau: mp.quad(
        lambda tp: mp.e ** (-z * (tau - tp) - w * tp), [0, tau]
    )
    return complex(mp.quad(inner, [0, t]))


def _mp_mint(z, w, t, k):
    z, w = _mpc(z), _mpc(w)
    inner = lambda tau: mp.quad(
        lambda tp: tp**k * mp.e ** (-z * (tau - tp) - w * tp), [0, tau]
    )
    return complex(mp.quad(inner, [0, t]))


def _mp_sinch(x):
    x = _mpc(x)
    return complex(mp.sinh(x) / x) if x != 0 else 1.0


@pytest.mark.parametrize(
    "x",
    [
        0.0, 5e-324, 1e-310 + 1e-310j, 1e-30, 1e-3, 0.0999, 0.0999j, 0.1001,
        1.0, -2.5, 0.03 + 0.04j, -0.08j, 3.0 + 4.0j,
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
    "x, t",
    [
        (0.3, 2.0),
        (0.05 + 1.0j, 11.0),
        (4.0, 20.0),  # |xt| = 80: large-argument branch
        (-0.2, 3.0),
    ],
)
def test_phi_matches_integral(x, t):
    want = mp.quad(lambda u: mp.e ** (-_mpc(x) * u), [0, t])
    _close(phi(x, t), complex(want), rel=1e-13)


def test_phi_limits():
    assert phi(0.0, 7.5) == 7.5
    assert phi(0.25, INF) == pytest.approx(4.0, rel=1e-15)
    z = 0.1 + 0.3j
    assert phi(z, INF) == pytest.approx(1.0 / z, rel=1e-15)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "x, t",
    [
        (0.1, 5.0),
        (0.1 + 0.9j, 5.0),
        (0.0, 3.0),
        (2.5 + 0.5j, 30.0),  # |xt| > 30: truncated-exponential branch
    ],
)
def test_phi_k_matches_integral(x, t, k):
    want = (-1.0) ** k * mp.quad(
        lambda u: u**k * mp.e ** (-_mpc(x) * u), [0, t]
    )
    _close(phi_k(x, t, k), complex(want), rel=5e-13)


def test_phi_k_edges():
    assert phi_k(0.3 + 0.1j, 0.0, 2) == 0.0
    z = 0.2 + 0.1j
    assert phi_k(z, INF, 3) == pytest.approx(-6.0 / z**4, rel=1e-14)
    assert phi_k(0.5, INF, 0) == pytest.approx(2.0, rel=1e-14)


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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mint_matches_double_integral(k):
    z, w, t = 0.06 + 0.04j, 0.09, 6.0
    _close(mint(z, w, t, k), _mp_mint(z, w, t, k), rel=1e-10)
    want_inf = math.factorial(k) / (z * w ** (k + 1))
    _close(mint(z, w, INF, k), want_inf, rel=1e-14)


def test_jint_dw_separated_equals_quotient():
    z, w1, w2, t = 0.05 + 0.01j, 0.4, 0.1, 30.0
    want = (jint(z, w1, t) - jint(z, w2, t)) / (w1 - w2)
    _close(jint_dw(z, w1, w2, t), want, rel=1e-13)


def test_jint_dw_exact_coincidence():
    # at w1 == w2 the divided difference is -d(jint)/dw, a weighted
    # double integral checked directly
    z, w, t = 0.05 + 0.02j, 0.1, 12.0
    _close(jint_dw(z, w, w, t), -_mp_mint(z, w, t, 1), rel=1e-10)
    assert jint_dw(0.1, 0.2, 0.3, INF) == pytest.approx(
        -1.0 / (0.1 * 0.2 * 0.3), rel=1e-15
    )


@pytest.mark.parametrize("dv", [1e-14, 1e-9, 1e-3])
def test_jint_dw_near_coincidence(dv):
    # the regime the series branch exists for: separations far below the
    # rounding floor of the direct quotient
    z, w, t = 0.05 + 0.02j, 0.1, 12.0
    w1 = w + dv  # rounded like the library sees it; divide by the same
    got = jint_dw(z, w1, w, t)
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
