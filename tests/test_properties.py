"""Physics invariants over arbitrary physical states and spacings.

Hypothesis draws random positive semidefinite 4x4 density matrices and
spacings k0d, both uniform and within 1e-6 ... 1e-15 of a multiple of
pi, where the collective channels become degenerate and the closed
forms switch onto their snapped limits.  Every property holds for each
draw, not only for the presets.  The last two check the oracle's own
ground: its rotating frame, and its block exponential against the
finite-t photon number.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from waveqed.core import (
    TOTAL,
    DickeDensity,
    DickeState,
    Direction,
    SystemParams,
    collective_rates,
)
from waveqed.observables import emission_rate, radiated_energy, transition_probability
from waveqed.oracle import _L0, _adjoint_generator, _photon_number
from waveqed.spectra import photon_number, spectral_density
from waveqed.transition_operator import population_elements

GAMMA = 0.05
F, B = Direction.FORWARD, Direction.BACKWARD
STATES = tuple(DickeState)
OMEGAS = 1.0 + GAMMA * np.linspace(-10.0, 10.0, 41)
TIMES = np.linspace(0.0, 8.0, 33) / GAMMA  # Gamma*t in [0, 8]
#: qubit exchange in the (G, E, S, A) basis: S is even, A is odd
SWAP = np.diag([1.0, 1.0, 1.0, -1.0])

# a fixed example sequence keeps the suite reproducible from run to run
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def densities(draw):
    """rho = M M^dagger / tr, for a random complex 4x4 M."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
    m = np.array(parts[:16]).reshape(4, 4) + 1j * np.array(parts[16:]).reshape(4, 4)
    rho = m @ m.conj().T
    trace = np.trace(rho).real
    if trace < 1e-3:
        rho, trace = np.eye(4, dtype=complex), 4.0
    return rho / trace


def near_pi():
    """n*pi +- 10^-k for k = 6 ... 15, kept >= 0."""
    return st.builds(
        lambda n, k, sign: abs(n * math.pi + sign * 10.0**-k),
        st.integers(0, 4),
        st.integers(6, 15),
        st.sampled_from((-1.0, 1.0)),
    )


SPACINGS = st.one_of(st.floats(0.0, 4.0 * math.pi), near_pi())
#: n*pi + u with u at least 0.3 from the next multiple, so both collective
#: channels decay at >= (1 - cos 0.3) Gamma = 0.045 Gamma
CLEAR_OF_N_PI = st.builds(
    lambda n, u: n * math.pi + u, st.integers(0, 3), st.floats(0.3, math.pi - 0.3)
)


def _omegas(params):
    # the grid plus both shifted line centers, where a narrow line peaks
    shift = 0.5 * params.gamma * math.sin(params.k0d)
    return np.concatenate([OMEGAS, [1.0 + shift, 1.0 - shift]])


def _assert_close(curve, reference, rel):
    reference = np.asarray(reference, dtype=float)
    top = float(np.max(np.abs(reference)))
    assert np.max(np.abs(curve - reference)) <= rel * top


def _assert_matches_loop(curve, loop, grid):
    # one call per curve: an array shaped like the grid, equal to the
    # scalar calls, each of which returns a float
    assert curve.shape == grid.shape
    assert all(isinstance(v, float) for v in loop)
    _assert_close(curve, loop, 1e-14)


@PROPERTY
@given(rho=densities(), k0d=SPACINGS)
def test_one_array_call_equals_the_scalar_loop(rho, k0d):
    params = SystemParams(GAMMA, k0d)
    state = DickeDensity.from_matrix(rho)
    omegas = _omegas(params)
    for direction in (F, B):
        curve = spectral_density(state, params, direction, omegas)
        loop = [spectral_density(state, params, direction, float(w)) for w in omegas]
        _assert_matches_loop(curve, loop, omegas)
    for direction in (F, B, TOTAL):
        curve = emission_rate(state, params, TIMES, direction)
        loop = [emission_rate(state, params, float(t), direction) for t in TIMES]
        _assert_matches_loop(curve, loop, TIMES)
    for initial in STATES:
        for final in STATES:
            curve = transition_probability(initial, final, params, TIMES)
            loop = [transition_probability(initial, final, params, float(t)) for t in TIMES]
            _assert_matches_loop(curve, loop, TIMES)


@PROPERTY
@given(rho=densities(), k0d=SPACINGS)
def test_spectra_and_rates_are_nonnegative(rho, k0d):
    params = SystemParams(GAMMA, k0d)
    state = DickeDensity.from_matrix(rho)
    for direction in (F, B):
        spectrum = spectral_density(state, params, direction, _omegas(params))
        assert spectrum.min() >= -1e-12 * np.max(np.abs(spectrum))
        rate = emission_rate(state, params, TIMES, direction)
        assert rate.min() >= -1e-12 * params.gamma


@PROPERTY
@given(rho1=densities(), rho2=densities(), lam=st.floats(0.0, 1.0), k0d=SPACINGS)
def test_observables_are_linear_in_the_state(rho1, rho2, lam, k0d):
    params = SystemParams(GAMMA, k0d)
    one, two = DickeDensity.from_matrix(rho1), DickeDensity.from_matrix(rho2)
    mix = DickeDensity.from_matrix(lam * rho1 + (1.0 - lam) * rho2)
    omegas = _omegas(params)
    for direction in (F, B):
        _assert_close(
            spectral_density(mix, params, direction, omegas),
            lam * spectral_density(one, params, direction, omegas)
            + (1.0 - lam) * spectral_density(two, params, direction, omegas),
            1e-12,
        )
    for direction in (F, B, TOTAL):
        _assert_close(
            emission_rate(mix, params, TIMES, direction),
            lam * emission_rate(one, params, TIMES, direction)
            + (1.0 - lam) * emission_rate(two, params, TIMES, direction),
            1e-12,
        )


@PROPERTY
@given(rho=densities(), k0d=SPACINGS)
def test_qubit_exchange_swaps_the_directions(rho, k0d):
    params = SystemParams(GAMMA, k0d)
    state = DickeDensity.from_matrix(rho)
    swapped = DickeDensity.from_matrix(SWAP @ rho @ SWAP)
    omegas = _omegas(params)
    for there, back in ((F, B), (B, F)):
        _assert_close(
            spectral_density(swapped, params, back, omegas),
            spectral_density(state, params, there, omegas),
            1e-14,
        )
        _assert_close(
            emission_rate(swapped, params, TIMES, back),
            emission_rate(state, params, TIMES, there),
            1e-14,
        )


@PROPERTY
@given(
    rho=densities(),
    n=st.integers(1, 4),
    k=st.integers(6, 15),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_no_jump_across_the_snap_at_multiples_of_pi(rho, n, k, sign):
    # below 1e-12 the spacing snaps onto n*pi itself; above it the smooth
    # branch must land within the first-order change |eps| of the limit.
    # Spectra are left out: as Gamma_+ or Gamma_- -> 0 their line tends
    # to a delta function, which no bound in |eps| holds uniformly.
    eps = sign * 10.0**-k
    at = SystemParams(GAMMA, n * math.pi)
    near = SystemParams(GAMMA, n * math.pi + eps)
    state = DickeDensity.from_matrix(rho)
    for direction in (F, B, TOTAL):
        jump = emission_rate(state, near, TIMES, direction) - emission_rate(
            state, at, TIMES, direction
        )
        assert np.max(np.abs(jump)) / GAMMA <= abs(eps) + 1e-13
    for initial in STATES:
        for final in STATES:
            jump = transition_probability(
                initial, final, near, TIMES
            ) - transition_probability(initial, final, at, TIMES)
            assert np.max(np.abs(jump)) <= abs(eps) + 1e-13


@PROPERTY
@given(rho=densities(), k0d=SPACINGS)
def test_long_times_stay_finite_and_decay(rho, k0d):
    # the grid crosses Gamma t ~ 710, where the feeding terms' sinh form overflows
    params = SystemParams(GAMMA, k0d)
    state = DickeDensity.from_matrix(rho)
    gt = np.array([0.0, 5.0, 50.0, 500.0, 709.0, 712.0, 800.0, 3000.0, 1e4])
    t = gt / GAMMA
    table = population_elements(params, t)
    assert table.shape == (4, 4) + t.shape
    assert np.all(np.isfinite(table))
    np.testing.assert_allclose(table.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    for initial in STATES:
        for final in STATES:
            p = transition_probability(initial, final, params, t)
            assert np.all((0.0 <= p) & (p <= 1.0 + 1e-12))
    for direction in (F, B, TOTAL):
        rate = emission_rate(state, params, t, direction)
        assert np.all(np.isfinite(rate))
        # a channel within 1e-6 of n*pi stays populated, but radiates at
        # a rate below Gamma * 1e-12
        assert abs(rate[-1]) <= 1e-12 * GAMMA
    r = collective_rates(params)
    if min(r.gamma_plus, r.gamma_minus) * t[-1] > 800.0:
        # every channel has rung down: all weight sits in the ground state
        assert np.max(np.abs(table[1:, :, -1])) <= 1e-300
        assert np.all(table[0, :, -1] == 1.0)


@PROPERTY
@given(rho=densities(), k0d=CLEAR_OF_N_PI)
def test_radiated_energy_is_the_time_integral_of_the_rate(rho, k0d):
    params = SystemParams(GAMMA, k0d)
    state = DickeDensity.from_matrix(rho)
    r = collective_rates(params)
    # until the slowest decay (a collective channel, or the S-A coherence
    # at Gamma) has fallen by e^-50, which takes up to Gamma t ~ 1,100
    slowest = min(r.gamma_plus, r.gamma_minus, params.gamma)
    steps = 2 * math.ceil(5000.0 * params.gamma / slowest)  # h <= 0.005/Gamma
    t, h = np.linspace(0.0, 50.0 / slowest, steps + 1, retstep=True)
    for direction in (F, B):
        rate = emission_rate(state, params, t, direction)
        # trapezoid at steps h and 2h, Richardson-extrapolated (Simpson)
        fine = h * (rate.sum() - 0.5 * (rate[0] + rate[-1]))
        coarse = 2.0 * h * (rate[::2].sum() - 0.5 * (rate[0] + rate[-1]))
        integral = (4.0 * fine - coarse) / 3.0
        assert abs(integral - radiated_energy(state, params, direction)) <= 1e-9


def _tan_nodes(panels=40, order=400):
    """Gauss-Legendre nodes and weights in theta on (-pi/2, pi/2)."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-0.5 * math.pi, 0.5 * math.pi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


THETA, THETA_WEIGHTS = _tan_nodes()


@PROPERTY
@given(rho=densities(), k0d=CLEAR_OF_N_PI)
def test_spectral_area_is_4_pi_times_the_radiated_energy(rho, k0d):
    # omega = Omega + Gamma tan(theta) maps the whole line onto a finite
    # interval on which the Lorentzian lines become smooth
    params = SystemParams(GAMMA, k0d)
    state = DickeDensity.from_matrix(rho)
    omegas = 1.0 + params.gamma * np.tan(THETA)
    jacobian = params.gamma / np.cos(THETA) ** 2
    for direction in (F, B):
        spectrum = spectral_density(state, params, direction, omegas)
        area = np.sum(THETA_WEIGHTS * jacobian * spectrum)
        assert abs(area - 4.0 * math.pi * radiated_energy(state, params, direction)) <= 1e-10


@PROPERTY
@given(k0d=SPACINGS)
def test_the_bare_frame_commutes_with_the_generator(k0d):
    # [L0, L] has entries (l0_i - l0_j) L_ij: exactly zero, not just small
    L = _adjoint_generator(SystemParams(GAMMA, k0d))
    assert not np.any(np.subtract.outer(_L0, _L0) * L)


@PROPERTY
@given(rho=densities(), k0d=SPACINGS, gt=st.sampled_from((0.5, 4.0, 12.0, 40.0)))
def test_photon_number_matches_the_block_exponential(rho, k0d, gt):
    # the only pointwise check of the finite-t kernel by a route that
    # shares none of its algebra
    params = SystemParams(GAMMA, k0d)
    state = DickeDensity.from_matrix(rho)
    omegas = 1.0 + GAMMA * np.linspace(-7.0, 7.0, 15)
    t = gt / GAMMA
    for direction in (F, B):
        loop = [photon_number(state, params, direction, float(w), t) for w in omegas]
        _assert_close(_photon_number(state, params, direction, omegas, t), loop, 1e-12)
