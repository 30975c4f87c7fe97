"""Spectral densities, finite-time photon numbers, peaks, and areas."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import simpson

from waveqed.core import (
    PRESET_NAMES,
    TOTAL,
    DickeDensity,
    DickeState,
    Direction,
    SystemParams,
    phase_factors,
    preset_state,
)
from waveqed.observables import emission_rate
from waveqed.spectra import (
    SpectrumSample,
    line_tail_area,
    peak_analysis,
    photon_number,
    single_qubit_baseline,
    spectral_density,
)

GAMMA = 0.05
F, B = Direction.FORWARD, Direction.BACKWARD
OMEGA_GRID = 1.0 + GAMMA * np.linspace(-10.0, 10.0, 41)


def _params(k0d):
    return SystemParams(gamma_ratio=GAMMA, k0d=k0d)


def _samples(name, params, direction, omegas):
    rho0 = preset_state(name)
    return [
        SpectrumSample(
            omega=float(w),
            value=spectral_density(rho0, params, direction, float(w)),
            direction=direction,
            initial=rho0,
        )
        for w in omegas
    ]


@pytest.mark.parametrize("k0d", [0.25 * math.pi, 0.5 * math.pi, 1.2, 2 * math.pi])
@pytest.mark.parametrize("direction", [F, B])
def test_symmetric_state_is_a_single_lorentzian(k0d, direction):
    params = _params(k0d)
    rho0 = preset_state("S")
    for w in OMEGA_GRID:
        delta = float(w) - params.omega_plus
        want = params.gamma_plus / (delta**2 + 0.25 * params.gamma_plus**2)
        got = spectral_density(rho0, params, direction, float(w))
        assert got == pytest.approx(want, rel=1e-12)
    # no interference term: both directions identical
    assert spectral_density(rho0, params, F, 1.02) == spectral_density(
        rho0, params, B, 1.02
    )


@pytest.mark.parametrize("k0d", [0.25 * math.pi, math.pi, 2.2])
def test_antisymmetric_state_is_the_minus_line(k0d):
    params = _params(k0d)
    rho0 = preset_state("A")
    for w in OMEGA_GRID:
        delta = float(w) - params.omega_minus
        want = params.gamma_minus / (delta**2 + 0.25 * params.gamma_minus**2)
        assert spectral_density(rho0, params, F, float(w)) == pytest.approx(
            want, rel=1e-12
        )


def test_dark_lines_are_flat_zero():
    for w in OMEGA_GRID:
        assert spectral_density(preset_state("A"), _params(2 * math.pi), F, float(w)) == 0.0
        assert spectral_density(preset_state("S"), _params(math.pi), B, float(w)) == 0.0
        assert spectral_density(preset_state("G"), _params(1.1), F, float(w)) == 0.0


def test_doubly_excited_dicke_point_closed_form():
    # at k0d = 2*pi the E spectrum collapses to a rational function of
    # the detuning; its peak is 5/Gamma, i.e. 100 here
    params = _params(2 * math.pi)
    rho0 = preset_state("E")
    g = GAMMA
    for w in OMEGA_GRID:
        d = float(w) - 1.0
        want = (
            2.0
            * g
            * (d * d + 10.0 * g * g)
            / ((d * d + g * g) * (d * d + 4.0 * g * g))
        )
        got = spectral_density(rho0, params, F, float(w))
        assert got == pytest.approx(want, rel=1e-10)
    assert spectral_density(rho0, params, F, 1.0) == pytest.approx(100.0, rel=1e-12)


def test_dicke_point_reached_continuously():
    # generic-branch evaluation a hair off 2*pi agrees with the snapped
    # limit branch.  Off the peak the lines physically shift by
    # (Gamma/2) sin(k0d - 2pi) ~ 2.5e-6, which on a steep shoulder moves
    # the value at fixed omega by ~1e-5 relative; at the slope-free peak
    # the comparison is orders tighter.
    rho0 = preset_state("E")
    at = np.array(
        [spectral_density(rho0, _params(2 * math.pi), F, float(w)) for w in OMEGA_GRID]
    )
    peak = spectral_density(rho0, _params(2 * math.pi), F, 1.0)
    for off in (-1e-4, 1e-4):
        near = np.array(
            [
                spectral_density(rho0, _params(2 * math.pi + off), F, float(w))
                for w in OMEGA_GRID
            ]
        )
        assert np.max(np.abs(near - at) / np.abs(at)) < 1e-4
        near_peak = spectral_density(rho0, _params(2 * math.pi + off), F, 1.0)
        assert near_peak == pytest.approx(peak, rel=1e-6)


def test_mirror_null_and_qubit_swap_symmetry():
    params = _params(0.5 * math.pi)
    assert abs(spectral_density(preset_state("eg"), params, F, 1.0)) < 1e-10
    # exchanging which qubit is excited is the same as reversing the
    # detection direction, operation for operation
    for w in OMEGA_GRID:
        assert spectral_density(
            preset_state("eg"), params, F, float(w)
        ) == spectral_density(preset_state("ge"), params, B, float(w))


def test_peak_separations_on_the_dense_grid():
    omegas = 1.0 + GAMMA * np.linspace(-10.0, 10.0, 1601)
    params = _params(0.5 * math.pi)
    sep_eg_f = peak_analysis(_samples("eg", params, F, omegas)).separation
    sep_eg_b = peak_analysis(_samples("eg", params, B, omegas)).separation
    sep_e = peak_analysis(_samples("E", params, F, omegas)).separation
    assert sep_eg_f == pytest.approx(math.sqrt(2.0) * GAMMA, abs=2e-3 * GAMMA)
    assert sep_eg_b == pytest.approx(0.6870 * GAMMA, abs=2e-3 * GAMMA)
    assert sep_e == pytest.approx(0.6565 * GAMMA, abs=2e-3 * GAMMA)


def test_peak_analysis_mechanics():
    # exact parabola: the refined vertex is recovered to rounding
    x = np.array([0.0, 0.11, 0.23, 0.34, 0.5])
    v = 5.0 - (x - 0.27) ** 2
    samples = [
        SpectrumSample(omega=float(a), value=float(b), direction=F, initial=None)
        for a, b in zip(x, v)
    ]
    result = peak_analysis(samples)
    assert len(result.peaks) == 1
    assert result.peaks[0][0] == pytest.approx(0.27, abs=1e-12)
    assert result.peaks[0][1] == pytest.approx(5.0, abs=1e-12)
    assert result.separation is None
    with pytest.raises(ValueError):
        peak_analysis(samples[:2])
    bad = [samples[0], samples[2], samples[1]]
    with pytest.raises(ValueError):
        peak_analysis(bad)
    # a curvature that underflows to -0.0 keeps the grid point
    flat = [
        SpectrumSample(omega=a, value=b, direction=F, initial=None)
        for a, b in ((0.0, 0.0), (4.0, 5e-324), (8.0, 0.0))
    ]
    assert peak_analysis(flat).peaks == ((4.0, 5e-324),)
    # NaN compares False both ways, so neither may slip past the order check
    for omegas, values, bad in (((0.0, math.nan, 2.0), (0.0, 1.0, 0.0), "omega"),
                                ((0.0, 1.0, 2.0, 3.0, 4.0), (0.0, math.nan, 0.0, 1.0, 0.0),
                                 "value")):
        nan = [SpectrumSample(omega=a, value=b, direction=F, initial=None)
               for a, b in zip(omegas, values)]
        with pytest.raises(ValueError, match=f"sample {bad} must be finite, got nan"):
            peak_analysis(nan)


@pytest.mark.parametrize(
    "k0d",
    [0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi, 1.25 * math.pi, 2 * math.pi],
)
def test_symmetric_line_area_with_tail_correction(k0d):
    params = _params(k0d)
    half_width = 50.0 * GAMMA
    omegas = np.linspace(1.0 - half_width, 1.0 + half_width, 16001)
    values = spectral_density(preset_state("S"), params, F, omegas)
    area = simpson(values, x=omegas) + line_tail_area(params, half_width, DickeState.S)
    assert area == pytest.approx(2.0 * math.pi, rel=2e-4)


def test_tail_correction_edge_cases():
    assert line_tail_area(_params(math.pi), 2.5, DickeState.S) == 0.0
    assert line_tail_area(_params(2 * math.pi), 2.5, DickeState.A) == 0.0
    with pytest.raises(ValueError):
        line_tail_area(_params(1.0), 2.5, DickeState.E)
    # a NaN or negative window is refused, an infinite one misses nothing
    for bad in (math.nan, -0.5):
        with pytest.raises(ValueError, match="half_width"):
            line_tail_area(_params(0.5 * math.pi), bad, DickeState.S)
    assert line_tail_area(_params(0.5 * math.pi), math.inf, DickeState.A) == 0.0
    # the correction is exactly what the window integral misses
    params = _params(0.5 * math.pi)
    half_width = 20.0 * GAMMA
    omegas = np.linspace(1.0 - half_width, 1.0 + half_width, 16001)
    values = spectral_density(preset_state("A"), params, B, omegas)
    area = simpson(values, x=omegas) + line_tail_area(params, half_width, DickeState.A)
    assert area == pytest.approx(2.0 * math.pi, rel=5e-4)


def test_single_qubit_baseline_curves():
    params = _params(1.0)
    peak, rate = single_qubit_baseline(params, 1.0)
    assert peak == pytest.approx(4.0 / GAMMA, rel=1e-15)
    assert rate(0.0) == 0.5 * GAMMA
    value, _ = single_qubit_baseline(params, 1.0 + GAMMA)
    assert value == pytest.approx(GAMMA / (GAMMA**2 + 0.25 * GAMMA**2), rel=1e-15)
    t = np.linspace(0.0, 300.0, 30001)
    area = simpson([rate(float(u)) for u in t], x=t)
    assert area == pytest.approx(0.5, rel=1e-6)


def test_photon_number_starts_at_zero_and_grows_to_the_spectrum():
    params = _params(0.5 * math.pi)
    rho0 = preset_state("S")
    omega = params.omega_plus  # on the line center
    assert photon_number(rho0, params, F, omega, 0.0) == 0.0
    previous = -1.0
    for t in (5.0, 20.0, 60.0, 200.0):
        n = photon_number(rho0, params, F, omega, t)
        assert n > previous
        previous = n
    limit = spectral_density(rho0, params, F, omega)
    assert photon_number(rho0, params, F, omega, 2000.0) == pytest.approx(
        limit, rel=1e-6
    )


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_spectra_are_nonnegative_everywhere(name):
    rho0 = preset_state(name)
    for k0d in (0.25 * math.pi, 0.5 * math.pi, math.pi, 2 * math.pi, 1.9):
        params = _params(k0d)
        for direction in (F, B):
            for w in OMEGA_GRID:
                assert (
                    spectral_density(rho0, params, direction, float(w)) >= -1e-12
                )


def test_integrated_spectrum_flux_matches_the_emission_rate():
    # d/dt of the omega-integrated photon number for one direction is
    # the one-direction rate; finite window and finite differences keep
    # this at the percent level
    params = _params(0.5 * math.pi)
    rho0 = preset_state("eg")
    omegas = np.linspace(1.0 - 200.0 * GAMMA, 1.0 + 200.0 * GAMMA, 4001)
    t, h = 20.0, 0.5

    def photons(at):
        vals = [photon_number(rho0, params, F, float(w), at) for w in omegas]
        return simpson(vals, x=omegas) / (4.0 * math.pi)

    fd = (photons(t + h) - photons(t - h)) / (2.0 * h)
    want = emission_rate(rho0, params, t, F)
    assert fd == pytest.approx(want, rel=2e-2)


def test_detuning_difference_is_the_collective_splitting():
    for k0d in (0.3, 0.5 * math.pi, 2.9):
        params = _params(k0d)
        assert params.omega_plus - params.omega_minus == pytest.approx(
            GAMMA * math.sin(k0d), rel=1e-12
        )


@pytest.mark.parametrize("direction", ["x", None])
def test_spectral_density_names_a_bad_direction(direction):
    with pytest.raises(ValueError) as exc:
        spectral_density(preset_state("eg"), _params(1.0), direction, 1.0)
    assert str(exc.value) == f"direction must be a Direction or TOTAL, got {direction!r}"


def test_photon_number_argument_validation():
    params = _params(1.0)
    rho0 = preset_state("E")
    with pytest.raises(ValueError):
        photon_number(rho0, params, "Forward", 1.0, 1.0)
    with pytest.raises(ValueError):
        photon_number(rho0, params, F, 1.0, -0.5)
    with pytest.raises(ValueError):
        photon_number(rho0, params, F, 1.0, float("nan"))


@pytest.mark.parametrize(
    "omega", [math.nan, math.inf, -math.inf, np.array([1.0, math.nan]), np.array([math.inf])]
)
def test_non_finite_omega_rejected(omega):
    params = _params(1.0)
    rho0 = preset_state("E")
    with pytest.raises(ValueError, match="omega must be finite"):
        spectral_density(rho0, params, F, omega)
    with pytest.raises(ValueError, match="omega must be finite"):
        photon_number(rho0, params, F, omega, math.inf)


@pytest.mark.parametrize(
    "omega", [1.0 + 1.0j, np.array([1.0, 1.0 + 1e-3j]), [1.0, 1.0 + 1e-3j]]
)
def test_complex_omega_rejected(omega):
    # abs() of a complex omega is finite, and the kernel would return the
    # real part of a complex-frequency evaluation
    rho0, params = preset_state("eg"), _params(1.0)
    with pytest.raises(ValueError, match="omega must be real"):
        spectral_density(rho0, params, F, omega)
    with pytest.raises(ValueError, match="omega must be real"):
        photon_number(rho0, params, F, omega, math.inf)


#: list and tuple omegas, and the arrays they must act as
LIST_OMEGAS = [([0.9, 1.0, 1.025], [0.9, 1.0, 1.025]), ((0.9, 1, 1.025), [0.9, 1.0, 1.025]),
               ([1, 2], [1.0, 2.0])]


@pytest.mark.parametrize(("omega", "as_array"), LIST_OMEGAS)
def test_spectral_density_takes_a_list_as_its_array(omega, as_array):
    rho0, params = preset_state("eg"), _params(1.0)
    for direction in (F, B, TOTAL):
        expected = spectral_density(rho0, params, direction, np.array(as_array))
        assert spectral_density(rho0, params, direction, omega).tobytes() == expected.tobytes()


@pytest.mark.parametrize(("omega", "as_array"), LIST_OMEGAS)
def test_photon_number_takes_a_list_as_its_array(omega, as_array):
    rho0, params = preset_state("s1e2"), _params(1.0)
    expected = photon_number(rho0, params, B, np.array(as_array), math.inf)
    assert photon_number(rho0, params, B, omega, math.inf).tobytes() == expected.tobytes()


def test_omega_rejection_names_the_first_bad_value():
    omegas = np.concatenate([np.linspace(0.5, 1.5, 1000), [math.nan, math.inf]])
    with pytest.raises(ValueError) as exc:
        spectral_density(preset_state("E"), _params(1.0), F, omegas)
    assert str(exc.value) == "omega must be finite, got nan"


@pytest.mark.parametrize("k0d", [0.5 * math.pi, 1.3, 2 * math.pi])
@pytest.mark.parametrize("name", ["eg", "s1e2", "E"])
def test_total_spectrum_is_forward_plus_backward(name, k0d):
    params = _params(k0d)
    rho0 = preset_state(name)
    total = spectral_density(rho0, params, TOTAL, OMEGA_GRID)
    both = spectral_density(rho0, params, F, OMEGA_GRID) + spectral_density(
        rho0, params, B, OMEGA_GRID
    )
    assert total.tobytes() == both.tobytes()
    w = float(OMEGA_GRID[7])
    assert spectral_density(rho0, params, TOTAL, w) == spectral_density(
        rho0, params, F, w
    ) + spectral_density(rho0, params, B, w)


def test_finite_time_photon_number_needs_a_scalar_omega():
    with pytest.raises(ValueError, match=r"omega must be a scalar, got shape \(2,\)"):
        photon_number(preset_state("E"), _params(1.0), F, np.array([0.99, 1.01]), 20.0)


@pytest.mark.parametrize("t", [np.array([1.0, 2.0]), np.array([math.inf]), np.array([[5.0]])])
def test_photon_number_needs_a_scalar_time(t):
    with pytest.raises(ValueError, match="t must be a scalar, got shape"):
        photon_number(preset_state("E"), _params(1.3), F, 1.01, t)


def _mp_divided_difference(nodes, t):
    """Divided difference of e^{-x t} over the nodes, exact where they coincide."""
    a = nodes[0]
    for j in range(1, len(nodes)):
        if nodes[j] != a:
            rest = nodes[1:j] + nodes[j + 1:]
            return (
                _mp_divided_difference(rest + [a], t)
                - _mp_divided_difference(rest + [nodes[j]], t)
            ) / (a - nodes[j])
    n = len(nodes) - 1
    return (-t) ** n * mp.exp(-a * t) / mp.factorial(n)


def _mp_photon_number(rho0, params, direction, omega, t):
    """photon_number's kernel weights at 100 digits.

    The rates are the library's own floats, taken as exact, so this
    checks the finite-t kernels and not the n*pi snapping.  With
    f(x) = e^{-xt}: jint(z, w) = f[w, z, 0] and jint_dz(z1, z2, w) =
    f[w, z1, z2, 0], in w as well as in z.
    """
    with mp.workdps(100):
        zero, i = mp.mpf(0), mp.mpc(0, 1)
        t = mp.mpf(t)
        g = mp.mpf(params.gamma)
        s = mp.mpf(phase_factors(params.k0d)[1])
        gp, gm = mp.mpf(params.gamma_plus), mp.mpf(params.gamma_minus)
        a, b = gp / g, gm / g
        dp = mp.mpf(omega) - mp.mpf(params.omega_plus)
        dm = mp.mpf(omega) - mp.mpf(params.omega_minus)
        sk = direction.sign * s
        z1, z2 = i * dm + gp / 2 + g, i * dp + gp / 2
        z4, z5 = i * dp + gm / 2 + g, i * dm + gm / 2

        def jint(z, w):
            return _mp_divided_difference([w, z, zero], t)

        def jint_dz(z1, z2, w):
            return _mp_divided_difference([w, z1, z2, zero], t)

        kernel_e = mp.mpc(0)
        if a != 0:
            kernel_e += -a * a * g * jint_dz(z1, z2, 2 * g) + a * jint(z1, 2 * g)
            kernel_e += -a * a * g * jint_dz(z2, 2 * g, gp)
        if b != 0:
            kernel_e += b * jint(z4, 2 * g) - b * b * g * jint_dz(z4, z5, 2 * g)
            kernel_e += -b * b * g * jint_dz(z5, 2 * g, gm)
        total = mp.mpf(rho0.pEE) * kernel_e
        if a != 0:
            total += mp.mpf(rho0.pSS) * a * jint(z2, gp)
        if b != 0:
            total += mp.mpf(rho0.pAA) * b * jint(z5, gm)
        if sk != 0:
            sa = mp.mpc(rho0.pSA.real, rho0.pSA.imag)
            total += sa * i * sk * jint(z5, g * (1 + i * s))
            total += mp.conj(sa) * (-i) * sk * jint(z2, g * (1 - i * s))
        return float(2 * mp.re(g * total))


def _random_density(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = m @ m.conj().T
    return DickeDensity.from_matrix(m / np.trace(m).real)


@pytest.mark.parametrize(
    "k0d",
    [
        0.3, 0.5 * math.pi, math.pi, 2 * math.pi, 1e-8,
        math.pi + 1e-9, math.pi - 1e-9, math.pi - 1e-6, math.pi + 1e-3,
        2 * math.pi - 1e-7, 2 * math.pi - 1e-5, 2 * math.pi + 1e-12,
        3 * math.pi - 1e-10,
    ],
)
def test_finite_time_photon_number_matches_a_100_digit_reference(k0d):
    # near n*pi a collective rate and the dark-line detuning both go to
    # 0; a kernel that divides by either loses its digits right there
    params = _params(k0d)
    detectors = (
        params.omega_minus, params.omega_plus, 1.0, params.omega_minus + 0.5 * GAMMA,
        params.omega_plus - 2.0 * GAMMA,
    )
    times = np.linspace(0.0, 12.0, 11) / GAMMA
    for rho0 in (preset_state("E"), preset_state("A"), _random_density(7)):
        for omega in detectors:
            got = np.array([photon_number(rho0, params, F, omega, t) for t in times])
            want = np.array(
                [_mp_photon_number(rho0, params, F, omega, t) for t in times]
            )
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
