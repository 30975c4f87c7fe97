"""Numerical oracles: ODE integration, equal-time correlations, block exponentials.

The headline check integrates the propagator of the master-equation
Lindblad generator over a dense k0d grid with tight tolerances and
compares every element matrix against the closed forms -- the generator
is built from the guide-mediated couplings alone, so agreement here
validates both routes.
"""

import math
import time

import numpy as np
import pytest

from waveqed.core import (
    BASIS,
    PRESET_NAMES,
    TOTAL,
    Direction,
    SystemParams,
    preset_state,
)
import waveqed.oracle
from waveqed.oracle import (
    _SM1,
    _SM2,
    OdeConfig,
    OracleError,
    QuadratureConfig,
    _adjoint_generator,
    integrate_transition_odes,
    quadrature_rates,
    quadrature_spectrum,
)
from waveqed.observables import emission_rate
from waveqed.spectra import spectral_density
from waveqed.transition_operator import closed_form_state

GAMMA = 0.05

TIGHT = OdeConfig(method="DOP853", rel_tol=1e-11, abs_tol=1e-13, t_max=10.0)
#: the integrator settings of `waveqed validate`
VALIDATE = OdeConfig(method="DOP853", rel_tol=1e-11, abs_tol=1e-13, t_max=5.0)
SPACINGS = [(n + 1) * 0.25 * math.pi for n in range(8)]  # pi/4 .. 2*pi


def _params(k0d):
    return SystemParams(gamma_ratio=GAMMA, k0d=k0d)


@pytest.mark.parametrize("k0d", SPACINGS)
def test_closed_forms_match_ode_trajectories(k0d):
    params = _params(k0d)
    t_grid = np.array([0.0, 1.0, 5.0, 10.0]) / params.gamma
    states = integrate_transition_odes(params, TIGHT, t_grid)
    worst = 0.0
    for state in states:
        closed = closed_form_state(params, state.t).element_matrices()
        numeric = state.element_matrices()
        for key, mat in closed.items():
            worst = max(worst, float(np.max(np.abs(mat - numeric[key]))))
    assert worst < 1e-8


@pytest.mark.parametrize("k0d", SPACINGS)
def test_rotating_frame_ode_lands_within_1e_10(k0d):
    # off the 2 Omega clock, DOP853 at these tolerances meets the closed
    # forms to ~1e-11
    params = _params(k0d)
    t_grid = np.linspace(0.0, 5.0 / params.gamma, 11)
    worst = max(
        float(np.max(np.abs(closed_form_state(params, state.t).phi - state.phi)))
        for state in integrate_transition_odes(params, VALIDATE, t_grid)
    )
    assert worst <= 1e-10


def test_trace_identity_along_trajectory():
    params = _params(0.6 * math.pi)
    t_grid = np.linspace(0.0, 10.0 / params.gamma, 21)
    for state in integrate_transition_odes(params, OdeConfig(), t_grid):
        mats = state.element_matrices()
        # entry m of the diagonal: the weight of |m><m| summed over all P_ii
        columns = sum(mats[(i, i)] for i in BASIS).diagonal()
        assert np.max(np.abs(columns - 1.0)) < 1e-8


def test_generator_reproduces_rhs_on_generic_state():
    # L @ vec(X) against the Heisenberg-picture master equation written
    # out with plain 4x4 products, on a random non-Hermitian operator
    k0d = 1.1
    params = _params(k0d)
    L = _adjoint_generator(params)
    assert L.shape == (16, 16)
    with pytest.raises(ValueError):
        L[0, 0] = 0.0
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    # gamma_nm = Gamma cos(k0 d_nm), alpha_12 = alpha_21 = -(Gamma/2) sin k0d
    gamma_nm = GAMMA * np.array([[1.0, math.cos(k0d)], [math.cos(k0d), 1.0]])
    alpha = -0.5 * GAMMA * math.sin(k0d)
    sigma = (_SM1, _SM2)
    ham = sum(s.conj().T @ s for s in sigma) - alpha * (
        sigma[0].conj().T @ sigma[1] + sigma[1].conj().T @ sigma[0]
    )
    rhs = 1j * (ham @ x - x @ ham)
    for n, sn in enumerate(sigma):
        for m, sm in enumerate(sigma):
            ab = sn.conj().T @ sm
            rhs += gamma_nm[n, m] * (
                sn.conj().T @ x @ sm - 0.5 * (ab @ x + x @ ab)
            )
    assert np.max(np.abs(L @ x.ravel() - rhs.ravel())) < 1e-15
    # unital: the identity operator does not evolve
    assert np.max(np.abs(L @ np.eye(4).ravel())) < 1e-15


def test_oracle_shares_nothing_with_the_closed_forms():
    names = vars(waveqed.oracle)
    for name in (
        "closed_form_state",
        "population_elements",
        "coherence_elements",
        "_decay_exponents",
        "ode_rhs",
    ):
        assert name not in names, name


@pytest.mark.parametrize("method", ["RK45", "Radau", "BDF", "LSODA"])
def test_every_integrator_method_runs(method):
    # Radau and LSODA reject a complex state vector
    params = _params(1.1)
    cfg = OdeConfig(method=method, rel_tol=1e-8, abs_tol=1e-10, t_max=0.5)
    state = integrate_transition_odes(params, cfg, [0.0, 0.5 / params.gamma])[-1]
    closed = closed_form_state(params, state.t).element_matrices()
    numeric = state.element_matrices()
    assert max(float(np.max(np.abs(closed[k] - numeric[k]))) for k in closed) < 1e-5


def test_integration_input_validation():
    params = _params(1.0)
    cfg = OdeConfig()
    with pytest.raises(ValueError):
        integrate_transition_odes(params, cfg, [])
    with pytest.raises(ValueError):
        integrate_transition_odes(params, cfg, [1.0, 0.5])
    with pytest.raises(ValueError, match="horizon"):
        integrate_transition_odes(params, cfg, [0.0, 20.0 / params.gamma])
    # a NaN last time made the integrator spin without end, and a NaN
    # inside the grid dropped that time from the result
    for grid, bad in (([0.0, math.nan], "nan"), ([math.nan], "nan"),
                      ([0.0, 1.0, math.nan, 2.0], "nan"), ([0.0, math.inf], "inf"),
                      ([-1.0, 0.0], "-1.0")):
        with pytest.raises(ValueError, match=f"t_grid times must be finite and >= 0, got {bad}$"):
            integrate_transition_odes(params, cfg, grid)
    only_zero = integrate_transition_odes(params, cfg, [0.0])
    assert np.array_equal(only_zero[0].phi, np.eye(16))


def test_config_validation():
    with pytest.raises(ValueError):
        OdeConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        OdeConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(T=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(n_steps=32)


@pytest.mark.parametrize(
    "make, field",
    [
        # an infinite tolerance made the integration hang, an infinite
        # horizon made quadrature_spectrum return nan; only construct here
        (lambda: OdeConfig(rel_tol=math.inf), "rel_tol"),
        (lambda: OdeConfig(rel_tol=math.nan), "rel_tol"),
        (lambda: OdeConfig(abs_tol=math.inf), "abs_tol"),
        (lambda: OdeConfig(abs_tol=-1e-12), "abs_tol"),
        (lambda: OdeConfig(t_max=math.inf), "t_max"),
        (lambda: OdeConfig(t_max=math.nan), "t_max"),
        (lambda: QuadratureConfig(T=math.inf, n_steps=64), "T"),
        (lambda: QuadratureConfig(T=math.nan), "T"),
        (lambda: QuadratureConfig(n_steps=64.5), "n_steps"),
        (lambda: QuadratureConfig(n_steps=128.0), "n_steps"),
    ],
)
def test_config_rejects_non_finite_and_non_integer_values(make, field):
    with pytest.raises(ValueError, match=field):
        make()


def test_config_accepts_numpy_integer_steps():
    assert QuadratureConfig(n_steps=np.int64(64)).n_steps == 64


def test_correlation_equal_time_occupations():
    # <s_n^+ s_m> = tr(rho s_n^+ s_m) on the oracle's lowering operators:
    # the "eg" preset has qubit 1 excited
    cases = [
        ("E", 1, 1, 1.0),
        ("E", 2, 2, 1.0),
        ("S", 1, 2, 0.5),
        ("S", 2, 1, 0.5),
        ("eg", 1, 1, 1.0),
        ("eg", 2, 2, 0.0),
        ("G", 1, 1, 0.0),
    ]
    lowering = {1: _SM1, 2: _SM2}
    for name, n, m, want in cases:
        rho = preset_state(name).matrix()
        got = np.trace(rho @ lowering[n].conj().T @ lowering[m])
        assert got == pytest.approx(want, abs=1e-12), name


def test_quadrature_spectrum_matches_the_closed_form_near_dark_spacings():
    # the slowest bright channel decays at 5e-2 ... 5e-7 Gamma here, so
    # the horizon T_eff reaches 5.5e7/Gamma
    omegas = 1.0 + np.linspace(-5.0 * GAMMA, 5.0 * GAMMA, 11)
    for k0d in (1.9 * math.pi, 2 * math.pi - 0.2, 2 * math.pi + 0.05, 2 * math.pi + 1e-3):
        params = _params(k0d)
        for name in ("E", "eg", "s1e2"):
            rho0 = preset_state(name)
            want = spectral_density(rho0, params, Direction.FORWARD, omegas)
            got = quadrature_spectrum(
                rho0, params, Direction.FORWARD, omegas, QuadratureConfig(T=20.0)
            )
            gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert gap <= 1e-5, (k0d, name, gap)


@pytest.mark.parametrize("k0d", [math.pi, 2 * math.pi])
def test_dark_curves_are_exactly_dark(k0d):
    params = _params(k0d)
    omegas = 1.0 + np.linspace(-5.0 * GAMMA, 5.0 * GAMMA, 11)
    dark = 0
    for name in PRESET_NAMES:
        rho0 = preset_state(name)
        for direction in Direction:
            if np.any(spectral_density(rho0, params, direction, omegas)):
                continue
            dark += 1
            # exactly 0.0: no path of the block matrix reaches a dark
            # state, while unsnapped emission phases leave ~1e-28
            got = quadrature_spectrum(rho0, params, direction, omegas)
            assert not np.any(got), (name, direction, got)
    assert dark == 4  # G, and S at pi or A at 2*pi, both ways


def test_quadrature_spectrum_array_matches_scalars():
    params = _params(2 * math.pi)
    rho0 = preset_state("S")
    omegas = np.array([0.95, 1.0, 1.05])
    cfg = QuadratureConfig(T=20.0, n_steps=512)
    vec = quadrature_spectrum(rho0, params, Direction.BACKWARD, omegas, cfg)
    for w, v in zip(omegas, vec):
        assert quadrature_spectrum(
            rho0, params, Direction.BACKWARD, float(w), cfg
        ) == pytest.approx(v, rel=1e-14)


def test_quadrature_rates_track_closed_rates():
    cfg = QuadratureConfig(T=10.0, n_steps=256)
    for name, k0d, direction in [
        ("S", 2 * math.pi, Direction.FORWARD),
        ("eg", 0.5 * math.pi, Direction.FORWARD),
        ("eg", 0.5 * math.pi, Direction.BACKWARD),
    ]:
        params = _params(k0d)
        rho0 = preset_state(name)
        t_grid, w_num = quadrature_rates(rho0, params, direction, cfg)
        assert t_grid[0] == 0.0
        for idx in (0, 7, 50, 199):
            want = emission_rate(rho0, params, float(t_grid[idx]), direction)
            assert w_num[idx] == pytest.approx(want, rel=1e-8, abs=1e-13)


def test_spectrum_refuses_spacings_too_close_to_dark():
    # 2*pi + 1e-6: Gamma_min/Gamma = 5e-13 makes ||M||_1 T_eff ~ 2e15;
    # unchecked, the block exponential lands 1e-3 off, and from 1e-9 rad
    # on it returns NaN
    params = _params(2 * math.pi + 1e-6)
    start = time.perf_counter()
    with pytest.raises(OracleError) as info:
        quadrature_spectrum(preset_state("S"), params, Direction.FORWARD, 1.0)
    assert time.perf_counter() - start < 1.0
    message = str(info.value)
    assert "Gamma_min/Gamma = 5e-13" in message
    assert "T_eff" in message


def test_spectrum_names_a_non_finite_frequency():
    # NaN used to pass on to the horizon check and be refused as "too
    # close to dark", which says nothing about the input
    params = _params(0.5 * math.pi)
    for omega, bad in ((math.nan, "nan"), (np.array([1.0, math.inf, math.nan]), "inf")):
        with pytest.raises(ValueError, match=f"omega must be finite, got {bad}$"):
            quadrature_spectrum(preset_state("eg"), params, Direction.FORWARD, omega)


@pytest.mark.parametrize("direction", [TOTAL, "Forward", None])
def test_oracle_names_a_bad_direction(direction):
    # TOTAL used to fail with an AttributeError on its missing sign
    params, rho0 = _params(1.0), preset_state("eg")
    message = f"direction must be a Direction, got {direction!r}"
    with pytest.raises(ValueError) as exc:
        quadrature_spectrum(rho0, params, direction, 1.0)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        quadrature_rates(rho0, params, direction, QuadratureConfig(n_steps=64))
    assert str(exc.value) == message


def test_spectrum_is_finite_or_refused_at_every_distance_from_dark():
    rho0 = preset_state("eg")
    omegas = np.array([1.0 - GAMMA, 1.0, 1.0 + GAMMA])
    refused = set()
    for delta in [10.0**-k for k in range(1, 16)] + [3e-6]:
        for sign in (-1.0, 1.0):
            params = _params(2 * math.pi + sign * delta)
            try:
                got = quadrature_spectrum(rho0, params, Direction.FORWARD, omegas)
            except OracleError:
                refused.add(delta)
                continue
            # an answer is a right answer (1e-7 here at worst)
            want = spectral_density(rho0, params, Direction.FORWARD, omegas)
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(want), (delta, sign)
    # refused within 1e-5 rad, answered again once the spacing snaps onto
    # 2*pi itself, below 1e-12
    near = {10.0**-k for k in range(6, 12)} | {3e-6}
    assert near <= refused <= near | {1e-5, 1e-12}


def test_rates_keep_the_requested_grid():
    # at 2*pi a spectrum needs a longer horizon than T; the rates grid
    # stays the caller's
    cfg = QuadratureConfig(T=10.0, n_steps=256)
    params = _params(2 * math.pi)
    t_grid, w = quadrature_rates(preset_state("E"), params, Direction.FORWARD, cfg)
    assert t_grid.size == w.size == 257
    assert t_grid[-1] == pytest.approx(10.0 / GAMMA, rel=1e-15)
