"""Numerical oracles: ODE integration, regression correlations, quadrature.

The headline check integrates the propagator of the master-equation
Lindblad generator over a dense k0d grid with tight tolerances and
compares every element matrix against the closed forms -- the generator
is built from the coupling matrices alone, so agreement here validates
both routes.
"""

import math
import time

import numpy as np
import pytest

from waveqed.core import (
    BASIS,
    DickeState,
    Direction,
    SystemParams,
    preset_state,
)
import waveqed.oracle
from waveqed.coupling import QubitArray, coupling_matrices
from waveqed.oracle import (
    _SM1,
    _SM2,
    MAX_GRID_POINTS,
    OdeConfig,
    OracleError,
    QuadratureConfig,
    _adjoint_generator,
    _kernel_tables,
    correlation_function,
    integrate_transition_odes,
    quadrature_rates,
    quadrature_spectrum,
)
from waveqed.observables import emission_rate
from waveqed.spectra import spectral_density
from waveqed.transition_operator import closed_form_state

GAMMA = 0.05
G, E, S, A = DickeState.G, DickeState.E, DickeState.S, DickeState.A

TIGHT = OdeConfig(method="DOP853", rel_tol=1e-11, abs_tol=1e-13, t_max=10.0)


def _params(k0d):
    return SystemParams(gamma_ratio=GAMMA, k0d=k0d)


@pytest.mark.parametrize(
    "k0d", [(n + 1) * 0.25 * math.pi for n in range(8)]  # pi/4 .. 2*pi
)
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


def test_trace_identity_along_trajectory():
    params = _params(0.6 * math.pi)
    t_grid = np.linspace(0.0, 10.0 / params.gamma, 21)
    for state in integrate_transition_odes(params, OdeConfig(), t_grid):
        for m in BASIS:
            column = sum(state.populations[i][m] for i in BASIS)
            assert abs(column - 1.0) < 1e-8


def test_generator_reproduces_rhs_on_generic_state():
    # L @ vec(X) against the Heisenberg-picture master equation written
    # out with plain 4x4 products, on a random non-Hermitian operator
    params = _params(1.1)
    L = _adjoint_generator(params)
    assert L.shape == (16, 16)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    cm = coupling_matrices(QubitArray((0.0, 1.1)), params)
    sigma = (_SM1, _SM2)
    ham = sum(s.conj().T @ s for s in sigma) - cm.alpha_nm[0, 1] * (
        sigma[0].conj().T @ sigma[1] + sigma[1].conj().T @ sigma[0]
    )
    rhs = 1j * (ham @ x - x @ ham)
    for n, sn in enumerate(sigma):
        for m, sm in enumerate(sigma):
            ab = sn.conj().T @ sm
            rhs += cm.gamma_nm[n, m] * (
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
        integrate_transition_odes(params, cfg, [-1.0, 0.0])
    with pytest.raises(ValueError):
        integrate_transition_odes(params, cfg, [1.0, 0.5])
    with pytest.raises(ValueError, match="horizon"):
        integrate_transition_odes(params, cfg, [0.0, 20.0 / params.gamma])
    only_zero = integrate_transition_odes(params, cfg, [0.0])
    assert only_zero[0].populations[E][E] == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        OdeConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        OdeConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(T=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(n_steps=32)


def test_correlation_equal_time_occupations():
    params = _params(0.5 * math.pi)
    cases = [
        ("E", 1, 1, 1.0),
        ("E", 2, 2, 1.0),
        ("S", 1, 2, 0.5),
        ("S", 2, 1, 0.5),
        ("eg", 1, 1, 1.0),
        ("eg", 2, 2, 0.0),
        ("G", 1, 1, 0.0),
    ]
    for name, n, m, want in cases:
        got = correlation_function(n, m, 0.0, 0.0, preset_state(name), params)
        assert got == pytest.approx(want, abs=1e-12), name


def test_correlation_conjugate_branches_agree():
    params = _params(0.3 * math.pi)
    rho0 = preset_state("eg")
    a = correlation_function(1, 2, 9.0, 4.0, rho0, params)
    b = correlation_function(2, 1, 4.0, 9.0, rho0, params)
    assert a == pytest.approx(b.conjugate(), rel=1e-12, abs=1e-300)
    # equal times: both orderings are literally the same number
    c = correlation_function(1, 2, 6.0, 6.0, rho0, params)
    d = correlation_function(2, 1, 6.0, 6.0, rho0, params)
    assert c == pytest.approx(d.conjugate(), rel=1e-12, abs=1e-300)


def test_correlation_argument_validation():
    params = _params(1.0)
    rho0 = preset_state("E")
    with pytest.raises(ValueError):
        correlation_function(0, 1, 1.0, 0.0, rho0, params)
    with pytest.raises(ValueError):
        correlation_function(1, 2, -1.0, 0.0, rho0, params)


def test_quadrature_spectrum_converges_quadratically():
    params = _params(0.5 * math.pi)
    rho0 = preset_state("eg")
    omega = 1.0 + GAMMA
    want = spectral_density(rho0, params, Direction.FORWARD, omega)
    errs = []
    for n in (256, 512):
        got = quadrature_spectrum(
            rho0, params, Direction.FORWARD, omega, QuadratureConfig(T=20.0, n_steps=n)
        )
        errs.append(abs(got - want))
    assert errs[1] < errs[0] / 3.0  # trapezoid: ideally /4
    assert errs[1] < 1e-3 * abs(want)


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


def test_grid_past_the_cap_raises_before_building_tables():
    # 2*pi + 0.05: Gamma_min/Gamma = 1.25e-3 asks for 2,264,005 points,
    # about 11.6 GB of tables
    params = _params(2 * math.pi + 0.05)
    misses = _kernel_tables.cache_info().misses
    start = time.perf_counter()
    with pytest.raises(OracleError) as info:
        quadrature_spectrum(preset_state("S"), params, Direction.FORWARD, 1.0)
    assert time.perf_counter() - start < 1.0
    assert _kernel_tables.cache_info().misses == misses
    message = str(info.value)
    assert "n_eff = 2.264e+06" in message
    assert "Gamma_min/Gamma = 0.00125" in message
    assert "1.16e+04 MB" in message
    assert str(MAX_GRID_POINTS) in message
    with pytest.raises(OracleError, match="n_eff"):
        quadrature_rates(preset_state("S"), params, Direction.FORWARD)
