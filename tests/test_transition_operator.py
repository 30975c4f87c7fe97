"""Closed-form transition-operator elements.

The load-bearing checks: completeness (columns of the population map sum
to one), the closed forms actually solving the waveguide master equation
(centered finite difference against the oracle's Lindblad generator), and
continuity straight across the degenerate k0d = n*pi points where the
naive formulas would be 0/0.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from waveqed.cli import RunConfig
from waveqed.core import BASIS, BASIS_INDEX, DickeState, SystemParams
from waveqed.oracle import _adjoint_generator
from waveqed.transition_operator import (
    TransitionOperatorState,
    _cached_table,
    _population_table,
    closed_form_state,
    population_elements,
)

GAMMA = 0.05
G, E, S, A = DickeState.G, DickeState.E, DickeState.S, DickeState.A
IG, IE, IS, IA = (BASIS_INDEX[x] for x in (G, E, S, A))

K0D_GRID = [0.25 * math.pi, 0.5 * math.pi, math.pi, 1.3, 1.5 * math.pi, 2 * math.pi]
T_GRID = [0.0, 2.0, 7.0, 30.0, 120.0]  # absolute times; Gamma*t up to 6


def _params(k0d):
    return SystemParams(gamma_ratio=GAMMA, k0d=k0d)


@pytest.mark.parametrize(
    "k0d", [0.3, 0.5 * math.pi, math.pi, 1.3, 1.9 * math.pi, 2 * math.pi,
            2 * math.pi + 1e-7]
)
@pytest.mark.parametrize("gt", [0.0, 0.5, 2.0, 5.0, 9.0])
def test_propagator_is_the_matrix_exponential(k0d, gt):
    # the whole 16x16 matrix, so every entry the closed form leaves at
    # zero must be zero in exp(L t) as well
    params = _params(k0d)
    t = gt / params.gamma
    phi = closed_form_state(params, t).phi
    assert phi.shape == (16, 16)
    assert np.max(np.abs(phi - expm(_adjoint_generator(params) * t))) <= 1e-13


def test_initial_state_is_identity():
    state = closed_form_state(_params(1.3), 0.0)
    assert np.array_equal(state.phi, np.eye(16))
    mats = state.element_matrices()
    total = sum(mats[(i, i)] for i in BASIS)
    assert np.array_equal(total, np.eye(4))


@pytest.mark.parametrize("k0d", K0D_GRID)
@pytest.mark.parametrize("t", T_GRID)
def test_population_completeness_and_range(k0d, t):
    pops = population_elements(_params(k0d), t)
    assert pops.shape == (4, 4)
    assert np.max(np.abs(pops.sum(axis=0) - 1.0)) <= 1e-12
    assert np.all((-1e-12 <= pops) & (pops <= 1.0 + 1e-12))


@pytest.mark.parametrize("t", [0.0, 4.0, 10.0, 40.0])
def test_dicke_point_degenerate_feeds(t):
    g = GAMMA
    pops = population_elements(_params(2 * math.pi), t)
    # the symmetric channel at its bright point: linear-in-t feeding
    assert pops[IS, IE] == pytest.approx(2.0 * g * t * np.exp(-2.0 * g * t), abs=1e-15)
    assert pops[IA, IA] == 1.0  # dark channel frozen
    assert pops[IA, IE] == 0.0
    pops_pi = population_elements(_params(math.pi), t)
    assert pops_pi[IA, IE] == pytest.approx(2.0 * g * t * np.exp(-2.0 * g * t), abs=1e-15)
    assert pops_pi[IS, IS] == 1.0
    assert pops_pi[IS, IE] == 0.0


def test_dicke_point_coherences():
    t = 9.0
    mats = closed_form_state(_params(2 * math.pi), t).element_matrices()
    # S-A coherence decays at the plain single-qubit rate, no phase
    assert mats[(A, S)][IA, IS] == pytest.approx(math.exp(-GAMMA * t), rel=1e-14)
    ge = mats[(G, E)][IG, IE]
    assert abs(ge) == pytest.approx(math.exp(-GAMMA * t), rel=1e-13)
    # double-excitation phase rotates at 2*Omega
    assert np.angle(ge) == pytest.approx(
        math.remainder(-2.0 * t, 2.0 * math.pi), rel=1e-12
    )


def test_conjugate_elements_are_adjoints():
    state = closed_form_state(_params(1.3), 11.0)
    mats = state.element_matrices()
    assert len(mats) == 16
    for i in BASIS:
        for j in BASIS:
            assert np.array_equal(mats[(j, i)], mats[(i, j)].conj().T)
    total = sum(mats[(i, i)] for i in BASIS)
    assert np.max(np.abs(total - np.eye(4))) <= 1e-12


def test_vector_round_trip():
    state = closed_form_state(_params(0.7 * math.pi), 17.0)
    vec = state.to_vector()
    assert vec.shape == (512,)
    assert vec.dtype == float
    back = TransitionOperatorState.from_vector(state.t, vec)
    assert back.t == state.t
    assert back.phi.tobytes() == state.phi.tobytes()


@pytest.mark.parametrize("k0d", [0.25 * math.pi, math.pi, 1.3, 2 * math.pi])
@pytest.mark.parametrize("t", [0.5, 7.0, 30.0])
def test_closed_forms_solve_the_odes(k0d, t):
    # centered difference of the closed-form element matrices against the
    # Lindblad generator applied to the full 4x4 matrices; a weight the
    # true evolution puts where the closed form holds a zero shows up as
    # a nonzero derivative there
    params = _params(k0d)
    L = _adjoint_generator(params)
    h = 1e-5
    lo = closed_form_state(params, t - h).element_matrices()
    hi = closed_form_state(params, t + h).element_matrices()
    now = closed_form_state(params, t).element_matrices()
    for key, mat in now.items():
        fd = (hi[key] - lo[key]) / (2.0 * h)
        rhs = (L @ mat.ravel()).reshape(4, 4)
        assert np.max(np.abs(fd - rhs)) <= 1e-8, key


@pytest.mark.parametrize("n", [1, 2])
def test_continuity_across_the_degenerate_points(n):
    # the snapped point must agree with the smooth branch evaluated just
    # off it; populations are phase-free and land much tighter than the
    # Omega-oscillating coherences
    t = 1.0 / GAMMA
    seam = n * math.pi
    at = closed_form_state(_params(seam), t)
    for off in (-1e-4, 1e-4):
        near = closed_form_state(_params(seam + off), t)
        assert np.max(np.abs(at.phi[::5, ::5] - near.phi[::5, ::5])) <= 1e-6
        mats_at = at.element_matrices()
        mats_near = near.element_matrices()
        worst = max(
            float(np.max(np.abs(mats_at[key] - mats_near[key]))) for key in mats_at
        )
        assert worst <= 5e-4


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        population_elements(_params(1.0), -0.1)
    with pytest.raises(ValueError):
        closed_form_state(_params(1.0), -1e-9)


@pytest.mark.parametrize(
    "t", [math.nan, math.inf, np.array([0.0, math.nan]), np.array([1.0, math.inf])]
)
def test_non_finite_time_rejected(t):
    with pytest.raises(ValueError, match="t must be finite"):
        population_elements(_params(1.0), t)
    with pytest.raises(ValueError, match="t must be finite"):
        closed_form_state(_params(1.0), t)


def test_time_rejection_names_the_first_bad_value():
    t = np.concatenate([np.linspace(0.0, 100.0, 1000), [-2.0, math.nan]])
    with pytest.raises(ValueError) as exc:
        population_elements(_params(1.0), t)
    assert str(exc.value) == "t must be finite and >= 0, got -2.0"


@pytest.mark.parametrize("t", [[0.0, 2.0, 7.0], (0, 2, 7.0)])
def test_population_elements_takes_a_list_as_its_array(t):
    params = _params(1.0)
    expected = population_elements(params, np.array(t, dtype=float))
    assert population_elements(params, t).tobytes() == expected.tobytes()


def test_scalar_tables_are_shared_read_only_and_bounded():
    params = _params(1.0)
    expected = population_elements(params, 1.0).tobytes()
    # the public kernel hands out a new array each call, free to write
    population_elements(params, 1.0)[:] = 7.0
    assert population_elements(params, 1.0).tobytes() == expected
    table = _population_table(params, 1.0)
    assert table.tobytes() == expected
    assert _population_table(params, np.float64(1.0)) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 7.0
    # one CLI-default time grid fits, so a loop over t per curve hits
    assert _cached_table.cache_parameters()["maxsize"] >= RunConfig.t_points


def test_uncached_times_keep_their_bits():
    params = _params(1.0)
    # +0.0 and -0.0 are one cache key but differ in the sign of the feeds
    _population_table(params, 0.0)
    minus_zero = _population_table(params, -0.0)
    assert minus_zero.tobytes() == population_elements(params, -0.0).tobytes()
    assert math.copysign(1.0, minus_zero[IS, IE]) == -1.0
    for t in (np.float32(1.5), 2, np.int64(3)):
        table = _population_table(params, t)
        assert table.flags.writeable
        assert table.tobytes() == population_elements(params, t).tobytes()
