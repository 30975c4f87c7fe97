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

from waveqed.core import BASIS, DickeState, SystemParams
from waveqed.oracle import _adjoint_generator
from waveqed.transition_operator import (
    COHERENCE_SUPPORT,
    STATE_DIM,
    TransitionOperatorState,
    closed_form_state,
    coherence_elements,
    population_elements,
)

GAMMA = 0.05
G, E, S, A = DickeState.G, DickeState.E, DickeState.S, DickeState.A

K0D_GRID = [0.25 * math.pi, 0.5 * math.pi, math.pi, 1.3, 1.5 * math.pi, 2 * math.pi]
T_GRID = [0.0, 2.0, 7.0, 30.0, 120.0]  # absolute times; Gamma*t up to 6


def _params(k0d):
    return SystemParams(gamma_ratio=GAMMA, k0d=k0d)


def test_state_dimension_and_support_layout():
    assert STATE_DIM == 32
    assert COHERENCE_SUPPORT[(G, A)] == ((G, A), (A, E))
    assert COHERENCE_SUPPORT[(G, S)] == ((G, S), (S, E))
    for pair in ((G, E), (A, S), (A, E), (S, E)):
        assert COHERENCE_SUPPORT[pair] == (pair,)


def test_initial_state_is_identity():
    state = TransitionOperatorState.initial()
    for i in BASIS:
        for m in BASIS:
            assert state.populations[i][m] == (1.0 if i is m else 0.0)
    for pair, support in COHERENCE_SUPPORT.items():
        for dyad in support:
            assert state.coherences[pair][dyad] == (1.0 if dyad == pair else 0.0)
    mats = state.element_matrices()
    total = sum(mats[(i, i)] for i in BASIS)
    assert np.array_equal(total, np.eye(4))


@pytest.mark.parametrize("k0d", K0D_GRID)
@pytest.mark.parametrize("t", T_GRID)
def test_population_completeness_and_range(k0d, t):
    pops = population_elements(_params(k0d), t)
    for m in BASIS:
        column = sum(pops[i][m] for i in BASIS)
        assert abs(column - 1.0) <= 1e-12
    for i in BASIS:
        for m in BASIS:
            assert -1e-12 <= pops[i][m] <= 1.0 + 1e-12


@pytest.mark.parametrize("t", [0.0, 4.0, 10.0, 40.0])
def test_dicke_point_degenerate_feeds(t):
    g = GAMMA
    pops = population_elements(_params(2 * math.pi), t)
    # the symmetric channel at its bright point: linear-in-t feeding
    assert pops[S][E] == pytest.approx(2.0 * g * t * np.exp(-2.0 * g * t), abs=1e-15)
    assert pops[A][A] == 1.0  # dark channel frozen
    assert pops[A][E] == 0.0
    pops_pi = population_elements(_params(math.pi), t)
    assert pops_pi[A][E] == pytest.approx(2.0 * g * t * np.exp(-2.0 * g * t), abs=1e-15)
    assert pops_pi[S][S] == 1.0
    assert pops_pi[S][E] == 0.0


def test_dicke_point_coherences():
    t = 9.0
    coh = coherence_elements(_params(2 * math.pi), t)
    # S-A coherence decays at the plain single-qubit rate, no phase
    assert coh[(A, S)][(A, S)] == pytest.approx(math.exp(-GAMMA * t), rel=1e-14)
    ge = coh[(G, E)][(G, E)]
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
    assert vec.shape == (STATE_DIM,)
    back = TransitionOperatorState.from_vector(state.t, vec)
    assert back.populations == state.populations
    assert back.coherences == state.coherences


@pytest.mark.parametrize("k0d", [0.25 * math.pi, math.pi, 1.3, 2 * math.pi])
@pytest.mark.parametrize("t", [0.5, 7.0, 30.0])
def test_closed_forms_solve_the_odes(k0d, t):
    # centered difference of the closed-form element matrices against the
    # Lindblad generator applied to the full 4x4 matrices; a weight the
    # true evolution puts outside COHERENCE_SUPPORT shows up as a nonzero
    # derivative where the closed form has none
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
        for i in BASIS:
            for m in BASIS:
                assert abs(at.populations[i][m] - near.populations[i][m]) <= 1e-6
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

