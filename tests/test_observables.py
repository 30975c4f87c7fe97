"""Emission rates, radiated energy, and transition probabilities.

Superposition initial states must be exact linear combinations of the
basis-state curves -- the observables are linear in the initial density
matrix, so these identities hold to rounding, not to a tolerance of the
physics.
"""

import math

import numpy as np
import pytest

from waveqed.core import (
    TOTAL,
    DickeState,
    Direction,
    SystemParams,
    preset_state,
)
from waveqed.observables import (
    emission_rate,
    radiated_energy,
    transition_probability,
)

GAMMA = 0.05
G, E, S, A = DickeState.G, DickeState.E, DickeState.S, DickeState.A
F, B = Direction.FORWARD, Direction.BACKWARD

T_GRID = [0.0, 3.0, 10.0, 31.0, 100.0]  # absolute; Gamma*t up to 5


def _params(k0d):
    return SystemParams(gamma_ratio=GAMMA, k0d=k0d)


@pytest.mark.parametrize("t", T_GRID)
def test_superradiant_rate_is_twofold_single_qubit_decay(t):
    params = _params(2 * math.pi)
    w = emission_rate(preset_state("S"), params, t, F)
    assert w == GAMMA * np.exp(-2.0 * GAMMA * t)
    assert emission_rate(preset_state("S"), params, t, B) == w


@pytest.mark.parametrize("t", T_GRID)
def test_dark_states_do_not_radiate(t):
    assert emission_rate(preset_state("A"), _params(2 * math.pi), t, TOTAL) == 0.0
    assert emission_rate(preset_state("S"), _params(math.pi), t, TOTAL) == 0.0


@pytest.mark.parametrize("t", T_GRID)
def test_doubly_excited_rate_at_the_dicke_point(t):
    params = _params(2 * math.pi)
    want = (1.0 + 2.0 * GAMMA * t) * GAMMA * np.exp(-2.0 * GAMMA * t)
    for direction in (F, B):
        got = emission_rate(preset_state("E"), params, t, direction)
        assert got == pytest.approx(want, rel=1e-12)
    assert emission_rate(preset_state("E"), params, t, TOTAL) == pytest.approx(
        2.0 * want, rel=1e-12
    )


@pytest.mark.parametrize("t", T_GRID)
def test_one_qubit_excited_mirror_asymmetry(t):
    # at quarter-wavelength spacing the first-excited-qubit state beams
    # backward; forward emission carries the (1 - sin) suppression
    params = _params(0.5 * math.pi)
    eg = preset_state("eg")
    envelope = 0.5 * GAMMA * np.exp(-GAMMA * t)
    assert emission_rate(eg, params, t, F) == pytest.approx(
        envelope * (1.0 - math.sin(GAMMA * t)), rel=1e-12, abs=1e-300
    )
    assert emission_rate(eg, params, t, B) == pytest.approx(
        envelope * (1.0 + math.sin(GAMMA * t)), rel=1e-12
    )
    # swapping which qubit is excited swaps the directions exactly
    ge = preset_state("ge")
    assert emission_rate(ge, params, t, B) == emission_rate(eg, params, t, F)
    assert emission_rate(ge, params, t, F) == emission_rate(eg, params, t, B)


@pytest.mark.parametrize("k0d", [0.5 * math.pi, 1.25 * math.pi, 2 * math.pi])
@pytest.mark.parametrize("t", T_GRID)
@pytest.mark.parametrize("direction", [F, B, TOTAL])
def test_superposition_rates_are_linear_combinations(k0d, t, direction):
    params = _params(k0d)

    def w(name):
        return emission_rate(preset_state(name), params, t, direction)

    assert w("s1g2") == pytest.approx(0.5 * w("eg"), rel=1e-12, abs=1e-300)
    assert w("s1e2") == pytest.approx(
        0.5 * w("E") + 0.5 * w("ge"), rel=1e-12, abs=1e-300
    )
    assert w("s1s2") == pytest.approx(
        0.25 * w("E") + 0.5 * w("S"), rel=1e-12, abs=1e-300
    )


@pytest.mark.parametrize("k0d", [0.5 * math.pi, 0.8, 1.7 * math.pi])
@pytest.mark.parametrize("t", T_GRID)
def test_interference_cancels_in_the_direction_sum(k0d, t):
    params = _params(k0d)
    eg_total = emission_rate(preset_state("eg"), params, t, TOTAL)
    incoherent = 0.5 * (
        emission_rate(preset_state("S"), params, t, TOTAL)
        + emission_rate(preset_state("A"), params, t, TOTAL)
    )
    assert eg_total == pytest.approx(incoherent, rel=1e-12)
    both = emission_rate(preset_state("eg"), params, t, F) + emission_rate(
        preset_state("eg"), params, t, B
    )
    assert eg_total == pytest.approx(both, rel=1e-15)


def test_radiated_energy_closed_forms():
    half = _params(0.5 * math.pi)
    assert radiated_energy(preset_state("E"), half, F) == pytest.approx(1.0, rel=1e-14)
    assert radiated_energy(preset_state("E"), half, B) == pytest.approx(1.0, rel=1e-14)
    assert radiated_energy(preset_state("E"), half, TOTAL) == pytest.approx(
        2.0, rel=1e-14
    )
    # the doubly excited cascade emits one per direction at every k0d
    for k0d in (0.25 * math.pi, math.pi, 1.9, 2 * math.pi):
        assert radiated_energy(preset_state("E"), _params(k0d), F) == pytest.approx(
            1.0, rel=1e-14
        )
    assert radiated_energy(preset_state("S"), half, F) == pytest.approx(0.5, rel=1e-14)
    assert radiated_energy(preset_state("S"), _params(math.pi), TOTAL) == 0.0
    assert radiated_energy(preset_state("A"), _params(2 * math.pi), TOTAL) == 0.0
    # mirror beaming: three quarters of the excitation exits backward
    assert radiated_energy(preset_state("eg"), half, F) == pytest.approx(
        0.25, rel=1e-14
    )
    assert radiated_energy(preset_state("eg"), half, B) == pytest.approx(
        0.75, rel=1e-14
    )
    assert radiated_energy(preset_state("eg"), half, TOTAL) == pytest.approx(
        1.0, rel=1e-14
    )
    # at the Dicke point half of the eg excitation is trapped in the
    # frozen antisymmetric channel
    assert radiated_energy(preset_state("eg"), _params(2 * math.pi), TOTAL) == (
        pytest.approx(0.5, rel=1e-14)
    )


def test_transition_probabilities_from_the_doubly_excited_state():
    params = _params(2 * math.pi)
    t_half = 0.5 / GAMMA
    assert transition_probability(E, S, params, t_half) == pytest.approx(
        math.exp(-1.0), rel=1e-13
    )
    assert transition_probability(E, A, params, t_half) == 0.0
    for t in T_GRID:
        total = sum(transition_probability(E, final, params, t) for final in (G, E, S, A))
        assert total == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("k0d", [0.25 * math.pi, math.pi, 1.3, 2 * math.pi])
@pytest.mark.parametrize("t", T_GRID)
def test_symmetric_antisymmetric_channels_never_mix(k0d, t):
    params = _params(k0d)
    assert transition_probability(S, A, params, t) == 0.0
    assert transition_probability(A, S, params, t) == 0.0


def test_symmetric_decay_probability():
    params = _params(0.5 * math.pi)
    t = 13.0
    gp = GAMMA  # Gamma*(1 + cos pi/2)
    assert transition_probability(S, G, params, t) == pytest.approx(
        1.0 - math.exp(-gp * t), rel=1e-13
    )
    assert transition_probability(S, S, params, t) == pytest.approx(
        math.exp(-gp * t), rel=1e-13
    )


def test_probability_clamps_rounding_dust():
    # feed terms can round to tiny negatives at t = 0+; never below zero
    for k0d in (0.5 * math.pi, 2 * math.pi):
        p = transition_probability(E, S, _params(k0d), 1e-300)
        assert p >= 0.0


def test_rate_argument_validation():
    params = _params(1.0)
    rho0 = preset_state("E")
    with pytest.raises(ValueError):
        emission_rate(rho0, params, -1.0, F)
    with pytest.raises(ValueError):
        emission_rate(rho0, params, 1.0, "forward")
    with pytest.raises(ValueError):
        radiated_energy(rho0, params, "Total")


@pytest.mark.parametrize(
    "t", [math.nan, math.inf, -1.0, np.array([0.0, 3.0, math.nan]), np.array([math.inf])]
)
def test_non_finite_or_negative_time_rejected(t):
    params = _params(1.0)
    for direction in (F, B, TOTAL):
        with pytest.raises(ValueError, match="t must be finite"):
            emission_rate(preset_state("eg"), params, t, direction)
    with pytest.raises(ValueError, match="t must be finite"):
        transition_probability(E, S, params, t)
