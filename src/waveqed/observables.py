"""Transition probabilities, emission rates, and radiated energy.

The one-direction emission rate is a weighted sum of the instantaneous
Dicke occupations,

    W_dir(t) = Gamma <P_EE> + (Gamma_+/2) <P_SS> + (Gamma_-/2) <P_AA>
               - Gamma * s_dir * Im[ <P_AS coefficient> * pSA ],

with s_dir = +-sin k0d flipping sign between the two propagation
directions.  Only the last term is direction sensitive; "Total" is the
sum over both directions, which doubles the symmetric part and cancels
the interference.  All rate curves reported by the CLI divide by Gamma.

Rates and transition probabilities take t as a scalar or as an array
of times and return a float or an array shaped like t; one call
computes a whole curve.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BASIS_INDEX,
    TOTAL,
    DickeDensity,
    DickeState,
    Direction,
    SystemParams,
    collective_rates,
    phase_factors,
)
from .transition_operator import population_elements

_E = BASIS_INDEX[DickeState.E]
_S = BASIS_INDEX[DickeState.S]
_A = BASIS_INDEX[DickeState.A]


def transition_probability(
    initial: DickeState, final: DickeState, params: SystemParams, t
):
    """Probability that a system prepared in |initial> is found in |final>.

    Read off the closed-form transition-operator coefficients: the
    weight of the |initial><initial| dyad inside <P_final,final(t)>.
    t may be an array of times.
    """
    value = population_elements(params, t)[BASIS_INDEX[final], BASIS_INDEX[initial]]
    # rounding dust from the feed terms near t = 0 becomes +0.0
    dust = (-1e-12 < value) & (value < 0.0)
    return value - value * dust


def emission_rate(rho0: DickeDensity, params: SystemParams, t, direction=TOTAL):
    """Photon emission rate at time t into one direction, or their sum.

    Linear in the five contributing density-matrix entries (pEE, pSS,
    pAA and the S-A coherence); every other entry is dark.  A ground
    state simply returns 0.  t may be an array of times.
    """
    if direction is TOTAL:
        return emission_rate(rho0, params, t, Direction.FORWARD) + emission_rate(
            rho0, params, t, Direction.BACKWARD
        )
    if not isinstance(direction, Direction):
        raise ValueError(f"direction must be a Direction or TOTAL, got {direction!r}")
    g = params.gamma
    r = collective_rates(params)
    pops = population_elements(params, t)
    occ_e = pops[_E, _E] * rho0.pEE
    occ_s = pops[_S, _S] * rho0.pSS + pops[_S, _E] * rho0.pEE
    occ_a = pops[_A, _A] * rho0.pAA + pops[_A, _E] * rho0.pEE
    w = g * occ_e + 0.5 * r.gamma_plus * occ_s + 0.5 * r.gamma_minus * occ_a
    _c, s = phase_factors(params.k0d)
    s_dir = direction.sign * s
    if s_dir != 0.0 and rho0.pSA != 0:
        # coefficient of |A><S| inside <P_AS(t)>
        coh_as = np.exp(-g * (1.0 + 1j * s) * t)
        w -= g * s_dir * np.imag(coh_as * rho0.pSA)
    return w


def radiated_energy(
    rho0: DickeDensity, params: SystemParams, direction=TOTAL
) -> float:
    """Total quanta emitted into a direction over an infinite horizon.

    Closed-form time integral of emission_rate.  Components sitting in
    a channel whose collective rate is exactly zero never radiate and
    contribute nothing; the doubly excited part always radiates one
    quantum per direction because its two-step cascades re-balance
    exactly as one channel freezes.
    """
    if direction is TOTAL:
        return radiated_energy(rho0, params, Direction.FORWARD) + radiated_energy(
            rho0, params, Direction.BACKWARD
        )
    if not isinstance(direction, Direction):
        raise ValueError(f"direction must be a Direction or TOTAL, got {direction!r}")
    r = collective_rates(params)
    c, s = phase_factors(params.k0d)
    a = 1.0 + c
    b = 1.0 - c
    # per direction: 1/2 direct + a/4 via S + b/4 via A = 1 for any k0d
    energy = rho0.pEE * (0.5 + 0.25 * a + 0.25 * b)
    if r.gamma_plus > 0.0:
        energy += 0.5 * rho0.pSS
    if r.gamma_minus > 0.0:
        energy += 0.5 * rho0.pAA
    s_dir = direction.sign * s
    if s_dir != 0.0 and rho0.pSA != 0:
        sa = rho0.pSA
        energy -= s_dir * (sa.imag - s * sa.real) / (1.0 + s * s)
    return float(energy)
