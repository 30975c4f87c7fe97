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
computes a whole curve.  Scalar calls at one (params, t) share one
population table, held in a fixed-size cache with nothing to set.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BASIS,
    BASIS_INDEX,
    TOTAL,
    DickeDensity,
    DickeState,
    Direction,
    SystemParams,
    real_values,
)
from .transition_operator import _population_table

_E = BASIS_INDEX[DickeState.E]
_S = BASIS_INDEX[DickeState.S]
_A = BASIS_INDEX[DickeState.A]


def _basis_index(name: str, state) -> int:
    try:
        return BASIS_INDEX[state]
    except (KeyError, TypeError):  # TypeError: an unhashable argument
        valid = ", ".join(str(member) for member in BASIS)
        raise ValueError(f"{name} must be one of {valid}, got {state!r}") from None


def transition_probability(
    initial: DickeState, final: DickeState, params: SystemParams, t
):
    """Probability that a system prepared in |initial> is found in |final>.

    Read off the closed-form transition-operator coefficients: the
    weight of the |initial><initial| dyad inside <P_final,final(t)>.
    t may be an array of times.
    """
    i, f = _basis_index("initial", initial), _basis_index("final", final)
    value = _population_table(params, t)[f, i]
    # rounding dust from the feed terms near t = 0 becomes +0.0
    dust = (-1e-12 < value) & (value < 0.0)
    return value - value * dust


def emission_rate(rho0: DickeDensity, params: SystemParams, t, direction=TOTAL):
    """Photon emission rate at time t into one direction, or their sum.

    Linear in the five contributing density-matrix entries (pEE, pSS,
    pAA and the S-A coherence); every other entry is dark.  A ground
    state simply returns 0.  t may be an array of times.
    """
    if direction is not TOTAL and not isinstance(direction, Direction):
        raise ValueError(f"direction must be a Direction or TOTAL, got {direction!r}")
    t = real_values("t", t, lower=0.0)
    g, s = params.gamma, params.sin_k0d
    pops = _population_table(params, t)
    occ_e = pops[_E, _E] * rho0.pEE
    occ_s = pops[_S, _S] * rho0.pSS + pops[_S, _E] * rho0.pEE
    occ_a = pops[_A, _A] * rho0.pAA + pops[_A, _E] * rho0.pEE
    w = g * occ_e + 0.5 * params.gamma_plus * occ_s + 0.5 * params.gamma_minus * occ_a
    # coefficient of |A><S| inside <P_AS(t)>; the lobe enters the forward
    # rate with -sin k0d and the backward one with +sin k0d
    coh_as = np.exp(-g * (1.0 + 1j * s) * t)
    # real arithmetic: numpy rounds complex products of arrays and scalars apart
    lobe = g * s * (coh_as.real * rho0.pSA.imag + coh_as.imag * rho0.pSA.real)
    if direction is TOTAL:
        return (w - lobe) + (w + lobe)
    return w - direction.sign * lobe


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
    s, sa = params.sin_k0d, rho0.pSA
    # per direction: 1/2 direct + (1 + cos k0d)/4 via S + (1 - cos k0d)/4 via A = 1
    energy = rho0.pEE
    if params.gamma_plus > 0.0:
        energy += 0.5 * rho0.pSS
    if params.gamma_minus > 0.0:
        energy += 0.5 * rho0.pAA
    energy -= direction.sign * s * (sa.imag - s * sa.real) / (1.0 + s * s)
    return float(energy)
