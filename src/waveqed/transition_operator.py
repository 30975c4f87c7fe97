"""Vacuum-averaged transition operators for two qubits in the guide.

The Heisenberg-picture transition operator P_ij(t) (initially |i><j|)
stays, after averaging over the photon vacuum, inside a small fixed set
of Dicke dyads:

    populations  <P_ii(t)>  =  sum_m  c_im(t) |m><m|
    coherences   <P_ij(t)>  =  coefficient on |i><j| plus, for the
                               ground-excited pairs (G,A) and (G,S), a
                               second dyad fed by cascade decay.

This module provides the exact closed-form coefficients and the state
object that carries them.  The population coefficients broadcast over
an array of times, which is all the emission rates and transition
probabilities need; the coherences and the state object hold one
scalar time.  It holds no equations of motion: the oracle
derives its own from the Lindblad generator of the waveguide master
equation, so the two routes share no algebra.

Every coefficient is a function of Gamma, the collective rates
Gamma(1 +- cos k0d), the shifted frequencies Omega +- (Gamma/2) sin k0d,
and t.  The closed forms use cancellation-free exponential primitives,
so no special-casing near k0d = n*pi is needed: the degenerate limits
(e.g. the 2*Gamma*t*e^{-2*Gamma*t} feeding of the symmetric state at
k0d = 2*pi) come out exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._stable import INF, dexp
from .core import (
    BASIS,
    BASIS_INDEX,
    OMEGA,
    DickeState,
    SystemParams,
    collective_rates,
    everywhere,
    phase_factors,
)

_G = DickeState.G
_E = DickeState.E
_S = DickeState.S
_A = DickeState.A

#: dyad support of each independent coherence element <P_ij>; the
#: conjugate elements (j, i) are always derived, never recomputed
COHERENCE_SUPPORT = {
    (_G, _E): ((_G, _E),),
    (_A, _S): ((_A, _S),),
    (_A, _E): ((_A, _E),),
    (_S, _E): ((_S, _E),),
    (_G, _A): ((_G, _A), (_A, _E)),
    (_G, _S): ((_G, _S), (_S, _E)),
}

#: flattening order for the 16 real population coefficients
_POP_SLOTS = tuple((i, m) for i in BASIS for m in BASIS)
#: flattening order for the 8 complex coherence coefficients
_COH_SLOTS = tuple(
    (pair, dyad) for pair, support in COHERENCE_SUPPORT.items() for dyad in support
)

#: real dimension of the full coefficient vector (16 + 2*8)
STATE_DIM = len(_POP_SLOTS) + 2 * len(_COH_SLOTS)


def _check_time(t):
    # one comparison pair covers negative, infinite and NaN entries alike
    if not everywhere((t >= 0.0) & (t < INF)):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    return t


def population_elements(params: SystemParams, t) -> dict:
    """Coefficients of each |m><m| inside <P_ii(t)> for all i, m.

    Returns {i: {m: coefficient}} with all 16 entries present, each a
    float for scalar t or an array shaped like t.  The columns sum to 1
    over i for every dyad m (completeness of the transition operators),
    which the tests assert.
    """
    _check_time(t)
    g = params.gamma
    r = collective_rates(params)
    gp, gm = r.gamma_plus, r.gamma_minus
    a = gp / g  # 1 + cos k0d, without cancellation
    b = gm / g  # 1 - cos k0d
    u = np.exp(-2.0 * g * t)
    p = np.exp(-gp * t)
    m_ = np.exp(-gm * t)
    # feeding of S and A from the doubly excited state; dexp keeps these
    # exact through the gamma_plus -> 2*Gamma (and gamma_minus -> 0)
    # degeneracies at k0d = n*pi
    feed_s = np.real(-a * g * dexp(2.0 * g, gp, t))
    feed_a = np.real(-b * g * dexp(2.0 * g, gm, t))
    zero = 0.0 * u
    one = zero + 1.0
    return {
        _E: {_G: zero, _E: u, _S: zero, _A: zero},
        _S: {_G: zero, _E: feed_s, _S: p, _A: zero},
        _A: {_G: zero, _E: feed_a, _S: zero, _A: m_},
        _G: {
            _G: one,
            _E: (1.0 - u) - feed_s - feed_a,
            _S: 1.0 - p,
            _A: 1.0 - m_,
        },
    }


def _independent_coherences(params: SystemParams, t: float) -> dict:
    """Closed forms of the six independent off-diagonal elements."""
    g = params.gamma
    _c, s = phase_factors(params.k0d)
    r = collective_rates(params)
    gp, gm = r.gamma_plus, r.gamma_minus
    z_ae = 1j * r.omega_plus + 0.5 * gm + g
    z_se = 1j * r.omega_minus + 0.5 * gp + g
    z_ga = 1j * r.omega_minus + 0.5 * gm
    z_gs = 1j * r.omega_plus + 0.5 * gp
    return {
        (_G, _E): {(_G, _E): complex(np.exp(-(2j * OMEGA + g) * t))},
        (_A, _S): {(_A, _S): complex(np.exp(-g * (1.0 + 1j * s) * t))},
        (_A, _E): {(_A, _E): complex(np.exp(-z_ae * t))},
        (_S, _E): {(_S, _E): complex(np.exp(-z_se * t))},
        (_G, _A): {
            (_G, _A): complex(np.exp(-z_ga * t)),
            (_A, _E): complex(gm * dexp(z_ae, z_ga, t)),
        },
        (_G, _S): {
            (_G, _S): complex(np.exp(-z_gs * t)),
            (_S, _E): complex(-gp * dexp(z_se, z_gs, t)),
        },
    }


@dataclass(frozen=True)
class TransitionOperatorState:
    """All independent transition-operator coefficients at one time.

    populations: {i: {m: real}} covering the 16 diagonal coefficients.
    coherences: {(i, j): {(m, n): complex}} over the six independent
        off-diagonal elements and their dyad support.
    """

    t: float
    populations: dict
    coherences: dict

    def to_vector(self) -> np.ndarray:
        """Flatten to a real vector (populations, then Re/Im of coherences)."""
        v = np.empty(STATE_DIM)
        for idx, (i, m) in enumerate(_POP_SLOTS):
            v[idx] = self.populations[i][m]
        base = len(_POP_SLOTS)
        for idx, (pair, dyad) in enumerate(_COH_SLOTS):
            z = self.coherences[pair][dyad]
            v[base + 2 * idx] = z.real
            v[base + 2 * idx + 1] = z.imag
        return v

    @classmethod
    def from_vector(cls, t: float, vec: np.ndarray) -> "TransitionOperatorState":
        pops: dict = {i: {} for i in BASIS}
        for idx, (i, m) in enumerate(_POP_SLOTS):
            pops[i][m] = float(vec[idx])
        base = len(_POP_SLOTS)
        coh: dict = {pair: {} for pair in COHERENCE_SUPPORT}
        for idx, (pair, dyad) in enumerate(_COH_SLOTS):
            coh[pair][dyad] = complex(vec[base + 2 * idx], vec[base + 2 * idx + 1])
        return cls(t=t, populations=pops, coherences=coh)

    def element_matrices(self) -> dict:
        """4x4 matrix of every <P_ij(t)> in the (G, E, S, A) basis.

        All 16 ordered pairs are present; conjugate elements are the
        matrix adjoints of their independent partners.
        """
        mats = {}
        for i in BASIS:
            m = np.zeros((4, 4), dtype=complex)
            for dyad_state, coef in self.populations[i].items():
                idx = BASIS_INDEX[dyad_state]
                m[idx, idx] = coef
            mats[(i, i)] = m
        for pair, support in self.coherences.items():
            m = np.zeros((4, 4), dtype=complex)
            for (dm, dn), coef in support.items():
                m[BASIS_INDEX[dm], BASIS_INDEX[dn]] = coef
            mats[pair] = m
            mats[(pair[1], pair[0])] = m.conj().T
        return mats


def closed_form_state(params: SystemParams, t: float) -> TransitionOperatorState:
    """Exact coefficients at one scalar time t, packaged as a state object."""
    return TransitionOperatorState(
        t=float(_check_time(t)),
        populations=population_elements(params, t),
        coherences=_independent_coherences(params, t),
    )
