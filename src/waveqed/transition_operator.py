"""Vacuum-averaged transition operators for two qubits in the guide.

The Heisenberg-picture transition operator P_ij(t) (initially |i><j|),
averaged over the photon vacuum, is a 4x4 matrix in the (G, E, S, A)
basis.  All sixteen of them are held in one 16x16 complex matrix, the
propagator Phi(t) of the oracle's Lindblad generator: column 4i + j of
Phi is the row-major vec of <P_ij(t)>, so Phi[4m + n, 4i + j] is the
weight of the dyad |m><n| inside <P_ij(t)>.  Phi(0) is the identity.

Most of Phi is zero.  Its diagonal block Phi[::5, ::5] holds the
populations,

    <P_ii(t)>  =  sum_m  c_im(t) |m><m|,

and the coherences <P_ij(t)>, i != j, carry a coefficient on |i><j|
plus, for the ground-excited pairs (G,A) and (G,S), a second dyad fed
by cascade decay; <P_ji> is the adjoint of <P_ij>.

This module provides the exact closed-form coefficients and the state
object that carries Phi.  The population coefficients broadcast over
an array of times, which is all the emission rates and transition
probabilities need; the state object holds one scalar time.  It holds
no equations of motion: the oracle derives its own from the Lindblad
generator of the waveguide master equation and reads its integrated
Phi back through TransitionOperatorState.from_vector, so the two routes
share no algebra, only the layout.

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
    OMEGA,
    SystemParams,
    collective_rates,
    everywhere,
    first_failure,
    phase_factors,
)

# positions in BASIS
_G, _E, _S, _A = range(4)


def _check_time(t):
    # one comparison pair covers negative, infinite and NaN entries alike
    ok = (t >= 0.0) & (t < INF)
    if not everywhere(ok):
        raise ValueError(f"t must be finite and >= 0, got {first_failure(t, ok)}")
    return t


def population_elements(params: SystemParams, t) -> np.ndarray:
    """Coefficients of each |m><m| inside <P_ii(t)> for all i, m.

    Returns an array of shape (4, 4) + shape(t), indexed [i, m] in BASIS
    order.  The columns sum to 1 over i for every dyad m (completeness
    of the transition operators), which the tests assert.
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
    return np.array([
        [one, (1.0 - u) - feed_s - feed_a, 1.0 - p, 1.0 - m_],
        [zero, u, zero, zero],
        [zero, feed_s, p, zero],
        [zero, feed_a, zero, m_],
    ])


@dataclass(frozen=True, eq=False)
class TransitionOperatorState:
    """All transition operators at one time, as the propagator Phi(t).

    phi: 16x16 complex matrix whose column 4i + j is the row-major vec
        of <P_ij(t)>, with i, j in BASIS order.
    """

    t: float
    phi: np.ndarray

    def to_vector(self) -> np.ndarray:
        """Flatten to a real vector of 512 entries: Re Phi, then Im Phi."""
        return np.concatenate((self.phi.real.ravel(), self.phi.imag.ravel()))

    @classmethod
    def from_vector(cls, t: float, vec: np.ndarray) -> "TransitionOperatorState":
        """Inverse of to_vector, exact to the bit."""
        phi = np.empty((16, 16), dtype=complex)
        phi.real, phi.imag = np.reshape(vec, (2, 16, 16))
        return cls(t=t, phi=phi)

    def element_matrices(self) -> dict:
        """4x4 matrix of every <P_ij(t)> in the (G, E, S, A) basis.

        All 16 ordered pairs are present, keyed (i, j) by DickeState.
        """
        cols = self.phi.T.reshape(4, 4, 4, 4)
        return {
            (i, j): cols[a, b] for a, i in enumerate(BASIS) for b, j in enumerate(BASIS)
        }


def closed_form_state(params: SystemParams, t: float) -> TransitionOperatorState:
    """Exact coefficients at one scalar time t, packaged as a state object."""
    _check_time(t)
    g = params.gamma
    _c, s = phase_factors(params.k0d)
    r = collective_rates(params)
    gp, gm = r.gamma_plus, r.gamma_minus
    z_ae = 1j * r.omega_plus + 0.5 * gm + g
    z_se = 1j * r.omega_minus + 0.5 * gp + g
    z_ga = 1j * r.omega_minus + 0.5 * gm
    z_gs = 1j * r.omega_plus + 0.5 * gp
    phi = np.zeros((16, 16), dtype=complex)
    phi[::5, ::5] = population_elements(params, t).T
    # (i, j, m, n, weight of |m><n| inside <P_ij>) for the six independent
    # coherences; <P_ji> is the adjoint
    for i, j, m, n, coef in (
        (_G, _E, _G, _E, np.exp(-(2j * OMEGA + g) * t)),
        (_A, _S, _A, _S, np.exp(-g * (1.0 + 1j * s) * t)),
        (_A, _E, _A, _E, np.exp(-z_ae * t)),
        (_S, _E, _S, _E, np.exp(-z_se * t)),
        (_G, _A, _G, _A, np.exp(-z_ga * t)),
        (_G, _A, _A, _E, gm * dexp(z_ae, z_ga, t)),
        (_G, _S, _G, _S, np.exp(-z_gs * t)),
        (_G, _S, _S, _E, -gp * dexp(z_se, z_gs, t)),
    ):
        phi[4 * m + n, 4 * i + j] = coef
        phi[4 * n + m, 4 * j + i] = np.conj(coef)
    return TransitionOperatorState(t=float(t), phi=phi)
