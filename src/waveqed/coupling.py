"""Dissipative and coherent inter-qubit couplings mediated by the guide.

For the two qubits at x = (0, k0d) (in units of 1/k0) the exchange of
guided photons produces a correlated-decay matrix gamma_nm = Gamma
cos(k0 d_nm) and a coherent frequency-shift matrix alpha_nm = -(Gamma/2)
sin(k0 d_nm) (off-diagonal only), with d_nm the pairwise distance.
These rotating-wave forms are the standard Markovian result; they are
accurate once the separation exceeds about a quarter wavelength, and no
retardation correction is applied below that.

The oracle builds its Lindblad generator from these matrices: gamma_nm
weights the dissipator, and alpha_nm enters the Hamiltonian with a minus
sign, H = Omega sum_n s_n^+ s_n - sum_{n != m} alpha_nm s_n^+ s_m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SystemParams, phase_factors


@dataclass(frozen=True)
class CouplingMatrices:
    """2 x 2 correlated-decay (gamma_nm) and frequency-shift (alpha_nm) matrices."""

    gamma_nm: np.ndarray
    alpha_nm: np.ndarray


def coupling_matrices(params: SystemParams) -> CouplingMatrices:
    """Evaluate both coupling matrices for the qubits at x = (0, k0d).

    The phase factors are snapped by phase_factors, which makes the
    multiples-of-pi geometries (pure Dicke case, dark spacings) land
    exactly on their limits.  Both matrices are read-only.
    """
    g = params.gamma
    c, s = phase_factors(params.k0d)
    gamma = np.array([[g, g * c], [g * c, g]])
    alpha = np.array([[0.0, -0.5 * g * s], [-0.5 * g * s, 0.0]])
    gamma.flags.writeable = False
    alpha.flags.writeable = False
    return CouplingMatrices(gamma_nm=gamma, alpha_nm=alpha)
