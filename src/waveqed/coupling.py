"""Dissipative and coherent inter-qubit couplings mediated by the guide.

For qubits at positions x_n (in units of 1/k0) the exchange of guided
photons produces a correlated-decay matrix gamma_nm = Gamma cos(k0 d_nm)
and a coherent frequency-shift matrix alpha_nm = -(Gamma/2) sin(k0 d_nm)
(off-diagonal only), with d_nm the pairwise distance.  These rotating-
wave forms are the standard Markovian result; they are accurate once the
separation exceeds about a quarter wavelength, and no retardation
correction is applied below that.

The oracle builds its Lindblad generator from these matrices: gamma_nm
weights the dissipator, and alpha_nm enters the Hamiltonian with a minus
sign, H = Omega sum_n s_n^+ s_n - sum_{n != m} alpha_nm s_n^+ s_m.
Spectra and rates elsewhere in the package are specialized to N = 2;
the matrices here are general-N because they cost nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SystemParams, phase_factors


@dataclass(frozen=True)
class QubitArray:
    """Qubit coordinates along the waveguide, in units of 1/k0."""

    positions: tuple

    def __post_init__(self) -> None:
        pos = tuple(float(x) for x in self.positions)
        if len(pos) < 1:
            raise ValueError("QubitArray needs at least one qubit")
        if not all(math.isfinite(x) for x in pos):
            raise ValueError(f"qubit positions must be finite, got {pos}")
        object.__setattr__(self, "positions", pos)

    @property
    def count(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class CouplingMatrices:
    """N x N correlated-decay (gamma_nm) and frequency-shift (alpha_nm) matrices."""

    gamma_nm: np.ndarray
    alpha_nm: np.ndarray


def coupling_matrices(array: QubitArray, params: SystemParams) -> CouplingMatrices:
    """Evaluate both coupling matrices for the given qubit positions.

    Positions are in units of 1/k0, so the phase of a pair is just its
    coordinate distance.  The same trig snapping as phase_factors is
    applied per pair, which makes the multiples-of-pi geometries (pure
    Dicke case, dark spacings) land exactly on their limits.
    """
    n = array.count
    g = params.gamma
    gamma = np.zeros((n, n))
    alpha = np.zeros((n, n))
    for i in range(n):
        gamma[i, i] = g
        for j in range(i + 1, n):
            c, s = phase_factors(abs(array.positions[i] - array.positions[j]))
            gamma[i, j] = gamma[j, i] = g * c
            alpha[i, j] = alpha[j, i] = -0.5 * g * s
    gamma.flags.writeable = False
    alpha.flags.writeable = False
    return CouplingMatrices(gamma_nm=gamma, alpha_nm=alpha)
