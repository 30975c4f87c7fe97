"""Guide-mediated coupling matrices of the two qubits."""

import math

import numpy as np
import pytest

from waveqed.core import SystemParams
from waveqed.coupling import coupling_matrices

GAMMA = 0.05


def test_two_qubit_matrices_match_phase_factors():
    d = 1.3
    params = SystemParams(gamma_ratio=GAMMA, k0d=d)
    m = coupling_matrices(params)
    g = params.gamma
    assert m.gamma_nm.shape == (2, 2)
    assert m.gamma_nm[0, 0] == g
    assert m.gamma_nm[1, 1] == g
    assert m.gamma_nm[0, 1] == pytest.approx(g * math.cos(d), rel=1e-15)
    assert m.alpha_nm[0, 0] == 0.0
    assert m.alpha_nm[0, 1] == pytest.approx(-0.5 * g * math.sin(d), rel=1e-15)
    assert np.array_equal(m.gamma_nm, m.gamma_nm.T)
    assert np.array_equal(m.alpha_nm, m.alpha_nm.T)


@pytest.mark.parametrize("n, want_c", [(1, -1.0), (2, 1.0), (3, -1.0)])
def test_multiples_of_pi_land_exactly(n, want_c):
    params = SystemParams(gamma_ratio=GAMMA, k0d=n * math.pi)
    m = coupling_matrices(params)
    assert m.gamma_nm[0, 1] == want_c * params.gamma
    assert m.alpha_nm[0, 1] == 0.0


def test_outputs_are_write_protected():
    params = SystemParams(gamma_ratio=GAMMA, k0d=1.0)
    m = coupling_matrices(params)
    with pytest.raises(ValueError):
        m.gamma_nm[0, 0] = 0.0
