"""Independent numerical routes to every closed-form result.

Everything here starts from one object, the adjoint (Heisenberg-picture)
Lindblad generator of the standard waveguide master equation
(Lalumiere et al., PRA 88, 043806, 2013), built from the coupling
matrices gamma_nm, alpha_nm of coupling.py and the bare lowering
operators of the two qubits:

    dX/dt = i[H, X] + sum_nm gamma_nm (s_n^+ X s_m - {s_n^+ s_m, X}/2),
    H = Omega sum_n s_n^+ s_n - sum_{n != m} alpha_nm s_n^+ s_m.

With row-major vec, vec(A X B) = kron(A, B.T) @ vec(X), this is a 16x16
complex matrix L, and the propagator Phi(t) = exp(L t) carries every
vacuum-averaged transition operator: column 4i+j of Phi(t) is
vec(<P_ij(t)>).  No closed-form coefficient is used on the way.

The bare part H0 = Omega sum_n s_n^+ s_n has a diagonal superoperator
L0 that commutes with L (the excitation number is conserved; checked
entry by entry), so exp(L t) = exp(L0 t) exp((L - L0) t), and both
routes below work in that rotating frame, off the 2 Omega clock.

* integrate_transition_odes drives Phi with an adaptive integrator and
  returns each Phi(t) as a TransitionOperatorState (this layout).

* quadrature_spectrum rebuilds the spectrum from two-time correlations
  via the quantum regression rule: the photon number at the horizon T,

      N(omega, T) = 2 Gamma Re int_0^T ds int_0^s dtau
                    r0^T exp(L tau) R exp((L - i omega)(s - tau)) v,

  is one block of the exponential of a 33x33 block-triangular matrix
  (Van Loan, IEEE TAC 23, 395, 1978; scipy's expm after Al-Mohy &
  Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009), with no grid.
  quadrature_rates takes the equal-time correlation on a grid, with Phi
  stepped exactly by powers of exp(L h).

Times handed to these functions are absolute (units of 1/Omega), like
everywhere else in the package; the config horizons T and t_max are in
units of 1/Gamma, matching how results are plotted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .core import (
    OMEGA,
    DickeDensity,
    Direction,
    SystemParams,
    collective_rates,
    phase_factors,
)
from .coupling import coupling_matrices
from .transition_operator import TransitionOperatorState

_SQ2 = 1.0 / math.sqrt(2.0)

# bare lowering operators of the individual qubits in the (G, E, S, A)
# basis; qubit 1 and 2 differ by the sign convention of |A>
_SM1 = np.zeros((4, 4), dtype=complex)
_SM1[0, 2] = _SQ2
_SM1[0, 3] = -_SQ2
_SM1[2, 1] = _SQ2
_SM1[3, 1] = _SQ2
_SM2 = np.zeros((4, 4), dtype=complex)
_SM2[0, 2] = _SQ2
_SM2[0, 3] = _SQ2
_SM2[2, 1] = _SQ2
_SM2[3, 1] = -_SQ2
_SM1.flags.writeable = False
_SM2.flags.writeable = False

# bare Hamiltonian H0 = Omega sum_n s_n^+ s_n, diagonal in (G, E, S, A), and
# the diagonal l0 of its superoperator L0 = i(kron(H0, I) - kron(I, H0^T))
_H0 = OMEGA * (_SM1.conj().T @ _SM1 + _SM2.conj().T @ _SM2)
_L0 = 1j * np.subtract.outer(_H0.diagonal(), _H0.diagonal()).ravel()
_L0.flags.writeable = False

#: quadrature_spectrum refuses where ||M||_1 T_eff exceeds this; 1e-4 rad
#: from n*pi it is 2e11 with the spectrum good to 1e-7, 1e-6 rad away the
#: error passes 1e-3, and from 1e-9 rad on expm returns NaN
MAX_NORM_HORIZON = 1e13
# rows per product in quadrature_rates; 256 rows wake a second BLAS thread
_ROWS = 64


class OracleError(RuntimeError):
    """A numerical cross-check could not produce a trustworthy number."""


def _require_finite_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class OdeConfig:
    """Integrator settings for the transition-operator equations.

    t_max is the allowed horizon in units of 1/Gamma; asking for a grid
    past it is rejected rather than silently extrapolated.
    """

    method: str = "RK45"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_max: float = 10.0

    def __post_init__(self) -> None:
        # solve_ivp does not return under rel_tol = inf
        for name in ("rel_tol", "abs_tol", "t_max"):
            _require_finite_positive(name, getattr(self, name))


@dataclass(frozen=True)
class QuadratureConfig:
    """Horizons of the spectrum and rate oracles.

    T (units 1/Gamma) is the minimum horizon of quadrature_spectrum and
    the end of the rates grid; n_steps sets only that grid.
    """

    T: float = 40.0
    n_steps: int = 4096

    def __post_init__(self) -> None:
        _require_finite_positive("quadrature horizon T", self.T)
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 64):
            raise ValueError(f"n_steps must be an integer >= 64, got {self.n_steps!r}")


# one entry: an ODE check with its rates and spectra stays at one spacing
@lru_cache(maxsize=1)
def _adjoint_generator(params: SystemParams) -> np.ndarray:
    """16x16 matrix L with d vec(X)/dt = L @ vec(X) for Heisenberg operators X.

    Row-major vec throughout, so vec(A X B) = kron(A, B.T) @ vec(X).
    The coherent exchange alpha_nm enters H with a minus sign.  Each entry
    (l0_i - l0_j) L_ij of [L0, L] must be exactly 0.0.  Read-only.
    """
    cm = coupling_matrices(params)
    lowering = (_SM1, _SM2)
    eye = np.eye(4)
    ham = _H0
    gen = np.zeros((16, 16), dtype=complex)
    for n, sn in enumerate(lowering):
        for m, sm in enumerate(lowering):
            a, b = sn.conj().T, sm
            ab = a @ b
            if n != m:
                ham = ham - cm.alpha_nm[n, m] * ab
            gen += cm.gamma_nm[n, m] * (
                np.kron(a, b.T) - 0.5 * np.kron(ab, eye) - 0.5 * np.kron(eye, ab.T)
            )
    gen += 1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    if np.any(np.subtract.outer(_L0, _L0) * gen):
        raise OracleError("[L0, L] != 0: the generator does not conserve the "
                          "excitation number, so the rotating frame does not apply")
    gen.flags.writeable = False
    return gen


def integrate_transition_odes(
    params: SystemParams, config: OdeConfig, t_grid
) -> list:
    """Numerically integrate the propagator of all elements over t_grid.

    t_grid holds absolute times, sorted and nonnegative.  The integrator
    solves dPhi~/dt = (L - L0) Phi~ in the frame of the bare Hamiltonian,
    and Phi(t) = diag(exp(l0 t)) Phi~(t) is exact.  Returns one
    TransitionOperatorState per grid time.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a nonempty 1D sequence of times")
    if t[0] < 0.0:
        raise ValueError(f"t_grid times must be nonnegative, got {t[0]}")
    if np.any(np.diff(t) < 0.0):
        raise ValueError("t_grid must be sorted in increasing order")
    if params.gamma * t[-1] > config.t_max * (1.0 + 1e-12):
        raise ValueError(
            f"t_grid reaches Gamma*t = {params.gamma * t[-1]:.6g}, "
            f"past the configured horizon t_max = {config.t_max:g}"
        )
    if t[-1] == 0.0:
        return [TransitionOperatorState(float(ti), np.eye(16, dtype=complex))
                for ti in t]
    # real block form [Re Phi~; Im Phi~], so every solve_ivp method applies
    slow = _adjoint_generator(params) - np.diag(_L0)
    real_gen = np.block([[slow.real, -slow.imag], [slow.imag, slow.real]])
    sol = solve_ivp(
        lambda _t, y: (real_gen @ y.reshape(32, 16)).ravel(), (0.0, float(t[-1])),
        TransitionOperatorState(0.0, np.eye(16, dtype=complex)).to_vector(),
        t_eval=t, method=config.method, rtol=config.rel_tol, atol=config.abs_tol,
    )
    if not sol.success:
        t_last = sol.t[-1] if sol.t.size else 0.0
        raise OracleError(f"ODE integration stalled at Gamma*t = "
                          f"{params.gamma * t_last:.6g}: {sol.message}")
    # back to the lab frame: Phi(t) = diag(exp(l0 t)) Phi~(t)
    slow_states = map(TransitionOperatorState.from_vector, sol.t.tolist(), sol.y.T)
    return [TransitionOperatorState(st.t, np.exp(_L0 * st.t)[:, None] * st.phi)
            for st in slow_states]


def _state_vec(rho0: DickeDensity) -> np.ndarray:
    """r0 = vec(rho0^T), so that r0 @ Phi(t) = vec(rho(t)^T)."""
    return rho0.matrix().T.ravel()


def _emission_vectors(params: SystemParams, direction: Direction) -> tuple:
    """(v, R) of the emitted field in one direction, qubits at x = (0, k0d).

    v = sum_n e^{i k x_n} vec(s_n^+) and R = sum_m e^{-i k x_m} kron(I, s_m^T),
    i.e. vec(X) -> vec(X sum_m e^{-i k x_m} s_m).  The phase is snapped with
    phase_factors, like the couplings, so dark lines come out exactly dark.
    """
    c, s = phase_factors(params.k0d)
    lowering = _SM1 + complex(c, -direction.sign * s) * _SM2  # sum_m e^{-i k x_m} s_m
    return lowering.conj().T.ravel(), np.kron(np.eye(4), lowering.T)


def _gamma_min(params: SystemParams) -> float:
    """Smallest nonzero collective rate; an exactly dark channel never emits."""
    r = collective_rates(params)
    return min(g for g in (r.gamma_plus, r.gamma_minus) if g > 0.0)


def _photon_number(
    rho0: DickeDensity, params: SystemParams, direction: Direction, omegas, t: float
) -> np.ndarray:
    """N(omega, t) of the mode (direction, omega), one block exponential per omega.

    By Van Loan, expm(M t) with M = [[0, v^T, 0], [0, (L - i omega)^T, R^T],
    [0, 0, L^T]] holds the transposed nested integral of the module
    docstring in its top-right block.  v lies where l0 = i Omega and R
    maps it to where l0 = 0, so M is built from L - L0 and omega - Omega,
    which halves ||M||_1 and, 1e-4 rad from 2*pi, cuts the error eightfold.
    """
    slow = _adjoint_generator(params) - np.diag(_L0)
    v, R = _emission_vectors(params, direction)
    m = np.zeros((omegas.size, 33, 33), dtype=complex)
    m[:, 0, 1:17] = v
    m[:, 1:17, 1:17] = slow.T - 1j * (omegas[:, None, None] - OMEGA) * np.eye(16)
    m[:, 1:17, 17:] = R.T
    m[:, 17:, 17:] = slow.T
    m *= t
    norm = float(np.abs(m).sum(axis=-2).max())
    where = (f"Gamma_min/Gamma = {_gamma_min(params) / params.gamma:.3g}, "
             f"Gamma T_eff = {params.gamma * t:.3g}")
    if not norm <= MAX_NORM_HORIZON:
        raise OracleError(
            f"||M||_1 T_eff = {norm:.3g} > {MAX_NORM_HORIZON:.0e} at {where}: the slowest "
            "bright channel is too close to dark for the block exponential"
        )
    values = 2.0 * params.gamma * np.real(expm(m)[:, 0, 17:] @ _state_vec(rho0))
    if not np.all(np.isfinite(values)):
        raise OracleError(f"block exponential not finite at {where}")
    return values


def quadrature_spectrum(
    rho0: DickeDensity,
    params: SystemParams,
    direction: Direction,
    omega,
    config: QuadratureConfig = QuadratureConfig(),
):
    """Emission spectrum as the photon number at the horizon T_eff.

    T_eff = max(T/Gamma, 2 ln(1e6)/Gamma_min): the t -> inf spectrum is
    reached once every bright channel has rung down to ~1e-6.  Within
    about 1e-5 rad of n*pi that horizon is too long for the block
    exponential, and OracleError names Gamma_min/Gamma and T_eff.  omega
    may be a scalar or an array.
    """
    omegas = np.atleast_1d(np.asarray(omega, dtype=float))
    t_eff = max(config.T / params.gamma, 2.0 * math.log(1e6) / _gamma_min(params))
    values = _photon_number(rho0, params, direction, omegas, t_eff)
    return float(values[0]) if np.isscalar(omega) else values


def quadrature_rates(
    rho0: DickeDensity,
    params: SystemParams,
    direction: Direction,
    config: QuadratureConfig = QuadratureConfig(),
) -> tuple:
    """(t_grid, W(t)) at t_j = j T/(Gamma n_steps), j = 0 .. n_steps.

    The one-direction emission rate is the equal-time correlation
    W(t) = (Gamma/2) Re r0^T Phi(t) R v.  Phi(t_j) R v is the j-th power
    of one exact step exp(L h) applied to R v, taken by doubling up to
    _ROWS rows and then _ROWS rows per batched product.
    """
    n = config.n_steps
    h = config.T / params.gamma / n
    v, R = _emission_vectors(params, direction)
    y = np.empty((n + 1, 16), dtype=complex)  # y[j] = Phi(t_j) R v
    y[0] = R @ v
    done, width, power = 1, 1, expm(_adjoint_generator(params) * h)
    while done <= n:  # power = Phi(width h)
        count = min(width, n + 1 - done)
        y[done:done + count] = y[done - width:done - width + count] @ power.T
        done += count
        if width < _ROWS:
            width, power = 2 * width, power @ power
    # einsum, not y @ r0: BLAS threads a matrix-vector product this long
    return np.arange(n + 1) * h, 0.5 * params.gamma * np.real(
        np.einsum("jk,k->j", y, _state_vec(rho0)))
