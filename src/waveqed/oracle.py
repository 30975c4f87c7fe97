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

* integrate_transition_odes drives dPhi/dt = L Phi with an adaptive
  integrator and hands each Phi(t) back as a TransitionOperatorState,
  whose layout is this one.

* quadrature_spectrum rebuilds the emission spectrum from two-time
  qubit correlations via the quantum regression rule, then a
  brute-force 2D trapezoid over (tau, tau').  On the uniform grid the
  propagator is exact: one matrix exponential exp(L h) (Al-Mohy &
  Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009) and repeated
  products.  The kernel only depends on the time lag through the
  propagated raising operator and on the base time through the evolved
  density matrix, so the double sum collapses to prefix sums over the
  base index -- an O(n) reformulation of the O(n^2) product, exact to
  rounding (verified against the naive double loop).

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
)
from .coupling import QubitArray, coupling_matrices
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
    """Truncation horizon T (units 1/Gamma) and per-axis grid resolution."""

    T: float = 40.0
    n_steps: int = 4096

    def __post_init__(self) -> None:
        _require_finite_positive("quadrature horizon T", self.T)
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 64):
            raise ValueError(f"n_steps must be an integer >= 64, got {self.n_steps!r}")


def _adjoint_generator(params: SystemParams) -> np.ndarray:
    """16x16 matrix L with d vec(X)/dt = L @ vec(X) for Heisenberg operators X.

    Row-major vec throughout, so vec(A X B) = kron(A, B.T) @ vec(X).
    The coherent exchange alpha_nm enters H with a minus sign.
    """
    cm = coupling_matrices(QubitArray((0.0, params.k0d)), params)
    lowering = (_SM1, _SM2)
    eye = np.eye(4)
    ham = OMEGA * sum(sm.conj().T @ sm for sm in lowering)
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
    return gen + 1j * (np.kron(ham, eye) - np.kron(eye, ham.T))


def integrate_transition_odes(
    params: SystemParams, config: OdeConfig, t_grid
) -> list:
    """Numerically integrate the propagator of all elements over t_grid.

    t_grid holds absolute times, sorted and nonnegative.  Returns one
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
    # real block form [Re Phi; Im Phi], so every solve_ivp method applies
    L = _adjoint_generator(params)
    real_gen = np.block([[L.real, -L.imag], [L.imag, L.real]])
    sol = solve_ivp(
        lambda _t, y: (real_gen @ y.reshape(32, 16)).ravel(),
        (0.0, float(t[-1])),
        TransitionOperatorState(0.0, np.eye(16, dtype=complex)).to_vector(),
        t_eval=t,
        method=config.method,
        rtol=config.rel_tol,
        atol=config.abs_tol,
    )
    if not sol.success:
        t_last = sol.t[-1] if sol.t.size else 0.0
        raise OracleError(
            f"ODE integration stalled at Gamma*t = {params.gamma * t_last:.6g}: "
            f"{sol.message}"
        )
    return [
        TransitionOperatorState.from_vector(float(ti), y)
        for ti, y in zip(sol.t, sol.y.T)
    ]


def _raised(phi: np.ndarray, lowering: np.ndarray) -> np.ndarray:
    """Heisenberg-evolved raising operator(s), Phi @ vec(s^+), as 4x4 matrices."""
    return (phi @ lowering.conj().T.ravel()).reshape(phi.shape[:-2] + (4, 4))


def _evolved_vec(rho0: DickeDensity, phi: np.ndarray) -> np.ndarray:
    """rv with rv[..., 4q + l] = <l|rho(t)|q> = Tr(rho0 <P_ql(t)>)."""
    return rho0.matrix().T.ravel() @ phi


def correlation_function(
    n: int,
    m: int,
    tau: float,
    tau_prime: float,
    rho0: DickeDensity,
    params: SystemParams,
) -> complex:
    """Two-time correlation of raising (qubit n) and lowering (qubit m).

    Quantum regression: for tau >= tau_prime the system evolves to
    tau_prime, the lowering operator acts, and the raised operator is
    propagated over the lag.  The opposite ordering is the Hermitian
    conjugate with qubits swapped, so both branches agree at equal
    times.
    """
    if n not in (1, 2) or m not in (1, 2):
        raise ValueError(f"qubit indices must be 1 or 2, got n={n}, m={m}")
    if tau < 0.0 or tau_prime < 0.0:
        raise ValueError(
            f"correlation times must be nonnegative, got ({tau}, {tau_prime})"
        )
    if tau < tau_prime:
        return complex(correlation_function(m, n, tau_prime, tau, rho0, params)).conjugate()
    L = _adjoint_generator(params)
    sp = _raised(expm(L * (tau - tau_prime)), _SM1 if n == 1 else _SM2)
    sm = _SM1 if m == 1 else _SM2
    rho_tau = _evolved_vec(rho0, expm(L * tau_prime)).reshape(4, 4).T
    return complex(np.trace(rho_tau @ (sp @ sm)))


# one entry: a build is cheap now, and callers reuse the tables of one
# spacing across states and directions before moving on to the next
@lru_cache(maxsize=1)
def _kernel_tables(gamma_ratio: float, k0d: float, n_eff: int, h: float) -> tuple:
    """Exact propagator and correlation ingredients on a uniform grid.

    Returns (phi, P11, P22, P12, P21): phi[j] = exp(L j h) is the
    propagator at every grid time, and the P-stacks are the four
    raised-times-lowering operator products at every lag, flattened
    row-major.
    """
    params = SystemParams(gamma_ratio=gamma_ratio, k0d=k0d)
    step = expm(_adjoint_generator(params) * h)
    phi = np.empty((n_eff + 1, 16, 16), dtype=complex)
    phi[0] = np.eye(16)
    for j in range(n_eff):
        np.matmul(phi[j], step, out=phi[j + 1])
    sp1, sp2 = _raised(phi, _SM1), _raised(phi, _SM2)
    products = [
        (sp @ sm).reshape(n_eff + 1, 16)
        for sp, sm in ((sp1, _SM1), (sp2, _SM2), (sp1, _SM2), (sp2, _SM1))
    ]
    tables = (phi, *products)
    for arr in tables:
        arr.flags.writeable = False
    return tables


#: the quadrature extends its grid to at most this many points; the
#: tables take 5,120 bytes a point (one 16x16 complex propagator and
#: four 16-entry complex products), about 335 MB here
MAX_GRID_POINTS = 65_536


def _effective_grid(params: SystemParams, config: QuadratureConfig) -> tuple:
    """(n_eff, h): the requested grid, extended if a channel decays slowly.

    The t -> inf spectrum is only reached once every bright channel has
    rung down to ~1e-6, i.e. T > 2 ln(1e6)/Gamma_min with Gamma_min the
    smallest nonzero collective rate.  Extra points are added at fixed
    step so resolution is never traded away for reach.  Channels with
    exactly zero rate never decay and are excluded: their weight in the
    emission kernel is exactly zero.  A grid above MAX_GRID_POINTS
    (a spacing close to n*pi) raises OracleError before any table exists.
    """
    r = collective_rates(params)
    gamma_min = min(g for g in (r.gamma_plus, r.gamma_minus) if g > 0.0)
    t_base = config.T / params.gamma
    h = t_base / config.n_steps
    n_need = 2.0 * math.log(1e6) / gamma_min / h
    if n_need > MAX_GRID_POINTS:
        raise OracleError(
            f"quadrature grid needs n_eff = {math.ceil(n_need):.6g} points for "
            f"Gamma_min/Gamma = {gamma_min / params.gamma:.3g}, about "
            f"{(n_need + 1) * 5120 / 1e6:.3g} MB of tables; the limit is "
            f"{MAX_GRID_POINTS} points"
        )
    return max(config.n_steps, math.ceil(n_need)), h


def _lag_sums(rho0: DickeDensity, params: SystemParams, direction: Direction,
              config: QuadratureConfig) -> tuple:
    """Per-lag weighted sums SS_d and the equal-time diagonal of the kernel."""
    n_eff, h = _effective_grid(params, config)
    phi, p11, p22, p12, p21 = _kernel_tables(
        params.gamma_ratio, params.k0d, n_eff, h
    )
    kd = direction.sign * params.k0d
    bv = p11 + p22 + np.exp(-1j * kd) * p12 + np.exp(1j * kd) * p21
    rv = _evolved_vec(rho0, phi)
    n = n_eff
    wts = np.full(n + 1, h)
    wts[0] = wts[-1] = 0.5 * h
    prefix = np.cumsum(wts[:, None] * rv, axis=0)
    lags = np.arange(1, n + 1)
    base = n - lags  # highest base index contributing at each lag
    corr = h * prefix[base] - 0.5 * h * wts[base, None] * rv[base]
    ss = np.empty(n + 1, dtype=complex)
    ss[0] = (wts**2 @ rv) @ bv[0]
    ss[1:] = np.einsum("ij,ij->i", corr, bv[lags])
    diag = 0.5 * params.gamma * np.real(rv @ bv[0])
    return ss, diag, h, n_eff


def quadrature_spectrum(
    rho0: DickeDensity,
    params: SystemParams,
    direction: Direction,
    omega,
    config: QuadratureConfig = QuadratureConfig(),
):
    """Emission spectrum by brute-force double-time quadrature.

    Trapezoid rule over [0, T]^2 of the phase-weighted two-time
    correlation kernel, with the triangle above/below the diagonal
    related by conjugation.  Converges to the t = T photon number of
    the analytic route as the grid refines; T is auto-extended for
    slowly decaying channels (see _effective_grid).  omega may be a
    scalar or an array.
    """
    ss, _diag, h, _n = _lag_sums(rho0, params, direction, config)
    if abs(ss[0].imag) > 1e-10 * (abs(ss[0].real) + 1.0):
        raise OracleError(
            f"equal-time kernel sum should be real, got {ss[0]:.3e}; "
            "the correlation assembly is inconsistent"
        )
    omegas = np.atleast_1d(np.asarray(omega, dtype=float))
    lags = np.arange(1, ss.size)
    phases = np.exp(-1j * np.outer(omegas, lags * h))
    values = params.gamma * (2.0 * np.real(phases @ ss[1:]) + ss[0].real)
    return float(values[0]) if np.isscalar(omega) else values


def quadrature_rates(
    rho0: DickeDensity,
    params: SystemParams,
    direction: Direction,
    config: QuadratureConfig = QuadratureConfig(),
) -> tuple:
    """(t_grid, W(t)) from the equal-time diagonal of the same kernel.

    The instantaneous one-direction emission rate is Gamma/2 times the
    equal-time correlation; reusing the quadrature tables makes this a
    propagator-backed rate oracle for free.
    """
    _ss, diag, h, n_eff = _lag_sums(rho0, params, direction, config)
    return np.arange(n_eff + 1) * h, diag
