"""Domain types, unit conventions, and Dicke-basis bookkeeping.

Units: hbar = 1 and the qubit resonance frequency Omega = 1, so every
frequency (omega, detunings, collective shifts) is in units of Omega and
every time is reported as Gamma*t.  Rates are returned in absolute units
(Gamma = gamma_ratio * Omega) and normalized to W/Gamma only at the
presentation layer.  Spectra are the dimensionless S-bar(omega), i.e.
the spectral density with the waveguide quantization prefactor v_g/2L
dropped.

Basis order everywhere is (G, E, S, A): ground, doubly excited, and the
symmetric/antisymmetric one-excitation combinations

    |S> = (|eg> + |ge>)/sqrt(2),   |A> = (|ge> - |eg>)/sqrt(2).

The sign convention matters: it fixes the sign of the S-A coherence of
the "eg" preset (first qubit excited) and with it which emission
direction carries the interference lobe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

OMEGA = 1.0  # qubit resonance frequency, the frequency unit

#: tolerance for snapping cos/sin(k0d) onto the exact n*pi values; see
#: phase_factors
_TRIG_SNAP = 1e-12


class DickeState(Enum):
    """Tags for the four collective basis vectors."""

    G = "G"
    E = "E"
    S = "S"
    A = "A"


#: canonical ordering of the Dicke basis, used for every 4x4 matrix
BASIS = (DickeState.G, DickeState.E, DickeState.S, DickeState.A)
BASIS_INDEX = {state: i for i, state in enumerate(BASIS)}


class Direction(Enum):
    """Propagation direction of the detected mode: k = +k0 or k = -k0."""

    FORWARD = "Forward"
    BACKWARD = "Backward"

    @property
    def sign(self) -> int:
        return 1 if self is Direction.FORWARD else -1


class _TotalSentinel:
    """Marker for direction-summed observables.

    Not a Direction member: "Total" is not a propagation direction, and
    keeping it out of the enum lets `for direction in Direction` mean
    what it says.
    """

    label = "Total"

    def __repr__(self) -> str:  # pragma: no cover
        return "TOTAL"


TOTAL = _TotalSentinel()


def phase_factors(k0d: float) -> tuple[float, float]:
    """(cos k0d, sin k0d) with dust snapped off at the n*pi points.

    float(n*pi) is not an exact multiple of pi, so sin comes back as
    ~1e-16 instead of 0 and the dark collective channel keeps a
    spurious residual decay.  Snapping below 1e-12 puts those inputs
    exactly on the degenerate branch; the stable kernels make the
    nearby smooth branch agree with the limit, so nothing jumps.
    """
    c = math.cos(k0d)
    s = math.sin(k0d)
    if abs(s) < _TRIG_SNAP:
        # both snap together: a cos snapped alone would close a channel
        # whose coherence sin k0d still drives
        return math.copysign(1.0, c), 0.0
    return c, s


@dataclass(frozen=True)
class SystemParams:
    """Physical configuration of the two-qubit + waveguide system.

    gamma_ratio: single-qubit waveguide decay rate over the resonance
        frequency (Gamma/Omega), dimensionless, > 0.
    k0d: effective inter-qubit distance in radians (k0*d).  All rate
        formulas are 2pi-periodic in it.
    """

    gamma_ratio: float
    k0d: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma_ratio) and self.gamma_ratio > 0):
            raise ValueError(
                f"gamma_ratio must be finite and > 0, got {self.gamma_ratio}"
            )
        if not (math.isfinite(self.k0d) and self.k0d >= 0):
            raise ValueError(f"k0d must be finite and >= 0, got {self.k0d}")

    @property
    def gamma(self) -> float:
        """Single-qubit decay rate Gamma in units of Omega."""
        return self.gamma_ratio * OMEGA


@dataclass(frozen=True)
class CollectiveRates:
    """Decay rates and level shifts of the symmetric/antisymmetric channels."""

    gamma_plus: float
    gamma_minus: float
    omega_plus: float
    omega_minus: float


def collective_rates(params: SystemParams) -> CollectiveRates:
    """Collective decay rates Gamma(1 +- cos k0d) and shifts Omega +- (Gamma/2) sin k0d.

    The smaller rate comes from the half angle, 2*Gamma*cos^2(k0d/2) or
    2*Gamma*sin^2(k0d/2), so a nearly dark channel keeps its full
    relative precision where 1 +- cos k0d would cancel; the larger rate
    and omega_minus are computed as complements so the sum rules
    gamma_plus + gamma_minus = 2*Gamma and omega_plus + omega_minus =
    2*Omega hold bit-exactly, not just to rounding.
    """
    g = params.gamma
    c, s = phase_factors(params.k0d)
    if c < 0.0:
        gamma_plus = 0.0 if s == 0.0 else 2.0 * g * math.cos(0.5 * params.k0d) ** 2
        gamma_minus = 2.0 * g - gamma_plus
    else:
        gamma_minus = 0.0 if s == 0.0 else 2.0 * g * math.sin(0.5 * params.k0d) ** 2
        gamma_plus = 2.0 * g - gamma_minus
    omega_plus = OMEGA + 0.5 * g * s
    return CollectiveRates(
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        omega_plus=omega_plus,
        omega_minus=2.0 * OMEGA - omega_plus,
    )


def everywhere(mask) -> bool:
    """True when a comparison holds for a scalar or for every array entry.

    Scalars skip the numpy reduction, which costs more than a scalar
    call of some closed forms spends on its arithmetic.
    """
    return bool(mask.all()) if isinstance(mask, np.ndarray) else bool(mask)


def first_failure(values, mask):
    """The first entry of values where mask is False, to name in an error.

    Keeps a rejection of a 1,000-point grid to one value instead of the
    whole array.
    """
    return np.ravel(values)[~np.ravel(mask)][0]


def _check_density(
    m: np.ndarray,
    trace_tol: float = 1e-8,
    herm_tol: float = 1e-10,
    psd_tol: float = 1e-10,
) -> None:
    """Raise ValueError naming the first broken rule of a 4x4 density matrix.

    The rules, in order: trace = 1, Hermiticity, positive semidefiniteness.
    """
    trace = m.trace()
    if abs(trace - 1.0) > trace_tol:
        raise ValueError(
            f"density matrix trace must equal 1 within {trace_tol:g}, got {trace:.12g}"
        )
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev > herm_tol:
        raise ValueError(
            f"density matrix must be Hermitian within {herm_tol:g}, "
            f"max |rho - rho^dag| = {herm_dev:.3g}"
        )
    min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
    if min_eig < -psd_tol:
        raise ValueError(
            f"density matrix must be positive semidefinite within {psd_tol:g}, "
            f"smallest eigenvalue = {min_eig:.3g}"
        )


@dataclass(frozen=True)
class DickeDensity:
    """Two-qubit density matrix in the (G, E, S, A) basis.

    Populations are stored as reals; of the coherences only pSA has a
    physical effect on emission, but the full upper triangle is carried
    so arbitrary pure/mixed initial states round-trip.  pAS is always
    the conjugate of pSA (computed, never stored) so Hermiticity cannot
    drift.
    """

    pEE: float = 0.0
    pSS: float = 0.0
    pAA: float = 0.0
    pGG: float = 0.0
    pSA: complex = 0j
    pGE: complex = 0j
    pGS: complex = 0j
    pGA: complex = 0j
    pSE: complex = 0j
    pAE: complex = 0j

    def __post_init__(self) -> None:
        for name in ("pEE", "pSS", "pAA", "pGG"):
            v = getattr(self, name)
            if not -1e-9 <= v <= 1.0 + 1e-9:
                raise ValueError(f"population {name} out of [0, 1]: {v!r}")
        _check_density(self.matrix())

    @property
    def pAS(self) -> complex:
        return self.pSA.conjugate()

    def matrix(self) -> np.ndarray:
        """The 4x4 complex matrix in (G, E, S, A) order."""
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = self.pGG
        m[1, 1] = self.pEE
        m[2, 2] = self.pSS
        m[3, 3] = self.pAA
        m[2, 3] = self.pSA
        m[3, 2] = self.pSA.conjugate()
        m[0, 1] = self.pGE
        m[1, 0] = self.pGE.conjugate()
        m[0, 2] = self.pGS
        m[2, 0] = self.pGS.conjugate()
        m[0, 3] = self.pGA
        m[3, 0] = self.pGA.conjugate()
        m[2, 1] = self.pSE
        m[1, 2] = self.pSE.conjugate()
        m[3, 1] = self.pAE
        m[1, 3] = self.pAE.conjugate()
        return m

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        trace_tol: float = 1e-8,
        herm_tol: float = 1e-10,
        psd_tol: float = 1e-10,
    ) -> "DickeDensity":
        """Validate a 4x4 matrix (G, E, S, A order) and unpack it.

        Raises ValueError naming the violated rule: shape, trace = 1,
        Hermiticity, or positive semidefiniteness.
        """
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(
                f"density matrix must be 4x4 in the (G, E, S, A) basis, got shape {m.shape}"
            )
        _check_density(m, trace_tol, herm_tol, psd_tol)
        return cls(
            pGG=float(m[0, 0].real),
            pEE=float(m[1, 1].real),
            pSS=float(m[2, 2].real),
            pAA=float(m[3, 3].real),
            pSA=complex(m[2, 3]),
            pGE=complex(m[0, 1]),
            pGS=complex(m[0, 2]),
            pGA=complex(m[0, 3]),
            pSE=complex(m[2, 1]),
            pAE=complex(m[3, 1]),
        )


_SQ2 = 1.0 / math.sqrt(2.0)

# preset pure states as amplitude vectors in (G, E, S, A); product states
# decompose via |eg> = (|S> - |A>)/sqrt(2), |ge> = (|S> + |A>)/sqrt(2)
_PRESET_AMPLITUDES = {
    "G": (1.0, 0.0, 0.0, 0.0),
    "E": (0.0, 1.0, 0.0, 0.0),
    "S": (0.0, 0.0, 1.0, 0.0),
    "A": (0.0, 0.0, 0.0, 1.0),
    "eg": (0.0, 0.0, _SQ2, -_SQ2),  # first qubit excited
    "ge": (0.0, 0.0, _SQ2, +_SQ2),  # second qubit excited
    "s1g2": (_SQ2, 0.0, 0.5, -0.5),  # (|g>+|e>)/sqrt2 on qubit 1, qubit 2 ground
    "s1e2": (0.0, _SQ2, 0.5, 0.5),  # (|g>+|e>)/sqrt2 on qubit 1, qubit 2 excited
    "s1s2": (0.5, 0.5, _SQ2, 0.0),  # both qubits in (|g>+|e>)/sqrt2
}

PRESET_NAMES = tuple(_PRESET_AMPLITUDES)


def preset_state(name: str) -> DickeDensity:
    """Initial density matrix for one of the named product/Dicke states."""
    try:
        amps = _PRESET_AMPLITUDES[name]
    except KeyError:
        valid = ", ".join(PRESET_NAMES)
        raise ValueError(f"unknown preset state {name!r}; valid names: {valid}") from None
    v = np.array(amps, dtype=complex)
    return DickeDensity.from_matrix(np.outer(v, v.conj()), psd_tol=1e-12)
