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

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

OMEGA = 1.0  # qubit resonance frequency, the frequency unit

#: tolerance for snapping cos/sin(k0d) onto the exact n*pi values; see
#: phase_factors
_TRIG_SNAP = 1e-12

#: spacings whose collective rates are kept
_RATE_CACHE_SIZE = 256


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
        # equal keys of the collective_rates cache must hold equal floats
        object.__setattr__(self, "gamma_ratio", float(self.gamma_ratio))
        object.__setattr__(self, "k0d", float(self.k0d))

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


@functools.lru_cache(maxsize=_RATE_CACHE_SIZE)
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


#: (field, row, column) of each stored DickeDensity entry in the (G, E, S, A)
#: matrix; the entry at (column, row) is its conjugate
_ENTRIES = (
    ("pGG", 0, 0), ("pEE", 1, 1), ("pSS", 2, 2), ("pAA", 3, 3),
    ("pSA", 2, 3), ("pGE", 0, 1), ("pGS", 0, 2), ("pGA", 0, 3),
    ("pSE", 2, 1), ("pAE", 3, 1),
)
_POPULATIONS = ("pEE", "pSS", "pAA", "pGG")
_TRACE_TOL = 1e-8
_HERM_TOL = 1e-10
_PSD_TOL = 1e-10


@dataclass(frozen=True)
class DickeDensity:
    """Two-qubit density matrix in the (G, E, S, A) basis.

    Populations are stored as reals; of the coherences only pSA has a
    physical effect on emission, but the full upper triangle is carried
    so arbitrary pure/mixed initial states round-trip.  pAS is always
    the conjugate of pSA (computed, never stored) so Hermiticity cannot
    drift.

    Construction raises ValueError naming the first broken rule, in
    this order: every entry finite, trace = 1 within 1e-8, positive
    semidefinite within 1e-10, populations in [0, 1].
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
        for name, _i, _j in _ENTRIES:
            v = getattr(self, name)
            if not cmath.isfinite(v):
                raise ValueError(f"density matrix entry {name} must be finite, got {v!r}")
        m = self.matrix()
        trace = m.trace()
        if abs(trace - 1.0) > _TRACE_TOL:
            raise ValueError(
                f"density matrix trace must equal 1 within {_TRACE_TOL:g}, got {trace:.12g}"
            )
        min_eig = float(np.linalg.eigvalsh(m).min())
        if min_eig < -_PSD_TOL:
            raise ValueError(
                f"density matrix must be positive semidefinite within {_PSD_TOL:g}, "
                f"smallest eigenvalue = {min_eig:.3g}"
            )
        for name in _POPULATIONS:
            v = getattr(self, name)
            if not -1e-9 <= v <= 1.0 + 1e-9:
                raise ValueError(f"population {name} out of [0, 1]: {v!r}")

    @property
    def pAS(self) -> complex:
        return self.pSA.conjugate()

    def matrix(self) -> np.ndarray:
        """The 4x4 complex matrix in (G, E, S, A) order."""
        m = np.zeros((4, 4), dtype=complex)
        for name, i, j in _ENTRIES:
            v = getattr(self, name)
            m[j, i] = v.conjugate()
            m[i, j] = v
        return m

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "DickeDensity":
        """Validate a 4x4 matrix (G, E, S, A order) and unpack it.

        Raises ValueError naming the violated rule: the shape, then the
        rules of construction on the entries the fields hold, then
        Hermiticity within 1e-10, which the mirrored entries must meet.
        """
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(
                f"density matrix must be 4x4 in the (G, E, S, A) basis, got shape {m.shape}"
            )
        rho = cls(**{name: float(m[i, j].real) if i == j else complex(m[i, j])
                     for name, i, j in _ENTRIES})
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if not herm_dev <= _HERM_TOL:  # NaN too: a non-finite mirrored entry
            raise ValueError(
                f"density matrix must be Hermitian within {_HERM_TOL:g}, "
                f"max |rho - rho^dag| = {herm_dev:.3g}"
            )
        return rho


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
    return DickeDensity.from_matrix(np.outer(v, v.conj()))
