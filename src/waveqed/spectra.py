"""Per-mode photon numbers and radiation spectral densities.

Everything here is one linear kernel: the time-resolved photon number
of a detector mode at frequency omega is a weighted sum of double-decay
integrals jint and their divided differences jint_dz, one group per
contributing density-matrix entry (pEE, pSS, pAA and the two S-A
coherences), and the spectral density is its t -> infinity limit.
Presets never get their own code path; they only supply weights, so
there is exactly one transcription of the kernel to get right.

Reported values are the dimensionless S-bar(omega): the physical
spectral density with the waveguide quantization prefactor dropped.
The interference weights enter at the resonant modes k = +-k0, so the
direction only flips the sign in front of sin k0d.

omega may be an array: the t -> infinity limit is rational in omega, so
spectral_density returns a whole spectrum from one call.  Finite t
needs a scalar omega, because the finite-t kernels branch on the size
of their arguments; t is always one scalar.
Every omega, t and half_width passes core's one gate, real_values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stable import INF, jint, jint_dz
from .core import (
    OMEGA,
    TOTAL,
    DickeDensity,
    DickeState,
    Direction,
    SystemParams,
    real_values,
)


@dataclass(frozen=True)
class SpectrumSample:
    """One point of a spectrum curve."""

    omega: float
    value: float
    direction: Direction
    initial: DickeDensity


def photon_number(
    rho0: DickeDensity,
    params: SystemParams,
    direction: Direction,
    omega,
    t: float,
):
    """Dimensionless occupancy of the (direction, omega) mode at time t.

    t is one scalar; t = math.inf gives the spectral density, for a
    scalar omega or an array of them.  The gate refuses any other array
    t or omega: "t must be a scalar, got shape (2,)".  Weights whose
    channel factor is exactly zero are skipped, which keeps the
    dark-point geometries (cos k0d = +-1) free of 0 * divergent-limit
    products: the stable integrals never see the degenerate argument.
    """
    if not isinstance(direction, Direction):
        raise ValueError(f"direction must be a Direction, got {direction!r}")
    t = real_values("t", t, lower=0.0, infinite=True, scalar=True)
    omega = real_values("omega", omega, scalar=t != INF)
    g, s, gp, gm = params.gamma, params.sin_k0d, params.gamma_plus, params.gamma_minus
    a = gp / g  # 1 + cos k0d, without cancellation
    b = gm / g  # 1 - cos k0d
    dp, dm = omega - params.omega_plus, omega - params.omega_minus  # detector detunings
    sk = direction.sign * s
    z1 = 1j * dm + 0.5 * gp + g
    z2 = 1j * dp + 0.5 * gp
    z4 = 1j * dp + 0.5 * gm + g
    z5 = 1j * dm + 0.5 * gm
    total = 0.0 * dp + 0j  # +0 complex, shaped like omega
    if rho0.pEE != 0.0:
        # jint_dz(z, 2 Gamma, Gamma_+-) is the difference in w; z = z2, z5 has
        # real part Gamma_+-/2 <= Gamma, so it lies >= Gamma from 2 Gamma
        kernel_e = 0.0 + 0.0j
        if a != 0.0:
            kernel_e += -a * a * g * jint_dz(z1, z2, 2.0 * g, t)
            kernel_e += a * jint(z1, 2.0 * g, t)
            kernel_e += -a * a * g * jint_dz(z2, 2.0 * g, gp, t)
        if b != 0.0:
            kernel_e += b * jint(z4, 2.0 * g, t)
            kernel_e += -b * b * g * jint_dz(z4, z5, 2.0 * g, t)
            kernel_e += -b * b * g * jint_dz(z5, 2.0 * g, gm, t)
        total += rho0.pEE * kernel_e
    if rho0.pSS != 0.0 and a != 0.0:
        total += rho0.pSS * a * jint(z2, gp, t)
    if rho0.pAA != 0.0 and b != 0.0:
        total += rho0.pAA * b * jint(z5, gm, t)
    if rho0.pSA != 0 and sk != 0.0:
        total += rho0.pSA * 1j * sk * jint(z5, g * (1.0 + 1j * s), t)
        total += rho0.pAS * (-1j) * sk * jint(z2, g * (1.0 - 1j * s), t)
    return 2.0 * np.real(g * total)


def spectral_density(rho0: DickeDensity, params: SystemParams, direction, omega):
    """Long-time radiation spectral density S-bar(omega) for one direction.

    direction may also be TOTAL, the forward plus the backward spectrum.
    omega may be a scalar or an array; the result has its shape.
    """
    if direction is TOTAL:
        forward = spectral_density(rho0, params, Direction.FORWARD, omega)
        return forward + spectral_density(rho0, params, Direction.BACKWARD, omega)
    if not isinstance(direction, Direction):
        raise ValueError(f"direction must be a Direction or TOTAL, got {direction!r}")
    return photon_number(rho0, params, direction, omega, INF)


def single_qubit_baseline(params: SystemParams, omega) -> tuple:
    """Reference curves for one qubit alone in the same guide.

    Returns (spectral density at omega, rate function W1(t)): a
    Lorentzian of full width Gamma centered on the bare resonance, and
    the per-direction exponential decay rate (Gamma/2) e^{-Gamma t}.
    Both take scalars or arrays.
    """
    g = params.gamma
    value = g / ((real_values("omega", omega) - OMEGA) ** 2 + 0.25 * g * g)

    def rate(t):
        return 0.5 * g * np.exp(-g * real_values("t", t, lower=0.0))

    return value, rate


def line_tail_area(
    params: SystemParams, half_width: float, state: DickeState = DickeState.S
) -> float:
    """Analytic spectral weight of one collective line outside a window.

    The pure symmetric (antisymmetric) state radiates a single
    Lorentzian of width Gamma_+ (Gamma_-) centered on its shifted
    frequency; integrating over a finite window |omega - Omega| <=
    half_width systematically misses the wings.  This returns the exact
    missing area so window integrals can be corrected instead of
    silently failing area checks.  A channel with zero rate has no line
    and no tail.  half_width must be >= 0; +inf gives 0.
    """
    if state not in (DickeState.S, DickeState.A):
        raise ValueError(f"only the S and A lines are single Lorentzians, got {state}")
    half_width = real_values("half_width", half_width, lower=0.0, infinite=True, scalar=True)
    g_line = params.gamma_plus if state is DickeState.S else params.gamma_minus
    if g_line == 0.0:
        return 0.0
    # line center minus Omega for S, its negative for A: the area is even in it
    shift = 0.5 * params.gamma * params.sin_k0d
    q = 0.5 * g_line
    return 2.0 * (
        math.pi
        - math.atan((half_width - shift) / q)
        - math.atan((half_width + shift) / q)
    )


@dataclass(frozen=True)
class PeakAnalysis:
    """Local maxima of a sampled spectrum and the top-two separation."""

    peaks: tuple  # of (omega, value), in increasing omega
    separation: float | None  # |omega_1 - omega_2| of the two highest peaks


def peak_analysis(samples) -> PeakAnalysis:
    """Locate spectral peaks by three-point maxima with parabolic refinement.

    samples: ordered sequence of SpectrumSample with finite entries and
    strictly increasing omega; at least three are required.  Each
    refined vertex lies between the midpoints on either side of its grid
    maximum, so the peaks come out in increasing omega.  Fewer than two peaks leaves the separation
    undefined (None), which is not an error.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise ValueError(f"peak analysis needs at least 3 samples, got {len(samples)}")
    x = real_values("sample omega", [s.omega for s in samples])
    v = real_values("sample value", [s.value for s in samples])
    if not np.all(np.diff(x) > 0.0):
        raise ValueError("samples must have strictly increasing omega")
    maxima = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    peaks = [_refine_parabolic(x, v, i) for i in maxima]
    separation = None
    if len(peaks) >= 2:
        top = sorted(peaks, key=lambda p: p[1], reverse=True)[:2]
        separation = abs(top[0][0] - top[1][0])
    return PeakAnalysis(peaks=tuple(peaks), separation=separation)


def _refine_parabolic(x: np.ndarray, v: np.ndarray, i: int) -> tuple:
    """Vertex of the parabola through points i-1, i, i+1 (any spacing)."""
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    v0, v1, v2 = v[i - 1], v[i], v[i + 1]
    d1 = (v1 - v0) / (x1 - x0)
    d2 = (v2 - v1) / (x2 - x1)
    curv = (d2 - d1) / (x2 - x0)
    if curv >= 0.0:  # numerically flat; keep the grid point
        return float(x1), float(v1)
    xv = 0.5 * (x0 + x1) - 0.5 * d1 / curv
    vv = v0 + d1 * (xv - x0) + curv * (xv - x0) * (xv - x1)
    return float(xv), float(vv)
