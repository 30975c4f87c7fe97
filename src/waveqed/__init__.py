"""Spontaneous emission of two identical qubits coupled to a 1D waveguide.

Closed-form transition-operator solutions for the four-level collective
basis (ground, doubly excited, symmetric, antisymmetric), with
direction-resolved emission rates and radiation spectra, cross-checked
by an independent numerical oracle (the Lindblad generator of the
waveguide master equation, integrated in its rotating frame, and block
matrix exponentials for the double-time spectrum integral).

Conventions: hbar = 1, the qubit frequency Omega is the frequency unit,
Gamma = gamma_ratio * Omega is the single-qubit decay rate into the
waveguide.  Rates split into Forward / Backward propagation; "Total"
always means their sum.

The closed forms need numpy only.  The oracle needs scipy as well and
is imported on first use of waveqed.oracle or of one of its names
re-exported here (OdeConfig, QuadratureConfig, quadrature_spectrum, ...).
"""

__version__ = "0.1.0"

from .core import (
    BASIS,
    BASIS_INDEX,
    OMEGA,
    PRESET_NAMES,
    TOTAL,
    CollectiveRates,
    DickeDensity,
    DickeState,
    Direction,
    SystemParams,
    collective_rates,
    phase_factors,
    preset_state,
)
from .coupling import CouplingMatrices, coupling_matrices
from .observables import (
    emission_rate,
    radiated_energy,
    transition_probability,
)
from .spectra import (
    PeakAnalysis,
    SpectrumSample,
    line_tail_area,
    peak_analysis,
    photon_number,
    single_qubit_baseline,
    spectral_density,
)
from .transition_operator import (
    TransitionOperatorState,
    closed_form_state,
    population_elements,
)

__all__ = [
    "__version__",
    "BASIS",
    "BASIS_INDEX",
    "OMEGA",
    "PRESET_NAMES",
    "TOTAL",
    "CollectiveRates",
    "DickeDensity",
    "DickeState",
    "Direction",
    "SystemParams",
    "collective_rates",
    "phase_factors",
    "preset_state",
    "CouplingMatrices",
    "coupling_matrices",
    "emission_rate",
    "radiated_energy",
    "transition_probability",
    "OdeConfig",
    "OracleError",
    "QuadratureConfig",
    "integrate_transition_odes",
    "quadrature_rates",
    "quadrature_spectrum",
    "PeakAnalysis",
    "SpectrumSample",
    "line_tail_area",
    "peak_analysis",
    "photon_number",
    "single_qubit_baseline",
    "spectral_density",
    "TransitionOperatorState",
    "closed_form_state",
    "population_elements",
]

_ORACLE_NAMES = ("OdeConfig", "OracleError", "QuadratureConfig", "integrate_transition_odes",
                 "quadrature_rates", "quadrature_spectrum")


def __getattr__(name):
    # PEP 562: the oracle, and scipy with it, loads on the first lookup
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
