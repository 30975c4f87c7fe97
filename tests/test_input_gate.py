"""Every real argument of the public API refuses each bad kind by name.

One table: each (function, argument) pair meets a complex scalar, a
complex array, a str, None, NaN, -inf, +inf where the argument does not
admit it, a negative value where it has a lower bound of 0, zero where
that bound is strict, and a 2-element array where it takes one value.
Each must raise ValueError whose message starts with the argument's name.
tools/api_digest.py fingerprints the same cases' messages.
"""

import math

import numpy as np
import pytest

from waveqed.core import TOTAL, DickeState, Direction, SystemParams, preset_state
from waveqed.observables import emission_rate, transition_probability
from waveqed.oracle import (
    OdeConfig,
    QuadratureConfig,
    integrate_transition_odes,
    quadrature_spectrum,
)
from waveqed.spectra import (
    SpectrumSample,
    line_tail_area,
    peak_analysis,
    photon_number,
    single_qubit_baseline,
    spectral_density,
)
from waveqed.transition_operator import closed_form_state, population_elements

PARAMS = SystemParams(0.05, 1.0)
RHO = preset_state("eg")
F = Direction.FORWARD

BAD = {
    "complex": 1.0 + 1.0j,
    "complex-array": np.array([1.0, 1.0 + 1.0j]),
    "str": "1",
    "None": None,
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
    "negative": -1.0,
    "zero": 0.0,
    "array": np.array([1.0, 2.0]),
}


def _column(value):
    """Three entries of a grid or sample column, one of them bad."""
    if isinstance(value, np.ndarray):
        return [*value, 2.0]
    return [0.0, value, 2.0]


def _samples(omegas, values):
    return [SpectrumSample(omega=w, value=v, direction=F, initial=None)
            for w, v in zip(omegas, values)]


#: (function, argument name, call with one bad value, +inf admitted,
#: lower bound: None, ">=" 0 or ">" 0, one value only)
ARGUMENTS = [
    ("population_elements", "t", lambda v: population_elements(PARAMS, v), False, ">=",
     False),
    ("closed_form_state", "t", lambda v: closed_form_state(PARAMS, v), False, ">=", True),
    ("emission_rate", "t", lambda v: emission_rate(RHO, PARAMS, v, F), False, ">=", False),
    ("transition_probability", "t",
     lambda v: transition_probability(DickeState.E, DickeState.S, PARAMS, v), False, ">=",
     False),
    ("photon_number", "t", lambda v: photon_number(RHO, PARAMS, F, 1.0, v), True, ">=",
     True),
    ("photon_number", "omega", lambda v: photon_number(RHO, PARAMS, F, v, math.inf),
     False, None, False),
    ("spectral_density", "omega", lambda v: spectral_density(RHO, PARAMS, TOTAL, v),
     False, None, False),
    ("single_qubit_baseline", "omega", lambda v: single_qubit_baseline(PARAMS, v),
     False, None, False),
    ("single_qubit_baseline", "t", lambda v: single_qubit_baseline(PARAMS, 1.0)[1](v),
     False, ">=", False),
    ("line_tail_area", "half_width", lambda v: line_tail_area(PARAMS, v), True, ">=", True),
    ("peak_analysis", "sample omega",
     lambda v: peak_analysis(_samples(_column(v), [0.0, 1.0, 0.0])), False, None, False),
    ("peak_analysis", "sample value",
     lambda v: peak_analysis(_samples([0.0, 1.0, 2.0], _column(v))), False, None, False),
    ("integrate_transition_odes", "t_grid times",
     lambda v: integrate_transition_odes(PARAMS, OdeConfig(), _column(v)), False, ">=",
     False),
    ("quadrature_spectrum", "omega", lambda v: quadrature_spectrum(RHO, PARAMS, F, v),
     False, None, False),
    ("SystemParams", "gamma_ratio", lambda v: SystemParams(v, 1.0), False, ">", True),
    ("SystemParams", "k0d", lambda v: SystemParams(0.05, v), False, ">=", True),
    ("OdeConfig", "rel_tol", lambda v: OdeConfig(rel_tol=v), False, ">", True),
    ("OdeConfig", "abs_tol", lambda v: OdeConfig(abs_tol=v), False, ">", True),
    ("OdeConfig", "t_max", lambda v: OdeConfig(t_max=v), False, ">", True),
    ("QuadratureConfig", "quadrature horizon T", lambda v: QuadratureConfig(T=v), False,
     ">", True),
]


def _applies(kind, infinite, lower, scalar):
    return {"+inf": not infinite, "negative": lower is not None, "zero": lower == ">",
            "array": scalar}.get(kind, True)


#: (case id, argument name, thunk) for every pair and every kind that applies
CASES = [
    (f"{function}-{name.replace(' ', '_')}-{kind}", name,
     lambda call=call, value=value: call(value))
    for function, name, call, infinite, lower, scalar in ARGUMENTS
    for kind, value in BAD.items()
    if _applies(kind, infinite, lower, scalar)
]
# omega takes one value only at finite t
CASES.append(("photon_number-omega-finite-t-array", "omega",
              lambda: photon_number(RHO, PARAMS, F, BAD["array"], 20.0)))


@pytest.mark.parametrize(("name", "thunk"), [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_every_real_argument_refuses_each_bad_kind_by_name(name, thunk):
    with pytest.raises(ValueError) as exc:
        thunk()
    assert str(exc.value).startswith(f"{name} ")
