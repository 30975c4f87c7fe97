"""Every real argument of the public API refuses each bad kind by name.

One table: each (function, argument) pair meets a complex scalar, a
complex array, a str, None, NaN, -inf, +inf where the argument does not
admit it, and a negative value where it has a lower bound of 0.  Each
must raise ValueError whose message starts with the argument's name.
tools/api_digest.py fingerprints the same cases' messages.
"""

import math

import numpy as np
import pytest

from waveqed.core import TOTAL, DickeState, Direction, SystemParams, preset_state
from waveqed.observables import emission_rate, transition_probability
from waveqed.oracle import OdeConfig, integrate_transition_odes, quadrature_spectrum
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
}


def _column(value):
    """Three entries of a grid or sample column, one of them bad."""
    if isinstance(value, np.ndarray):
        return [*value, 2.0]
    return [0.0, value, 2.0]


def _samples(omegas, values):
    return [SpectrumSample(omega=w, value=v, direction=F, initial=None)
            for w, v in zip(omegas, values)]


#: (function, argument name, call with one bad value, +inf admitted, lower bound 0)
ARGUMENTS = [
    ("population_elements", "t", lambda v: population_elements(PARAMS, v), False, True),
    ("closed_form_state", "t", lambda v: closed_form_state(PARAMS, v), False, True),
    ("emission_rate", "t", lambda v: emission_rate(RHO, PARAMS, v, F), False, True),
    ("transition_probability", "t",
     lambda v: transition_probability(DickeState.E, DickeState.S, PARAMS, v), False, True),
    ("photon_number", "t", lambda v: photon_number(RHO, PARAMS, F, 1.0, v), True, True),
    ("photon_number", "omega", lambda v: photon_number(RHO, PARAMS, F, v, math.inf),
     False, False),
    ("spectral_density", "omega", lambda v: spectral_density(RHO, PARAMS, TOTAL, v),
     False, False),
    ("single_qubit_baseline", "omega", lambda v: single_qubit_baseline(PARAMS, v),
     False, False),
    ("single_qubit_baseline", "t", lambda v: single_qubit_baseline(PARAMS, 1.0)[1](v),
     False, True),
    ("line_tail_area", "half_width", lambda v: line_tail_area(PARAMS, v), True, True),
    ("peak_analysis", "sample omega",
     lambda v: peak_analysis(_samples(_column(v), [0.0, 1.0, 0.0])), False, False),
    ("peak_analysis", "sample value",
     lambda v: peak_analysis(_samples([0.0, 1.0, 2.0], _column(v))), False, False),
    ("integrate_transition_odes", "t_grid times",
     lambda v: integrate_transition_odes(PARAMS, OdeConfig(), _column(v)), False, True),
    ("quadrature_spectrum", "omega", lambda v: quadrature_spectrum(RHO, PARAMS, F, v),
     False, False),
]

#: (case id, argument name, thunk) for every pair and every kind that applies
CASES = [
    (f"{function}-{name.replace(' ', '_')}-{kind}", name,
     lambda call=call, value=value: call(value))
    for function, name, call, infinite, lower in ARGUMENTS
    for kind, value in BAD.items()
    if not (kind == "+inf" and infinite) and not (kind == "negative" and not lower)
]
CASES.append(("closed_form_state-t-array", "t",
              lambda: closed_form_state(PARAMS, np.array([0.0, 1.0, 2.0]))))


@pytest.mark.parametrize(("name", "thunk"), [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_every_real_argument_refuses_each_bad_kind_by_name(name, thunk):
    with pytest.raises(ValueError) as exc:
        thunk()
    assert str(exc.value).startswith(f"{name} ")
