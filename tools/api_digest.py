"""Fingerprint the library's outputs, to compare two source trees byte for byte.

Usage: python3 tools/api_digest.py SRC_DIR > digest.txt.  It imports waveqed
from SRC_DIR/src and prints one `sha256 label` line per group of outputs, each
hashed as `tobytes` (arrays, numpy scalars) or `repr` (Python floats), in a
fixed order.  The inputs are fixed: the 9 presets plus 3 fixed densities (one
with a complex S-A coherence), 12 spacings uniform in [0, 4 pi] plus 24 at
n pi +- 10^-k, and times as Python floats, as np.float64 and as one array,
t = +-0 included.  The `SystemParams` group holds the fields construction
derives at every spacing; `quadrature_spectrum` (the oracle) runs at three
spacings away from n pi, on scalar and 1-D omegas.  The `refusals` group
hashes the message of every case of tests/test_input_gate.py (this
checkout's table, run against SRC_DIR), so it moves with any refusal text.  Diff two trees' output; takes a few seconds.
"""

import hashlib
import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(sys.argv[1]).resolve() / "src"))

from waveqed import (  # noqa: E402
    PRESET_NAMES,
    TOTAL,
    DickeDensity,
    DickeState,
    Direction,
    SystemParams,
    closed_form_state,
    emission_rate,
    line_tail_area,
    photon_number,
    population_elements,
    preset_state,
    radiated_energy,
    spectral_density,
    transition_probability,
)
from waveqed.oracle import QuadratureConfig, quadrature_spectrum  # noqa: E402

GAMMA = 0.05
F, B = Direction.FORWARD, Direction.BACKWARD
STATES = {name: preset_state(name) for name in PRESET_NAMES}
STATES["coherent"] = DickeDensity(pEE=0.1, pSS=0.4, pAA=0.3, pGG=0.2, pSA=0.2 + 0.1j)
STATES["mixed"] = DickeDensity(pEE=0.25, pSS=0.25, pAA=0.25, pGG=0.25)
STATES["sa-real"] = DickeDensity(pSS=0.5, pAA=0.5, pSA=-0.3)
SPACINGS = [float(k) for k in np.random.default_rng(24).uniform(0.0, 4.0 * math.pi, 12)]
SPACINGS += [n * math.pi + sign * 10.0**-k for n in (1, 2, 3) for k in (6, 9, 12, 15)
             for sign in (-1.0, 1.0)]
PARAMS = [SystemParams(GAMMA, k0d) for k0d in SPACINGS]
GAMMA_T = [0.0, -0.0, 1e-300, 1e-12, 0.5, 1.0, 3.0, 17.3, 100.0]
TIMES = [gt / GAMMA for gt in GAMMA_T]
T_ARRAY = np.array(TIMES)
#: every scalar t twice as a Python float (a cache miss, then a hit) and as np.float64
SCALAR_TIMES = [u for t in TIMES for u in (t, t, np.float64(t))]
OMEGAS = 1.0 + GAMMA * np.linspace(-10.0, 10.0, 41)
FINITE_OMEGAS = [1.0 - GAMMA, 1.0, 1.0 + 0.3 * GAMMA]
FINITE_GAMMA_T = [0.0, 0.7, 4.0]
DERIVED = ("gamma", "sin_k0d", "gamma_plus", "gamma_minus", "omega_plus", "omega_minus")
ORACLE_OMEGAS = 1.0 + GAMMA * np.linspace(-3.0, 3.0, 7)
#: three scalar omegas and one array at each of three spacings away from n pi
ORACLE_CALLS = [(SystemParams(GAMMA, k0d), w) for k0d in (0.5 * math.pi, 1.0, 2.3)
                for w in (*ORACLE_OMEGAS[::3].tolist(), ORACLE_OMEGAS)]
ORACLE_CONFIG = QuadratureConfig(T=20.0, n_steps=64)


def _bytes(value) -> bytes:
    if type(value) is float:
        return repr(value).encode()
    return np.asarray(value).tobytes()


def digest(label: str, values) -> None:
    h = hashlib.sha256()
    for value in values:
        part = _bytes(value)
        h.update(len(part).to_bytes(8, "big") + part)
    print(f"{h.hexdigest()} {label}", flush=True)


def _refusals():
    """The message of every gate-table case, or what happened instead."""
    path = Path(__file__).resolve().parents[1] / "tests" / "test_input_gate.py"
    spec = importlib.util.spec_from_file_location("gate_table", path)
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    for case_id, _name, thunk in table.CASES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = thunk()
            except Exception as exc:  # the refusal's type and text are the output
                yield f"{case_id}: {type(exc).__name__}: {exc}".encode()
            else:
                yield f"{case_id}: returned {type(out).__name__}".encode()


def main() -> None:
    digest("SystemParams", (getattr(p, f) for p in PARAMS for f in DERIVED))
    digest("population_elements scalar",
           (population_elements(p, t) for p in PARAMS for t in SCALAR_TIMES))
    digest("population_elements array", (population_elements(p, T_ARRAY) for p in PARAMS))
    digest("closed_form_state phi",
           (closed_form_state(p, t).phi for p in PARAMS for t in TIMES + [np.float64(1.0)]))
    pairs = [(i, f) for i in DickeState for f in DickeState]
    digest("transition_probability scalar",
           (transition_probability(i, f, p, t) for p in PARAMS for i, f in pairs
            for t in SCALAR_TIMES))
    digest("transition_probability array",
           (transition_probability(i, f, p, T_ARRAY) for p in PARAMS for i, f in pairs))
    for name, rho in STATES.items():
        for d in (F, B, TOTAL):
            label = f"{name} {getattr(d, 'value', 'Total')}"
            digest(f"emission_rate scalar {label}",
                   (emission_rate(rho, p, t, d) for p in PARAMS for t in SCALAR_TIMES))
            digest(f"emission_rate array {label}",
                   (emission_rate(rho, p, T_ARRAY, d) for p in PARAMS))
            digest(f"spectral_density scalar {label}",
                   (spectral_density(rho, p, d, w) for p in PARAMS
                    for w in (*OMEGAS.tolist(), OMEGAS[7])))
            digest(f"spectral_density array {label}",
                   (spectral_density(rho, p, d, OMEGAS) for p in PARAMS))
            digest(f"radiated_energy {label}", (radiated_energy(rho, p, d) for p in PARAMS))
        digest(f"photon_number finite-t {name}",
               (photon_number(rho, p, d, w, gt / GAMMA) for p in PARAMS for d in (F, B)
                for w in FINITE_OMEGAS for gt in FINITE_GAMMA_T))
    digest("line_tail_area",
           (line_tail_area(p, hw, s) for p in PARAMS for s in (DickeState.S, DickeState.A)
            for hw in (0.0, 2.5 * GAMMA, 20.0 * GAMMA, np.float64(50.0 * GAMMA), math.inf)))
    for name in ("S", "eg", "coherent"):
        for d in (F, B):
            digest(f"quadrature_spectrum {name} {d.value}",
                   (quadrature_spectrum(STATES[name], p, d, w, ORACLE_CONFIG)
                    for p, w in ORACLE_CALLS))
    digest("refusals", _refusals())


if __name__ == "__main__":
    main()
