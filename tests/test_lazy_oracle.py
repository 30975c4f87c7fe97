"""The closed-form path runs on numpy alone; scipy loads with the oracle.

Each case starts a fresh interpreter, runs one import or one CLI
command, and lists the scipy modules left in sys.modules.  The package
still re-exports the oracle names, resolved on first lookup.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import waveqed
import waveqed.oracle

SRC = Path(waveqed.__file__).resolve().parents[1]

ORACLE_NAMES = (
    "OdeConfig", "OracleError", "QuadratureConfig", "integrate_transition_odes",
    "quadrature_rates", "quadrature_spectrum",
)

ALL = [
    "__version__", "BASIS", "BASIS_INDEX", "OMEGA", "PRESET_NAMES", "TOTAL",
    "CollectiveRates", "DickeDensity", "DickeState", "Direction", "SystemParams",
    "collective_rates", "phase_factors", "preset_state", "CouplingMatrices",
    "coupling_matrices", "emission_rate", "radiated_energy",
    "transition_probability", *ORACLE_NAMES, "PeakAnalysis",
    "SpectrumSample", "line_tail_area", "peak_analysis",
    "photon_number", "single_qubit_baseline", "spectral_density",
    "TransitionOperatorState",
    "closed_form_state", "population_elements",
]

# argv for waveqed.cli.main, or None for a bare `import waveqed`
_SCRIPT = """\
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import waveqed
else:
    from waveqed.cli import main
    assert main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

_K0D = ["--k0d", "1.3"]
_COMMANDS = [
    ["spectrum", "--initial", "eg", *_K0D],
    ["rate", "--initial", "E", *_K0D],
    ["prob", "--from", "E", *_K0D],
    ["sweep", "--initial", "S", "--k0d-start", "0.5", "--k0d-stop", "2", "--k0d-count", "3"],
]
_CASES = [None] + [
    cmd + ["--format", fmt, "--output", f"out.{fmt}"]
    for cmd in _COMMANDS
    for fmt in ("csv", "json")
] + [["figures", "--output-dir", "figs"]]


def _case_id(argv):
    if argv is None:
        return "import"
    return argv[0] if argv[0] == "figures" else f"{argv[0]}-{argv[-3]}"


@pytest.mark.parametrize("argv", _CASES, ids=_case_id)
def test_no_scipy_outside_the_oracle(argv, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(argv)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_oracle_names_resolve_lazily():
    for name in ORACLE_NAMES:
        assert getattr(waveqed, name) is getattr(waveqed.oracle, name)
    assert waveqed.__all__ == ALL
    namespace = {}
    exec("from waveqed import *", namespace)
    assert set(ALL) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        waveqed.no_such_name  # noqa: B018
