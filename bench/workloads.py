"""The four workloads: seeded inputs, one operation each, and output checks.

Every workload yields rounds of operations.  A round always holds the
same operations in the same order; the seed and the round index choose
only the values (spacings, random states, detector frequencies), so a
run made of whole rounds has the same make-up whatever its seed.  The
checks compare each output with numbers the benchmark computes itself,
or with properties the method must have; none compares with saved
output of the program.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

GAMMA = 0.05  # Gamma/Omega of every workload: the CLI's and validate's default
OMEGAS = np.linspace(1.0 - 10.0 * GAMMA, 1.0 + 10.0 * GAMMA, 1601)
GAMMA_T = np.linspace(0.0, 5.0, 501)
PI4 = math.pi / 4.0


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own computation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(actual, expected, tol: float, what: str) -> None:
    """max |actual - expected| <= tol * max |expected| over the whole array."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(np.all(np.isfinite(actual)), f"{what}: non-finite output")
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    dev = float(np.max(np.abs(actual - expected))) / scale
    require(dev <= tol, f"{what}: relative deviation {dev:.3e} > {tol:g}")


def round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def spacing(seed: int, r: int) -> float:
    """k0d of round r: exact multiples of pi/4 alternate with generic values.

    Even rounds take k*pi/4 for k = 1..8 in turn; odd rounds take one
    value inside each pi/4-wide stratum in turn, at a seeded position
    kept 0.02*pi/4 away from the multiples.  The order of the kinds of
    spacing is the same for every seed, so runs of equal length have
    the same make-up and the seed moves only the values.
    """
    pos = r % 16
    j = pos // 2
    if pos % 2 == 0:
        return (j + 1) * PI4
    return (j + round_rng(seed, r).uniform(0.02, 0.98)) * PI4


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Full-rank random 4x4 density matrix (every entry nonzero)."""
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = a @ a.conj().T
    return m / np.trace(m).real


def collective(gamma: float, k0d: float) -> tuple:
    """(Gamma_+, Gamma_-, Omega_+, Omega_-) from cos and sin of k0d."""
    c, s = math.cos(k0d), math.sin(k0d)
    return gamma * (1.0 + c), gamma * (1.0 - c), 1.0 + 0.5 * gamma * s, 1.0 - 0.5 * gamma * s


def lorentzian(width: float, center: float, omegas) -> np.ndarray:
    """Single collective line Gamma/((omega - Omega)^2 + Gamma^2/4); 0 if dark."""
    omegas = np.asarray(omegas, dtype=float)
    if width == 0.0:
        return np.zeros_like(omegas)
    return width / ((omegas - center) ** 2 + 0.25 * width * width)


def child_env(root: Path) -> dict:
    """The caller's environment with root/src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Op:
    """One timed call into the program and the checks on what it returned."""

    def __init__(self, run, check):
        self.run = run
        self.check = check


class Workload:
    name = ""
    imports = "waveqed"  # what the workload's own process imports
    tail_pct = 50.0  # the op_tail_ms percentile, sized to the run length
    traced_rounds = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = None

    def round(self, r: int) -> list:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# spectra: t = infinity spectral densities on the standard window
# ---------------------------------------------------------------------------

class Spectra(Workload):
    """Round: one spacing, six states, each an op of two directions + peaks."""

    name = "spectra"
    tail_pct = 95.0
    traced_rounds = 4
    PARTNERS = ("S", "A", "eg", "ge")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        from waveqed import core, spectra

        self.core = core
        self.spectra = spectra
        self.omegas = [float(w) for w in OMEGAS]

    def round(self, r):
        core = self.core
        rng = round_rng(self.seed, r)
        k0d = spacing(self.seed, r)
        params = core.SystemParams(gamma_ratio=GAMMA, k0d=k0d)
        rand = random_density(rng)
        lam = float(rng.uniform(0.2, 0.8))
        partner = self.PARTNERS[r % 4]
        states = {name: core.preset_state(name) for name in self.PARTNERS}
        states["rand"] = core.DickeDensity.from_matrix(rand)
        states["mix"] = core.DickeDensity.from_matrix(
            lam * rand + (1.0 - lam) * states[partner].matrix())
        gp, gm, wp, wm = collective(GAMMA, k0d)
        step = float(OMEGAS[1] - OMEGAS[0])
        done = {}

        def run(name):
            return lambda: self._spectrum(states[name], params)

        def check(name):
            def verify(out):
                fwd, bwd, peaks_fwd, _peaks_bwd = out
                top = max(float(np.max(np.abs(fwd))), float(np.max(np.abs(bwd))), 1e-300)
                require(min(fwd.min(), bwd.min()) >= -1e-12 * top,
                        f"{name}: negative spectral density for a physical state")
                if name in ("S", "A"):
                    width, center = (gp, wp) if name == "S" else (gm, wm)
                    for values in (fwd, bwd):
                        close(values, lorentzian(width, center, OMEGAS), 1e-9,
                              f"{name} spectrum vs Lorentzian, k0d={k0d!r}")
                    if width > 0.0:
                        require(any(abs(w - center) <= step for w, _v in peaks_fwd.peaks),
                                f"{name}: no peak within one grid step of {center}")
                if name == "ge" and "eg" in done:
                    close(fwd, done["eg"][1], 1e-9, "forward ge vs backward eg")
                    close(bwd, done["eg"][0], 1e-9, "backward ge vs forward eg")
                if name == "mix" and "rand" in done and partner in done:
                    for i, label in ((0, "forward"), (1, "backward")):
                        close(out[i], lam * done["rand"][i] + (1.0 - lam) * done[partner][i],
                              1e-9, f"{label} spectrum of a mixture vs mixed spectra")
                done[name] = out
            return verify

        return [Op(run(n), check(n)) for n in ("S", "A", "eg", "ge", "rand", "mix")]

    def _spectrum(self, rho, params):
        spectra = self.spectra
        out = []
        for direction in (self.core.Direction.FORWARD, self.core.Direction.BACKWARD):
            values = [spectra.spectral_density(rho, params, direction, w) for w in self.omegas]
            samples = [spectra.SpectrumSample(w, v, direction, rho)
                       for w, v in zip(self.omegas, values)]
            out.append((np.array(values), spectra.peak_analysis(samples)))
        return out[0][0], out[1][0], out[0][1], out[1][1]


# ---------------------------------------------------------------------------
# dynamics: finite-t rates, probabilities and photon numbers
# ---------------------------------------------------------------------------

class Dynamics(Workload):
    """Round: one op at one spacing, every quantity on the 501-point Gamma*t grid."""

    name = "dynamics"
    tail_pct = 65.0
    traced_rounds = 4

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        from waveqed import core, observables, spectra

        self.core = core
        self.observables = observables
        self.spectra = spectra
        self.times = [float(gt) / GAMMA for gt in GAMMA_T]

    def round(self, r):
        core = self.core
        rng = round_rng(self.seed, r)
        k0d = spacing(self.seed, r)
        params = core.SystemParams(gamma_ratio=GAMMA, k0d=k0d)
        rho = core.DickeDensity.from_matrix(random_density(rng))
        sym = core.preset_state("S")
        gp, _gm, wp, wm = collective(GAMMA, k0d)
        u = rng.uniform(0.2, 1.0, size=2)
        detectors = [wp + u[0] * GAMMA, wm - u[1] * GAMMA]
        return [Op(lambda: self._curves(rho, sym, params, detectors),
                   lambda out: self._check(out, gp, wp, detectors, k0d))]

    def _curves(self, rho, sym, params, detectors):
        obs, spectra, core = self.observables, self.spectra, self.core
        fwd, bwd = core.Direction.FORWARD, core.Direction.BACKWARD
        ts = self.times
        out = {
            "w_fwd": [obs.emission_rate(rho, params, t, fwd) for t in ts],
            "w_bwd": [obs.emission_rate(rho, params, t, bwd) for t in ts],
            "w_tot": [obs.emission_rate(rho, params, t, core.TOTAL) for t in ts],
            "w_sym": [obs.emission_rate(sym, params, t, core.TOTAL) for t in ts],
        }
        for i in core.DickeState:
            for f in core.DickeState:
                out[f"p_{i.value}{f.value}"] = [
                    obs.transition_probability(i, f, params, t) for t in ts]
        for j, w in enumerate(detectors):
            out[f"n_rho{j}"] = [spectra.photon_number(rho, params, fwd, w, t) for t in ts]
            out[f"n_sym{j}"] = [spectra.photon_number(sym, params, fwd, w, t) for t in ts]
        return {k: np.array(v) for k, v in out.items()}

    def _check(self, out, gp, wp, detectors, k0d):
        t = GAMMA_T / GAMMA
        for key, values in out.items():
            require(np.all(np.isfinite(values)), f"{key}: non-finite output")
        close(out["w_tot"], out["w_fwd"] + out["w_bwd"], 1e-12, "TOTAL rate vs forward + backward")
        require(min(out["w_fwd"].min(), out["w_bwd"].min()) >= -1e-12 * GAMMA,
                "negative one-direction emission rate for a physical state")
        close(out["w_sym"], gp * np.exp(-gp * t), 1e-12, f"TOTAL rate of S, k0d={k0d!r}")
        names = "GESA"
        for i in names:
            probs = np.array([out[f"p_{i}{f}"] for f in names])
            require(np.all((probs >= -1e-12) & (probs <= 1.0 + 1e-12)),
                    f"probability out of [0, 1] from {i}")
            close(probs.sum(axis=0), np.ones_like(t), 1e-12, f"probabilities out of {i} sum")
        close(out["p_EE"], np.exp(-2.0 * GAMMA * t), 1e-12, "P(E->E) vs exp(-2 Gamma t)")
        for j, w in enumerate(detectors):
            delta = w - wp
            z = 1j * delta + 0.5 * gp
            ref = gp * np.abs(1.0 - np.exp(-z * t)) ** 2 / (delta**2 + 0.25 * gp * gp)
            close(out[f"n_sym{j}"], ref, 1e-9, f"finite-t photon number of S at omega={w!r}")
            n = out[f"n_rho{j}"]
            require(n.min() >= -1e-10 * max(float(np.abs(n).max()), 1e-300),
                    "negative photon number for a physical state")
            require(abs(n[0]) <= 1e-15, "photon number at t = 0 is not zero")


# ---------------------------------------------------------------------------
# oracle: one full cross-check per op, at a fresh spacing
# ---------------------------------------------------------------------------

ORACLE_STEPS = 512
ORACLE_T = 40.0
#: half-width of the spacing bands around pi/2 and 3*pi/2; with
#: |cos k0d| <= sin(0.3) every bright rate is >= 0.70 Gamma, so the
#: quadrature horizon T = 40/Gamma already covers 2 ln(1e6)/Gamma_min
#: and the oracle keeps the requested grid instead of extending it
ORACLE_BAND = 0.3


class Oracle(Workload):
    """Round: one op; its spacing lies in the next of eight strata of the bands."""

    name = "oracle"
    tail_pct = 50.0
    traced_rounds = 8

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        from waveqed import core, observables, oracle, spectra, transition_operator

        self.core = core
        self.observables = observables
        self.oracle = oracle
        self.spectra = spectra
        self.transition_operator = transition_operator
        self.ode_config = oracle.OdeConfig(method="DOP853", rel_tol=1e-11,
                                           abs_tol=1e-13, t_max=5.0)
        self.quad_config = oracle.QuadratureConfig(T=ORACLE_T, n_steps=ORACLE_STEPS)

    def round(self, r):
        core = self.core
        stratum = r % 8
        rng = round_rng(self.seed, r)
        center = math.pi / 2 if stratum < 4 else 3 * math.pi / 2
        offset = (stratum % 4 - 2 + rng.uniform(0.0, 1.0)) * ORACLE_BAND / 2
        k0d = center + offset
        params = core.SystemParams(gamma_ratio=GAMMA, k0d=k0d)
        rho = core.DickeDensity.from_matrix(random_density(rng))
        gp, _gm, wp, wm = collective(GAMMA, k0d)
        omegas = np.array([wp, wm, 1.0 + rng.uniform(-1.0, 1.0) * GAMMA])
        return [Op(lambda: self._cross_check(params, rho, omegas),
                   lambda out: self._check(out, gp, wp, omegas, k0d))]

    def _cross_check(self, params, rho, omegas):
        core, obs, orc, spectra = self.core, self.observables, self.oracle, self.spectra
        fwd, bwd = core.Direction.FORWARD, core.Direction.BACKWARD
        sym = core.preset_state("S")
        t_grid = np.linspace(0.0, 5.0 / params.gamma, 11)
        ode_dev = 0.0
        for state in orc.integrate_transition_odes(params, self.ode_config, t_grid):
            closed = self.transition_operator.closed_form_state(params, state.t)
            closed_mats = closed.element_matrices()
            for key, mat in state.element_matrices().items():
                ode_dev = max(ode_dev, float(np.max(np.abs(mat - closed_mats[key]))))
        out = {"ode_dev": ode_dev}
        for label, state, direction in (("sym", sym, fwd), ("rho", rho, bwd)):
            t_q, w_q = orc.quadrature_rates(state, params, direction, self.quad_config)
            sampled = t_q[::16]
            out[f"t_{label}"] = t_q
            out[f"wq_{label}"] = w_q
            out[f"wc_{label}"] = np.array(
                [obs.emission_rate(state, params, float(t), direction) for t in sampled])
        out["sq_rho"] = orc.quadrature_spectrum(rho, params, fwd, omegas, self.quad_config)
        out["sc_rho"] = np.array(
            [spectra.spectral_density(rho, params, fwd, float(w)) for w in omegas])
        out["sq_sym"] = orc.quadrature_spectrum(sym, params, bwd, omegas, self.quad_config)
        return out

    def _check(self, out, gp, wp, omegas, k0d):
        g = GAMMA
        require(out["ode_dev"] <= 1e-8,
                f"closed-form elements vs ODE: {out['ode_dev']:.3e} > 1e-8, k0d={k0d!r}")
        for label in ("sym", "rho"):
            require(out[f"t_{label}"].size == ORACLE_STEPS + 1,
                    f"quadrature grid has {out[f't_{label}'].size} points, "
                    f"not {ORACLE_STEPS + 1}, k0d={k0d!r}")
            dev = np.max(np.abs(out[f"wq_{label}"][::16] - out[f"wc_{label}"])) / g
            require(dev <= 1e-8, f"quadrature vs closed-form rate ({label}): {dev:.3e} > 1e-8")
        t = out["t_sym"]
        dev = np.max(np.abs(out["wq_sym"] - 0.5 * gp * np.exp(-gp * t))) / g
        require(dev <= 1e-8, f"quadrature S rate vs Gamma+/2 exp(-Gamma+ t): {dev:.3e}")
        close(out["sq_rho"], out["sc_rho"], 2e-3, f"quadrature vs closed-form spectrum, k0d={k0d!r}")
        close(out["sq_sym"], lorentzian(gp, wp, omegas), 2e-3, "quadrature S spectrum vs Lorentzian")


# ---------------------------------------------------------------------------
# cli: one `python -m waveqed.cli` process per op
# ---------------------------------------------------------------------------

SPECTRUM_COLUMNS = ["omega_over_Omega", "value", "direction", "initial", "k0d"]
RATE_COLUMNS = ["Gamma_t", "value", "direction", "initial", "k0d"]
PROB_COLUMNS = ["Gamma_t", "value", "transition", "initial", "k0d"]


class Cli(Workload):
    """Round: eight processes, each subcommand once as CSV and once as JSON."""

    name = "cli"
    imports = "waveqed.cli"
    tail_pct = 50.0
    traced_rounds = 1

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.root = Path(__file__).resolve().parent.parent
        self.cli_dir = out_dir / "cli"
        self.cli_dir.mkdir(parents=True, exist_ok=True)
        self.env = child_env(self.root)

    def round(self, r):
        rng = round_rng(self.seed, r)
        k = [float(x) for x in rng.uniform(0.1, 2 * math.pi - 0.1, size=7)]
        rho_file = self.cli_dir / "rho.txt"
        rho_file.write_text("\n".join(
            " ".join(repr(complex(x)) for x in row) for row in random_density(rng)) + "\n")
        rho = str(rho_file)
        lo = k[6]
        specs = [
            (["spectrum", "--initial", "S", "--k0d", repr(k[0])], "csv",
             ("spectrum", "S", k[0])),
            (["spectrum", "--initial", "A", "--k0d", repr(k[1])], "json",
             ("spectrum", "A", k[1])),
            (["rate", "--initial", rho, "--k0d", repr(k[2]), "--direction", "total"], "csv",
             ("rows", RATE_COLUMNS, 501)),
            (["rate", "--initial", rho, "--k0d", repr(k[3]), "--direction", "forward"], "json",
             ("rows", RATE_COLUMNS, 501)),
            (["prob", "--from", "E", "--k0d", repr(k[4])], "csv", ("prob", "E", k[4])),
            (["prob", "--from", "S", "--k0d", repr(k[5])], "json", ("prob", "S", k[5])),
            (["sweep", "--initial", "eg", "--quantity", "rate",
              "--k0d-start", repr(lo), "--k0d-stop", repr(lo + 0.5)], "csv",
             ("rows", RATE_COLUMNS, 9 * 101)),
            (["sweep", "--initial", rho, "--quantity", "spectrum",
              "--k0d-start", repr(lo), "--k0d-stop", repr(lo + 0.5)], "json",
             ("rows", SPECTRUM_COLUMNS, 9 * 201)),
        ]
        ops = []
        for i, (args, fmt, expect) in enumerate(specs):
            path = self.cli_dir / f"out{i}.{fmt}"
            argv = args + ["--format", fmt, "--output", str(path)]
            ops.append(Op(self._runner(argv, path), self._checker(fmt, expect)))
        return ops

    def _runner(self, argv, path):
        def run():
            if path.exists():
                path.unlink()
            if self.tracer is not None:
                # traced: in-process through cli.main, compute calls wrapped
                code = sys.modules["waveqed.cli"].main(argv)
            else:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "waveqed.cli", *argv], cwd=self.root,
                    env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                try:
                    _out, err = proc.communicate(timeout=120)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()
                    raise
                code = proc.returncode
                if code != 0:
                    raise RuntimeError(f"waveqed {argv[0]} exited {code}: {err.decode()[-300:]}")
            require(code == 0, f"waveqed {argv[0]} returned {code}")
            data = path.read_bytes()
            if self.tracer is not None:
                self.tracer.count("cli.bytes_out", len(data))
            return data
        return run

    def _checker(self, fmt, expect):
        def verify(data):
            text = data.decode()
            if fmt == "json":
                payload = json.loads(text)
                columns = payload["columns"]
                rows = [[s[c] for c in columns] for s in payload["samples"]]
                require(payload["metadata"]["version"], "JSON metadata has no version")
            else:
                lines = text.splitlines()
                columns = lines[0].split(",")
                rows = [line.split(",") for line in lines[1:]]
            kind = expect[0]
            if kind == "rows":
                _kind, want_cols, n = expect
            elif kind == "spectrum":
                want_cols, n = SPECTRUM_COLUMNS, OMEGAS.size
            else:
                want_cols, n = PROB_COLUMNS, 4 * GAMMA_T.size
            require(columns == want_cols, f"header {columns} != {want_cols}")
            require(len(rows) == n, f"{len(rows)} rows, expected {n}")
            grid = np.array([float(row[0]) for row in rows])
            values = np.array([float(row[1]) for row in rows])
            require(np.all(np.isfinite(grid)) and np.all(np.isfinite(values)),
                    "non-finite value in output")
            if kind == "spectrum":
                _kind, state, k0d = expect
                gp, gm, wp, wm = collective(GAMMA, k0d)
                width, center = (gp, wp) if state == "S" else (gm, wm)
                close(grid, OMEGAS, 1e-12, "printed omega grid")
                ref = lorentzian(width, center, OMEGAS)
                dev = np.abs(values - ref) - 1e-11 * np.abs(ref) - 1e-13 * ref.max()
                require(np.all(dev <= 0.0), f"{state} spectrum off the Lorentzian at 12 digits")
            if kind == "prob":
                _kind, source, k0d = expect
                probs = values.reshape(GAMMA_T.size, 4)
                close(grid[::4], GAMMA_T, 1e-12, "printed Gamma*t grid")
                close(probs.sum(axis=1), np.ones(GAMMA_T.size), 1e-10, "probabilities sum")
                gp, _gm, _wp, _wm = collective(GAMMA, k0d)
                rate = 2.0 * GAMMA if source == "E" else gp
                stay = probs[:, "GESA".index(source)]
                close(stay, np.exp(-rate * GAMMA_T / GAMMA), 1e-11, f"P({source}->{source})")
        return verify

    def peak_rss_mb(self) -> float:
        # the largest resident set of any waited-for child: the cli processes
        # and the set-up imports, which load the same modules
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (Spectra, Dynamics, Oracle, Cli)}
