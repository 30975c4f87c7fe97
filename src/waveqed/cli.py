"""Command-line front end.

Subcommands compute spectra, rate curves, and transition probabilities
for preset or file-specified initial states, sweep k0d, regenerate the
standard figure datasets, and run the self-validation suite.

Reported units, everywhere: frequencies as omega/Omega, times as
Gamma*t, rates as W/Gamma, spectra as the dimensionless S-bar(omega).
CSV rows carry the grid value first, then value, direction, initial
state label, and k0d in radians.  JSON output mirrors the rows and adds
a metadata object (version, echoed config, provenance).

Exit codes: 0 success, 1 usage or input error (single-line "error: ..."
on stderr), 2 validation-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    PRESET_NAMES,
    TOTAL,
    DickeDensity,
    DickeState,
    Direction,
    SystemParams,
    preset_state,
    real_values,
)
from .observables import emission_rate, transition_probability
from .spectra import single_qubit_baseline, spectral_density
from .transition_operator import closed_form_state

SPECTRUM_HEADER = "omega_over_Omega,value,direction,initial,k0d"
RATE_HEADER = "Gamma_t,value,direction,initial,k0d"
PROB_HEADER = "Gamma_t,value,transition,initial,k0d"

_DIRECTIONS = {
    "forward": Direction.FORWARD,
    "backward": Direction.BACKWARD,
    "total": TOTAL,
}
_STATES = tuple(state.value for state in DickeState)


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, validated up front."""

    subcommand: str
    gamma_ratio: float = 0.05
    k0d: float | None = None
    initial: str | None = None
    direction: str = "forward"
    omega_min: float | None = None
    omega_max: float | None = None
    omega_points: int = 1601
    t_max: float = 5.0
    t_points: int = 501
    from_state: str | None = None
    to_state: str | None = None
    k0d_start: float | None = None
    k0d_stop: float | None = None
    k0d_count: int = 9
    quantity: str = "rate"
    suite: str = "all"
    output: str | None = None
    output_dir: str = "figures_data"
    fmt: str = "csv"

    def __post_init__(self) -> None:
        for name in ("gamma_ratio", "k0d", "omega_min", "omega_max", "t_max",
                     "k0d_start", "k0d_stop"):
            value = getattr(self, name)
            if value is not None:
                real_values(name.replace("_", "-"), value)
        if self.gamma_ratio <= 0:
            raise ValueError(f"gamma-ratio must be positive, got {self.gamma_ratio}")
        if self.omega_points < 2 or self.t_points < 2:
            raise ValueError("grids need at least 2 points")
        if self.t_max <= 0:
            raise ValueError(f"t-max must be positive, got {self.t_max}")
        lo, hi = self.omega_span()
        if not lo < hi:
            raise ValueError(f"omega grid is empty: min {lo} must be below max {hi}")
        if self.subcommand == "sweep":
            if self.k0d_start is None or self.k0d_stop is None:
                raise ValueError("sweep needs --k0d-start and --k0d-stop")
            if self.k0d_count < 1:
                raise ValueError("sweep needs at least one k0d point")
            if self.k0d_stop < self.k0d_start:
                raise ValueError("k0d sweep range must be increasing")

    def omega_span(self) -> tuple:
        """Default window: 10 linewidths either side of the resonance."""
        lo = 1.0 - 10.0 * self.gamma_ratio if self.omega_min is None else self.omega_min
        hi = 1.0 + 10.0 * self.gamma_ratio if self.omega_max is None else self.omega_max
        return lo, hi

    def omega_grid(self) -> np.ndarray:
        return np.linspace(*self.omega_span(), self.omega_points)

    def gt_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.t_points)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_density_file(path) -> DickeDensity:
    """Read a 4x4 complex density matrix in (G, E, S, A) order.

    Format: four data lines of four whitespace-separated complex
    numbers in Python syntax (0.25, 1e-3, 0.5+0.1j, ...); blank lines
    and '#' comments are ignored.  Trace, Hermiticity, and positivity
    are validated and the violated rule is named on rejection.
    """
    path = Path(path)
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        payload = line.split("#", 1)[0].strip()
        if not payload:
            continue
        values = []
        for token in payload.split():
            try:
                values.append(complex(token))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: {token!r} is not a complex number"
                ) from None
        rows.append(values)
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        shape = f"{len(rows)} rows" + (
            f" of lengths {[len(r) for r in rows]}" if rows else ""
        )
        raise ValueError(
            f"{path}: density-matrix file must hold a 4x4 matrix "
            f"in (G, E, S, A) basis order, got {shape}"
        )
    try:
        return DickeDensity.from_matrix(np.array(rows, dtype=complex))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _resolve_initial(name: str) -> tuple:
    """Map --initial to (DickeDensity, label): preset name or file path."""
    if name in PRESET_NAMES:
        return preset_state(name), name
    path = Path(name)
    if path.exists():
        return parse_density_file(path), path.stem
    raise ValueError(
        f"initial state {name!r} is neither a preset "
        f"({', '.join(PRESET_NAMES)}) nor an existing density-matrix file"
    )


# ---------------------------------------------------------------------------
# row builders
# ---------------------------------------------------------------------------

def _rows(cfg: RunConfig, grid, values, label: str, k0d: str) -> list:
    """One curve: grid value, value, direction, initial label, k0d."""
    direction = _DIRECTIONS[cfg.direction]
    tag = (TOTAL.label if direction is TOTAL else direction.value, label, k0d)
    return [(_fmt(x), _fmt(v), *tag) for x, v in zip(grid.tolist(), values.tolist())]


def _spectrum_rows(cfg: RunConfig, k0d: float, initial: tuple) -> list:
    rho0, label = initial
    params = SystemParams(gamma_ratio=cfg.gamma_ratio, k0d=k0d)
    omegas = cfg.omega_grid()
    values = spectral_density(rho0, params, _DIRECTIONS[cfg.direction], omegas)
    return _rows(cfg, omegas, values, label, _fmt(k0d))


def _rate_rows(cfg: RunConfig, k0d: float, initial: tuple) -> list:
    rho0, label = initial
    params = SystemParams(gamma_ratio=cfg.gamma_ratio, k0d=k0d)
    gts = cfg.gt_grid()
    rates = emission_rate(rho0, params, gts / params.gamma, _DIRECTIONS[cfg.direction])
    return _rows(cfg, gts, rates / params.gamma, label, _fmt(k0d))


def _prob_rows(cfg: RunConfig) -> list:
    try:
        source = DickeState[cfg.from_state]
        targets = (
            list(DickeState) if cfg.to_state is None else [DickeState[cfg.to_state]]
        )
    except KeyError as exc:
        raise ValueError(
            f"transition states must be one of {', '.join(_STATES)}, got {exc.args[0]!r}"
        ) from None
    params = SystemParams(gamma_ratio=cfg.gamma_ratio, k0d=cfg.k0d)
    gts = cfg.gt_grid()
    curves = [
        (f"{source.value}->{target.value}",
         transition_probability(source, target, params, gts / params.gamma))
        for target in targets
    ]
    return [
        (_fmt(gt), _fmt(p[idx]), transition, source.value, _fmt(cfg.k0d))
        for idx, gt in enumerate(gts)
        for transition, p in curves
    ]


_CURVES = {
    "spectrum": (SPECTRUM_HEADER, _spectrum_rows),
    "rate": (RATE_HEADER, _rate_rows),
}


def _curve_rows(cfg: RunConfig) -> tuple:
    """(header, rows) of spectrum, rate and sweep: one row block per k0d."""
    sweep = cfg.subcommand == "sweep"
    header, builder = _CURVES[cfg.quantity if sweep else cfg.subcommand]
    k0ds = np.linspace(cfg.k0d_start, cfg.k0d_stop, cfg.k0d_count).tolist() if sweep else [cfg.k0d]
    initial = _resolve_initial(cfg.initial)
    return header, [row for k0d in k0ds for row in builder(cfg, k0d, initial)]


# ---------------------------------------------------------------------------
# figure datasets
# ---------------------------------------------------------------------------

_PI = math.pi
#: the nine standard datasets: preset, k0d list, direction, and whether
#: a single-qubit comparison curve is drawn alongside
_FIGURE_SPECS = (
    ("fig1", "S", (0.5 * _PI, _PI, 2 * _PI), "forward", True),
    ("fig2", "A", (0.25 * _PI, 0.5 * _PI, _PI, 2 * _PI), "forward", True),
    ("fig3", "S", (1.1 * _PI, 1.2 * _PI), "forward", True),
    ("fig4", "eg", (0.25 * _PI, 0.5 * _PI, 2 * _PI), "forward", True),
    ("fig5", "eg", (0.25 * _PI, 0.5 * _PI, 2 * _PI), "backward", True),
    ("fig6", "E", (0.25 * _PI, 0.5 * _PI, 2 * _PI), "forward", False),
    ("fig7", "s1e2", (0.25 * _PI, 0.5 * _PI, 2 * _PI), "forward", False),
    ("fig8", "s1e2", (0.25 * _PI, 0.5 * _PI, 2 * _PI), "backward", False),
    ("fig9", "s1s2", (0.5 * _PI, _PI, 2 * _PI), "forward", True),
)


def figure_datasets(gamma_ratio: float = RunConfig.gamma_ratio) -> dict:
    """All figure data as {file stem: (header, rows)}.

    Panel a of each figure is the spectral density and panel b the
    normalized rate W/Gamma, built like the spectrum and rate commands
    with their default grids; one row block per k0d in the order listed,
    single-qubit comparison block last where the figure draws one (its
    k0d column is 0).
    """
    out = {}
    for name, preset, k0ds, direction, baseline in _FIGURE_SPECS:
        cfg = RunConfig("figures", gamma_ratio=gamma_ratio, direction=direction)
        initial = preset_state(preset), preset
        arows = [row for k0d in k0ds for row in _spectrum_rows(cfg, k0d, initial)]
        brows = [row for k0d in k0ds for row in _rate_rows(cfg, k0d, initial)]
        if baseline:
            ref = SystemParams(gamma_ratio=gamma_ratio, k0d=0.0)
            omegas, gts = cfg.omega_grid(), cfg.gt_grid()
            values, rate_fn = single_qubit_baseline(ref, omegas)
            arows += _rows(cfg, omegas, values, "single_qubit", "0")
            brows += _rows(cfg, gts, rate_fn(gts / ref.gamma) / ref.gamma, "single_qubit", "0")
        out[f"{name}a"] = (SPECTRUM_HEADER, arows)
        out[f"{name}b"] = (RATE_HEADER, brows)
    return out


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------

# Each check yields (label, closed form, oracle, scale, threshold); one loop
# reports max|closed - oracle| / scale.  The oracle module is looked up at
# call time, so it is imported only by validate.

def _ode_checks(gamma_ratio: float):
    """Closed-form elements against the integrated equations of motion."""
    from . import oracle

    config = oracle.OdeConfig(method="DOP853", rel_tol=1e-11, abs_tol=1e-13, t_max=5.0)
    for k0d in (0.5 * _PI, 2 * _PI):
        params = SystemParams(gamma_ratio=gamma_ratio, k0d=k0d)
        traj = oracle.integrate_transition_odes(
            params, config, np.linspace(0.0, 5.0 / params.gamma, 11))
        closed = [closed_form_state(params, state.t).phi for state in traj]
        yield (f"elements closed vs ODE, k0d = {k0d:.4g}", np.array(closed),
               np.array([state.phi for state in traj]), 1.0, 1e-8)


def _rate_checks(gamma_ratio: float):
    """Analytic rates against the equal-time correlation diagonal."""
    from . import oracle

    # the step of a 256-point grid to Gamma t = 10, out to Gamma t = 30
    config = oracle.QuadratureConfig(T=30.0, n_steps=768)
    for initial, k0d in (("S", 2 * _PI), ("eg", 0.5 * _PI)):
        rho0 = preset_state(initial)
        params = SystemParams(gamma_ratio=gamma_ratio, k0d=k0d)
        t_grid, w = oracle.quadrature_rates(rho0, params, Direction.FORWARD, config)
        yield (f"rate W_{initial} closed vs oracle, k0d = {k0d:.4g}",
               emission_rate(rho0, params, t_grid, Direction.FORWARD), w, params.gamma, 1e-8)


def _spectrum_checks(gamma_ratio: float):
    """Analytic spectral density against the block-exponential oracle."""
    from . import oracle

    config = oracle.QuadratureConfig(T=20.0)
    cases = (
        ("S", 2 * _PI, [1.0]),
        ("eg", 0.5 * _PI, [1.0 - gamma_ratio, 1.0, 1.0 + gamma_ratio]),
        ("E", 0.5 * _PI, [1.0]),
    )
    for initial, k0d, omegas in cases:
        rho0 = preset_state(initial)
        params = SystemParams(gamma_ratio=gamma_ratio, k0d=k0d)
        omegas = np.array(omegas)
        closed = spectral_density(rho0, params, Direction.FORWARD, omegas)
        yield (f"spectrum S_{initial} closed vs quadrature, k0d = {k0d:.4g}", closed,
               oracle.quadrature_spectrum(rho0, params, Direction.FORWARD, omegas, config),
               max(float(np.max(np.abs(closed))), 1e-9), 2e-3)


_CHECKS = {"odes": _ode_checks, "rates": _rate_checks, "spectra": _spectrum_checks}
_SUITES = {"all": tuple(_CHECKS.values()), **{k: (v,) for k, v in _CHECKS.items()}}


def _run_validate(cfg: RunConfig) -> int:
    if cfg.suite not in _SUITES:
        raise ValueError(f"unknown validation suite {cfg.suite!r}; pick from {sorted(_SUITES)}")
    from .oracle import OracleError

    try:
        checks = [check for suite in _SUITES[cfg.suite] for check in suite(cfg.gamma_ratio)]
    except OracleError as exc:
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2
    failed = False
    for name, closed, oracle, scale, threshold in checks:
        worst = float(np.max(np.abs(closed - oracle))) / scale
        ok = worst <= threshold
        failed |= not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: max deviation {worst:.3e} "
              f"(threshold {threshold:g})")
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _csv(header: str, rows: list) -> str:
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def _emit(cfg: RunConfig, header: str, rows: list) -> None:
    if cfg.fmt == "json":
        payload = {
            "metadata": {
                "version": __version__,
                "provenance": "closed-form",
                "config": asdict(cfg),
            },
            "columns": header.split(","),
            "samples": [dict(zip(header.split(","), row)) for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _csv(header, rows)
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        Path(cfg.output).write_text(text)


def _run_figures(cfg: RunConfig) -> int:
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for stem, (header, rows) in figure_datasets(cfg.gamma_ratio).items():
        (outdir / f"{stem}.csv").write_text(_csv(header, rows))
    print(f"wrote 18 files to {outdir}")
    return 0


def run(cfg: RunConfig) -> int:
    """Execute one validated configuration; returns the exit code."""
    if cfg.subcommand in ("spectrum", "rate", "sweep"):
        _emit(cfg, *_curve_rows(cfg))
        return 0
    if cfg.subcommand == "prob":
        _emit(cfg, PROB_HEADER, _prob_rows(cfg))
        return 0
    if cfg.subcommand == "figures":
        return _run_figures(cfg)
    if cfg.subcommand == "validate":
        return _run_validate(cfg)
    raise ValueError(f"unknown subcommand {cfg.subcommand!r}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2; here that belongs to validation."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


_SUMMARIES = {
    "spectrum": "long-time radiation spectral density",
    "rate": "emission rate W/Gamma versus Gamma*t",
    "prob": "transition probabilities versus Gamma*t",
    "sweep": "repeat rate/spectrum over a k0d range",
    "figures": "emit the nine standard figure datasets",
    "validate": "run oracle cross-checks",
}
#: every option once: (flag, the subcommands that take it, add_argument
#: keywords), in each subcommand's option order; defaults live in RunConfig
_OPTIONS = (
    ("--gamma-ratio", "spectrum rate prob sweep figures validate",
     dict(type=float, help=f"Gamma/Omega (default {RunConfig.gamma_ratio:g})")),
    ("--k0d", "spectrum rate prob",
     dict(type=float, required=True, help="effective distance k0*d in radians")),
    ("--output", "spectrum rate prob sweep", dict(help="output file (default: stdout)")),
    ("--format", "spectrum rate prob sweep", dict(dest="fmt", choices=("csv", "json"))),
    ("--initial", "spectrum rate sweep",
     dict(required=True, help=f"preset ({', '.join(PRESET_NAMES)}) or density-matrix file")),
    ("--from", "prob", dict(dest="from_state", required=True, choices=_STATES)),
    ("--to", "prob",
     dict(dest="to_state", choices=_STATES, help="target state (default: all four)")),
    ("--quantity", "sweep", dict(choices=sorted(_CURVES))),
    ("--direction", "spectrum rate sweep", dict(choices=sorted(_DIRECTIONS))),
    ("--k0d-start", "sweep", dict(type=float, required=True)),
    ("--k0d-stop", "sweep", dict(type=float, required=True)),
    ("--k0d-count", "sweep", dict(type=int)),
    ("--omega-min", "spectrum sweep", dict(type=float, help="grid start, units of Omega")),
    ("--omega-max", "spectrum sweep", dict(type=float, help="grid end, units of Omega")),
    ("--omega-points", "spectrum sweep", dict(type=int)),
    ("--t-max", "rate prob sweep", dict(type=float, help="horizon in Gamma*t")),
    ("--t-points", "rate prob sweep", dict(type=int)),
    ("--output-dir", "figures", {}),
    ("--suite", "validate", dict(choices=tuple(_SUITES))),
)
#: where a subcommand's default differs from RunConfig's
_DEFAULTS = {
    "rate": dict(direction="total"),
    "sweep": dict(direction="total", omega_points=201, t_points=101),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="waveqed",
        description=(
            "Spontaneous emission of two waveguide-coupled qubits: spectra, "
            "rates, transition probabilities, figure datasets, validation. "
            "Frequencies in units of Omega, times as Gamma*t, rates as "
            "W/Gamma."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, summary in _SUMMARIES.items():
        p = sub.add_parser(name, help=summary)
        for flag, takers, kwargs in _OPTIONS:
            if name in takers.split():
                p.add_argument(flag, **kwargs)
        p.set_defaults(**_DEFAULTS.get(name, {}))
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items() if v is not None}
    return RunConfig(**fields)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(_config_from(args))
    except (ValueError, OSError) as exc:
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
