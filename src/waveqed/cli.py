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
            if value is not None and not math.isfinite(value):
                raise ValueError(
                    f"{name.replace('_', '-')} must be finite, got {value}"
                )
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
    return [(_fmt(x), _fmt(v), *tag) for x, v in zip(grid, values)]


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
            f"transition states must be one of G, E, S, A, got {exc.args[0]!r}"
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


def figure_datasets(gamma_ratio: float = 0.05) -> dict:
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

def _validate_odes(gamma_ratio: float) -> list:
    """Closed-form elements against the integrated equations of motion."""
    from .oracle import OdeConfig, integrate_transition_odes

    checks = []
    config = OdeConfig(method="DOP853", rel_tol=1e-11, abs_tol=1e-13, t_max=5.0)
    for k0d in (0.5 * _PI, 2 * _PI):
        params = SystemParams(gamma_ratio=gamma_ratio, k0d=k0d)
        t_grid = np.linspace(0.0, 5.0 / params.gamma, 11)
        traj = integrate_transition_odes(params, config, t_grid)
        worst = max(
            float(np.max(np.abs(closed_form_state(params, state.t).phi - state.phi)))
            for state in traj
        )
        checks.append((f"elements closed vs ODE, k0d = {k0d:.4g}", worst, 1e-8))
    return checks


def _validate_rates(gamma_ratio: float) -> list:
    """Analytic rates against the equal-time correlation diagonal."""
    from .oracle import QuadratureConfig, quadrature_rates

    checks = []
    # the step of a 256-point grid to Gamma t = 10, out to Gamma t = 30
    config = QuadratureConfig(T=30.0, n_steps=768)
    cases = (("S", 2 * _PI), ("eg", 0.5 * _PI))
    for initial, k0d in cases:
        rho0 = preset_state(initial)
        params = SystemParams(gamma_ratio=gamma_ratio, k0d=k0d)
        t_grid, w_oracle = quadrature_rates(rho0, params, Direction.FORWARD, config)
        w = emission_rate(rho0, params, t_grid, Direction.FORWARD)
        worst = float(np.max(np.abs(w - w_oracle))) / params.gamma
        checks.append((f"rate W_{initial} closed vs oracle, k0d = {k0d:.4g}", worst, 1e-8))
    return checks


def _validate_spectra(gamma_ratio: float) -> list:
    """Analytic spectral density against the block-exponential oracle."""
    from .oracle import QuadratureConfig, quadrature_spectrum

    checks = []
    config = QuadratureConfig(T=20.0, n_steps=1024)
    cases = (
        ("S", 2 * _PI, (1.0,)),
        ("eg", 0.5 * _PI, (1.0 - gamma_ratio, 1.0, 1.0 + gamma_ratio)),
        ("E", 0.5 * _PI, (1.0,)),
    )
    for initial, k0d, omegas in cases:
        rho0 = preset_state(initial)
        params = SystemParams(gamma_ratio=gamma_ratio, k0d=k0d)
        omegas = np.array(omegas)
        closed = spectral_density(rho0, params, Direction.FORWARD, omegas)
        oracle = quadrature_spectrum(rho0, params, Direction.FORWARD, omegas, config)
        scale = max(float(np.max(np.abs(closed))), 1e-9)
        worst = float(np.max(np.abs(closed - oracle))) / scale
        checks.append(
            (f"spectrum S_{initial} closed vs quadrature, k0d = {k0d:.4g}", worst, 2e-3)
        )
    return checks


def _run_validate(cfg: RunConfig) -> int:
    suites = {
        "odes": (_validate_odes,),
        "rates": (_validate_rates,),
        "spectra": (_validate_spectra,),
        "all": (_validate_odes, _validate_rates, _validate_spectra),
    }
    if cfg.suite not in suites:
        raise ValueError(
            f"unknown validation suite {cfg.suite!r}; pick from {sorted(suites)}"
        )
    from .oracle import OracleError

    checks = []
    try:
        for runner in suites[cfg.suite]:
            checks.extend(runner(cfg.gamma_ratio))
    except OracleError as exc:
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2
    failed = False
    for name, worst, threshold in checks:
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

    def common(p, k0d_required=True):
        p.add_argument("--gamma-ratio", type=float, default=0.05,
                       help="Gamma/Omega (default 0.05)")
        if k0d_required:
            p.add_argument("--k0d", type=float, required=True,
                           help="effective distance k0*d in radians")
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")

    p = sub.add_parser("spectrum", help="long-time radiation spectral density")
    common(p)
    p.add_argument("--initial", required=True,
                   help=f"preset ({', '.join(PRESET_NAMES)}) or density-matrix file")
    p.add_argument("--direction", choices=sorted(_DIRECTIONS), default="forward")
    p.add_argument("--omega-min", type=float, help="grid start, units of Omega")
    p.add_argument("--omega-max", type=float, help="grid end, units of Omega")
    p.add_argument("--omega-points", type=int, default=1601)

    p = sub.add_parser("rate", help="emission rate W/Gamma versus Gamma*t")
    common(p)
    p.add_argument("--initial", required=True,
                   help=f"preset ({', '.join(PRESET_NAMES)}) or density-matrix file")
    p.add_argument("--direction", choices=sorted(_DIRECTIONS), default="total")
    p.add_argument("--t-max", type=float, default=5.0, help="horizon in Gamma*t")
    p.add_argument("--t-points", type=int, default=501)

    p = sub.add_parser("prob", help="transition probabilities versus Gamma*t")
    common(p)
    p.add_argument("--from", dest="from_state", required=True,
                   choices=("G", "E", "S", "A"))
    p.add_argument("--to", dest="to_state", choices=("G", "E", "S", "A"),
                   help="target state (default: all four)")
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--t-points", type=int, default=501)

    p = sub.add_parser("sweep", help="repeat rate/spectrum over a k0d range")
    common(p, k0d_required=False)
    p.add_argument("--initial", required=True)
    p.add_argument("--quantity", choices=("rate", "spectrum"), default="rate")
    p.add_argument("--direction", choices=sorted(_DIRECTIONS), default="total")
    p.add_argument("--k0d-start", type=float, required=True)
    p.add_argument("--k0d-stop", type=float, required=True)
    p.add_argument("--k0d-count", type=int, default=9)
    p.add_argument("--omega-min", type=float)
    p.add_argument("--omega-max", type=float)
    p.add_argument("--omega-points", type=int, default=201)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--t-points", type=int, default=101)

    p = sub.add_parser("figures", help="emit the nine standard figure datasets")
    p.add_argument("--gamma-ratio", type=float, default=0.05)
    p.add_argument("--output-dir", default="figures_data")

    p = sub.add_parser("validate", help="run oracle cross-checks")
    p.add_argument("--gamma-ratio", type=float, default=0.05)
    p.add_argument("--suite", choices=("all", "odes", "rates", "spectra"),
                   default="all")
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
