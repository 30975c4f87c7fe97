"""Acceptance gate: nine numbered end-to-end checks at fixed tolerances.

Run with -v to get one pass/fail line per criterion.  The tolerances
are frozen requirements for this suite; a window the model cannot meet
is left failing rather than widened to fit.  Concretely, the
eg/forward peak-separation target in criterion 5 (1.45 +- 0.02 in
units of Gamma) conflicts with the model's exact separation of
sqrt(2) Gamma ~= 1.4142 Gamma, so that one case is expected to fail.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from waveqed.core import (
    BASIS,
    BASIS_INDEX,
    PRESET_NAMES,
    TOTAL,
    DickeState,
    Direction,
    SystemParams,
    preset_state,
)
from waveqed.observables import (
    emission_rate,
    radiated_energy,
    transition_probability,
)
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
    single_qubit_baseline,
    spectral_density,
)

PI = math.pi
GAMMA = 0.05  # Gamma/Omega for every acceptance run

E, S, A = DickeState.E, DickeState.S, DickeState.A
F, B = Direction.FORWARD, Direction.BACKWARD

# one tight integrator setting for every ODE cross-check below
ODE_TIGHT = OdeConfig(method="DOP853", rel_tol=1e-11, abs_tol=1e-13, t_max=10.0)


def _samples(rho0, params, direction, omegas):
    return [
        SpectrumSample(
            omega=float(w),
            value=spectral_density(rho0, params, direction, float(w)),
            direction=direction,
            initial=rho0,
        )
        for w in omegas
    ]


# ---------------------------------------------------------------------------
# 1. superradiant decay at in-phase spacing
# ---------------------------------------------------------------------------

def test_criterion_1_superradiant_decay():
    """k0d = 2 pi, S start: W = Gamma e^{-2 Gamma t}, double the single qubit."""
    params = SystemParams(gamma_ratio=GAMMA, k0d=2 * PI)
    g = params.gamma
    rho_s = preset_state("S")
    t_grid = np.linspace(0.0, 10.0, 41) / g

    # the closed form is the textbook curve bitwise, not merely close
    for t in t_grid:
        t = float(t)
        assert emission_rate(rho_s, params, t, F) == g * np.exp(-2.0 * g * t)

    # initial value is twice the single-qubit Gamma/2 per direction
    _, single_rate = single_qubit_baseline(params, 1.0)
    assert emission_rate(rho_s, params, 0.0, F) == 2.0 * single_rate(0.0)

    # independent route: integrate the equations of motion and apply the
    # occupation weight to the numerically evolved S population
    gp = params.gamma_plus
    ss = BASIS_INDEX[S]
    worst = 0.0
    for state in integrate_transition_odes(params, ODE_TIGHT, t_grid):
        w_ode = 0.5 * gp * state.element_matrices()[(S, S)][ss, ss].real
        w = emission_rate(rho_s, params, state.t, F)
        worst = max(worst, abs(w - w_ode))
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# 2. dark states
# ---------------------------------------------------------------------------

def test_criterion_2_dark_states():
    """A at k0d = 2 pi and S at k0d = pi never radiate or mix."""
    t_grid = np.linspace(0.0, 10.0, 21) / GAMMA
    for name, k0d in (("A", 2 * PI), ("S", PI)):
        rho0 = preset_state(name)
        params = SystemParams(gamma_ratio=GAMMA, k0d=k0d)
        for t in t_grid:
            for direction in (F, B, TOTAL):
                assert abs(emission_rate(rho0, params, float(t), direction)) <= 1e-12

    # the two single-excitation channels never feed each other anywhere
    for k0d in (0.25 * PI, 0.5 * PI, 1.3, PI, 2 * PI):
        params = SystemParams(gamma_ratio=GAMMA, k0d=k0d)
        for t in t_grid[::4]:
            assert transition_probability(A, S, params, float(t)) == 0.0
            assert transition_probability(S, A, params, float(t)) == 0.0


# ---------------------------------------------------------------------------
# 3. doubly excited start at the degenerate spacing
# ---------------------------------------------------------------------------

def test_criterion_3_doubly_excited_limit():
    """E start at k0d = 2 pi: cascade peak, rate curve, branch continuity."""
    params = SystemParams(gamma_ratio=GAMMA, k0d=2 * PI)
    g = params.gamma
    rho_e = preset_state("E")

    # occupation passed through S peaks at Gamma t = 1/2 with value 1/e
    t_half = 0.5 / g
    p_peak = transition_probability(E, S, params, t_half)
    assert abs(p_peak - math.exp(-1.0)) < 1e-10
    dense = np.linspace(0.0, 5.0, 2001) / g
    curve = [transition_probability(E, S, params, float(t)) for t in dense]
    assert p_peak >= max(curve) - 1e-12

    # per-direction rate is (1 + 2 Gamma t) Gamma e^{-2 Gamma t}
    for gt in np.linspace(0.0, 10.0, 41):
        t = float(gt) / g
        w = emission_rate(rho_e, params, t, F)
        assert abs(w - (1.0 + 2.0 * g * t) * g * math.exp(-2.0 * g * t)) < 1e-10

    # the generic branch evaluated just off the point matches the limit
    # branch on the same observables (and the spectral peak, where the
    # tiny physical line shift of the detuned geometry has no slope to
    # amplify it)
    worst = 0.0
    for k0d in (2 * PI - 1e-4, 2 * PI + 1e-4):
        near = SystemParams(gamma_ratio=GAMMA, k0d=k0d)
        for gt in (0.25, 0.5, 1.0, 2.0, 5.0):
            t = gt / g
            p_lim = transition_probability(E, S, params, t)
            p_gen = transition_probability(E, S, near, t)
            worst = max(worst, abs(p_gen - p_lim) / abs(p_lim))
            w_lim = emission_rate(rho_e, params, t, F)
            w_gen = emission_rate(rho_e, near, t, F)
            worst = max(worst, abs(w_gen - w_lim) / abs(w_lim))
        s_lim = spectral_density(rho_e, params, F, 1.0)
        s_gen = spectral_density(rho_e, near, F, 1.0)
        worst = max(worst, abs(s_gen - s_lim) / abs(s_lim))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# 4. mirror null
# ---------------------------------------------------------------------------

def test_criterion_4_mirror_null():
    """Quarter-wave spacing: the forward eg spectrum vanishes on resonance."""
    params = SystemParams(gamma_ratio=GAMMA, k0d=0.5 * PI)
    rho0 = preset_state("eg")
    assert abs(spectral_density(rho0, params, F, 1.0)) < 1e-10
    config = QuadratureConfig(T=40.0, n_steps=4096)
    assert abs(quadrature_spectrum(rho0, params, F, 1.0, config)) < 1e-3


# ---------------------------------------------------------------------------
# 5. figure-level peak separations (eg/forward intentionally red)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "initial, direction, target",
    [
        pytest.param("eg", F, 1.45, id="eg-forward"),
        pytest.param("eg", B, 0.68, id="eg-backward"),
        pytest.param("E", F, 0.66, id="E-forward"),
    ],
)
def test_criterion_5_peak_separations(initial, direction, target):
    """Top-two peak separation at k0d = pi/2 on the standard dense grid.

    The eg/forward window is 1.45 +- 0.02 while the model's exact
    separation there is sqrt(2) Gamma; that case fails by design and is
    kept red instead of widening the window (see the module docstring).
    """
    params = SystemParams(gamma_ratio=GAMMA, k0d=0.5 * PI)
    rho0 = preset_state(initial)
    omegas = np.linspace(1.0 - 10.0 * GAMMA, 1.0 + 10.0 * GAMMA, 1601)
    analysis = peak_analysis(_samples(rho0, params, direction, omegas))
    assert analysis.separation is not None
    assert abs(analysis.separation / GAMMA - target) <= 0.02


# ---------------------------------------------------------------------------
# 6. closed form vs quadrature oracle, every preset
# ---------------------------------------------------------------------------

def test_criterion_6_spectrum_oracle_agreement():
    """All presets, both directions, seven spacings, 11 detector points."""
    config = QuadratureConfig(T=40.0, n_steps=4096)
    omegas = 1.0 + np.linspace(-5.0 * GAMMA, 5.0 * GAMMA, 11)
    # k0d in the outer loop so the cached generator is reused across
    # presets and directions
    for k0d in (0.25 * PI, 0.5 * PI, 0.75 * PI, PI, 1.25 * PI, 1.5 * PI, 2 * PI):
        params = SystemParams(gamma_ratio=GAMMA, k0d=k0d)
        for name in PRESET_NAMES:
            rho0 = preset_state(name)
            for direction in (F, B):
                closed = spectral_density(rho0, params, direction, omegas)
                oracle = quadrature_spectrum(rho0, params, direction, omegas, config)
                gap = float(np.max(np.abs(oracle - closed)))
                scale = float(np.max(np.abs(closed)))
                where = f"{name}/{direction.value}, k0d = {k0d:.4f}"
                if scale < 1e-9:  # dark combination: compare absolutely
                    assert gap < 1e-6, f"{where}: absolute gap {gap:.3e}"
                else:
                    assert gap / scale < 1e-3, f"{where}: relative gap {gap / scale:.3e}"


# ---------------------------------------------------------------------------
# 7. conservation suite
# ---------------------------------------------------------------------------

def test_criterion_7_conservation_laws():
    # completeness along numerically integrated trajectories
    eye = np.eye(4)
    for k0d in (0.5 * PI, 2 * PI):
        params = SystemParams(gamma_ratio=GAMMA, k0d=k0d)
        t_grid = np.linspace(0.0, 10.0, 21) / params.gamma
        for state in integrate_transition_odes(params, ODE_TIGHT, t_grid):
            mats = state.element_matrices()
            total = sum(mats[(i, i)] for i in BASIS)
            assert float(np.max(np.abs(total - eye))) < 1e-8

    # transition probabilities out of E sum to one
    for k0d in (0.25 * PI, 0.5 * PI, PI, 2 * PI):
        params = SystemParams(gamma_ratio=GAMMA, k0d=k0d)
        for gt in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            total = sum(
                transition_probability(E, final, params, gt / params.gamma)
                for final in BASIS
            )
            assert abs(total - 1.0) < 1e-10

    # emitted-quanta integrals out to Gamma t = 200
    gts = np.linspace(0.0, 200.0, 10001)

    def integral(rho0, params, direction):
        curve = emission_rate(rho0, params, gts / params.gamma, direction) / params.gamma
        return float(simpson(curve, x=gts))

    for k0d in (0.5 * PI, 2.0):  # both spacings keep every channel open
        params = SystemParams(gamma_ratio=GAMMA, k0d=k0d)
        rho_eg = preset_state("eg")
        two_way = integral(rho_eg, params, TOTAL)
        assert abs(two_way - 1.0) < 1e-6
        assert abs(two_way - radiated_energy(rho_eg, params, TOTAL)) < 1e-6
        assert abs(integral(preset_state("S"), params, F) - 0.5) < 1e-6
        # doubly excited: one quantum per direction, so the two-way
        # integral halves back to one in the per-direction normalization
        assert abs(integral(preset_state("E"), params, F) - 1.0) < 1e-6
        assert abs(integral(preset_state("E"), params, TOTAL) / 2.0 - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# 8. spectral area invariance
# ---------------------------------------------------------------------------

def test_criterion_8_spectral_area_invariance():
    """The S-line area is 2 pi (units of Omega) wherever its channel is open."""
    half_width = 50.0 * GAMMA
    omegas = np.linspace(1.0 - half_width, 1.0 + half_width, 16001)
    rho_s = preset_state("S")
    for k0d in (0.25 * PI, 0.5 * PI, 0.75 * PI, 1.25 * PI, 1.5 * PI, 2 * PI):
        params = SystemParams(gamma_ratio=GAMMA, k0d=k0d)
        curve = spectral_density(rho_s, params, F, omegas)
        area = float(simpson(curve, x=omegas)) + line_tail_area(params, half_width, S)
        assert abs(area - 2.0 * PI) < 0.01 * 2.0 * PI, f"k0d = {k0d:.4f}"


# ---------------------------------------------------------------------------
# 9. figure datasets
# ---------------------------------------------------------------------------

#: blocks per figure: (k0d count, single-qubit comparison present)
_FIGURE_SHAPE = {
    "fig1": (3, True), "fig2": (4, True), "fig3": (2, True),
    "fig4": (3, True), "fig5": (3, True), "fig6": (3, False),
    "fig7": (3, False), "fig8": (3, False), "fig9": (3, True),
}
_FIGURE_LABELS = {
    "fig1": ("S", "Forward"), "fig2": ("A", "Forward"), "fig3": ("S", "Forward"),
    "fig4": ("eg", "Forward"), "fig5": ("eg", "Backward"), "fig6": ("E", "Forward"),
    "fig7": ("s1e2", "Forward"), "fig8": ("s1e2", "Backward"),
    "fig9": ("s1s2", "Forward"),
}


def _dataset_samples(rows):
    rho = preset_state(rows[0][3]) if rows[0][3] in PRESET_NAMES else None
    return [
        SpectrumSample(omega=float(r[0]), value=float(r[1]), direction=F, initial=rho)
        for r in rows
    ]


def test_criterion_9_figure_datasets(figure_data):
    """The emitted datasets carry the checked physics line for line."""
    assert set(figure_data) == {f"fig{i}{p}" for i in range(1, 10) for p in "ab"}

    for name, (blocks, baseline) in _FIGURE_SHAPE.items():
        n = blocks + (1 if baseline else 0)
        header_a, rows_a = figure_data[f"{name}a"]
        header_b, rows_b = figure_data[f"{name}b"]
        assert len(rows_a) == n * 1601 and len(rows_b) == n * 501, name
        initial, direction = _FIGURE_LABELS[name]
        assert rows_a[0][3] == initial and rows_a[0][2] == direction, name
        # every spectral sample is nonnegative
        assert min(float(r[1]) for r in rows_a) >= -1e-12, name

    # superradiant block of fig1b is e^{-2 Gamma t}, starting at 1, twice
    # the single-qubit 0.5
    _, rows = figure_data["fig1b"]
    block = rows[2 * 501:3 * 501]
    assert block[0][1] == "1"
    assert rows[-501][1] == "0.5"
    for r in block:
        gt = float(r[0])
        assert abs(float(r[1]) - math.exp(-2.0 * gt)) <= 1e-10 * math.exp(-2.0 * gt)

    # dark block of fig2b (A at k0d = 2 pi) is identically zero
    _, rows = figure_data["fig2b"]
    assert all(r[1] == "0" for r in rows[3 * 501:4 * 501])

    # fig4a quarter-wave block: resonance null, and the dataset's own
    # peak separation equals the model's exact sqrt(2) Gamma (the 1.45
    # window is judged once, in criterion 5)
    _, rows = figure_data["fig4a"]
    block = rows[1601:2 * 1601]
    assert block[800][0] == "1"
    assert abs(float(block[800][1])) < 1e-10
    sep = peak_analysis(_dataset_samples(block)).separation
    assert abs(sep - math.sqrt(2.0) * GAMMA) <= 2e-3 * GAMMA

    # fig5a quarter-wave block: backward separation inside its window
    _, rows = figure_data["fig5a"]
    sep = peak_analysis(_dataset_samples(rows[1601:2 * 1601])).separation
    assert abs(sep / GAMMA - 0.68) <= 0.02

    # fig6a at k0d = 2 pi peaks on resonance at 5/Gamma = 100
    _, rows = figure_data["fig6a"]
    block = rows[2 * 1601:3 * 1601]
    values = [float(r[1]) for r in block]
    assert values[800] == max(values)
    assert abs(values[800] - 100.0) < 1e-6 * 100.0

    # fig9b quarter-wave block coincides with the single-qubit curve:
    # at that spacing the forward rate of the product state s1s2 is
    # exactly (Gamma/2) e^{-Gamma t}
    _, rows = figure_data["fig9b"]
    for pair, single in zip(rows[:501], rows[-501:]):
        assert abs(float(pair[1]) - float(single[1])) <= 1e-9 * float(single[1])
