"""Domain types: parameters, collective rates, density matrices, presets."""

import math

import mpmath
import numpy as np
import pytest

from waveqed.core import (
    BASIS,
    BASIS_INDEX,
    OMEGA,
    PRESET_NAMES,
    TOTAL,
    DickeDensity,
    DickeState,
    Direction,
    SystemParams,
    collective_rates,
    phase_factors,
    preset_state,
)

GAMMA = 0.05


def test_basis_order_and_index():
    assert BASIS == (DickeState.G, DickeState.E, DickeState.S, DickeState.A)
    assert [BASIS_INDEX[s] for s in BASIS] == [0, 1, 2, 3]


def test_direction_signs_and_total_sentinel():
    assert Direction.FORWARD.sign == 1
    assert Direction.BACKWARD.sign == -1
    assert Direction.FORWARD.value == "Forward"
    assert TOTAL.label == "Total"
    assert not isinstance(TOTAL, Direction)
    assert list(Direction) == [Direction.FORWARD, Direction.BACKWARD]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_phase_factors_snap_onto_multiples_of_pi(n):
    c, s = phase_factors(n * math.pi)
    assert s == 0.0
    assert c == (1.0 if n % 2 == 0 else -1.0)


def test_phase_factors_generic_point_not_snapped():
    c, s = phase_factors(1.3)
    assert c == math.cos(1.3)
    assert s == math.sin(1.3)


def test_phase_factors_near_but_not_at_seam():
    # far enough out that cos is representably away from -1 (the window
    # scales as the square root of the cos tolerance)
    c, s = phase_factors(math.pi + 1e-5)
    assert s != 0.0
    assert c != -1.0
    # closer in, cos itself rounds to -1.0 but sin must survive
    _, s9 = phase_factors(math.pi + 1e-9)
    assert s9 != 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma_ratio": 0.0, "k0d": 1.0},
        {"gamma_ratio": -0.05, "k0d": 1.0},
        {"gamma_ratio": 0.05, "k0d": -0.1},
        {"gamma_ratio": float("nan"), "k0d": 1.0},
        {"gamma_ratio": math.inf, "k0d": 1.0},
        {"gamma_ratio": 0.05, "k0d": math.inf},
    ],
)
def test_system_params_rejects_bad_values(kwargs):
    # the k0d cases all carry a valid gamma_ratio
    field = "k0d" if kwargs["gamma_ratio"] == GAMMA else "gamma_ratio"
    with pytest.raises(ValueError, match=field):
        SystemParams(**kwargs)


def test_system_params_gamma_and_unit_flag():
    p = SystemParams(gamma_ratio=GAMMA, k0d=1.0)
    assert p.gamma == GAMMA * OMEGA


@pytest.mark.parametrize(
    "k0d", [0.0, 0.25 * math.pi, 0.5 * math.pi, math.pi, 1.3, 2 * math.pi, 7.0]
)
def test_collective_rates_sum_rules_bit_exact(k0d):
    r = collective_rates(SystemParams(gamma_ratio=GAMMA, k0d=k0d))
    assert r.gamma_plus + r.gamma_minus == 2.0 * GAMMA
    assert r.omega_plus + r.omega_minus == 2.0 * OMEGA
    assert r.gamma_plus >= 0.0
    assert r.gamma_minus >= 0.0


def test_equal_parameters_share_one_cached_rate_of_python_floats():
    # numpy scalars first: the cached value must not carry their type
    first = collective_rates(SystemParams(np.float64(0.0625), np.float64(1.7)))
    assert collective_rates(SystemParams(0.0625, 1.7)) is first
    assert {type(v) for v in vars(first).values()} == {float}
    assert type(SystemParams(0.05, 2).k0d) is float


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("delta", [1e-11, 1e-9, 1e-7, 1e-6, 1e-3])
def test_nearly_dark_channel_keeps_its_rate(n, delta):
    # within 1.4e-6 of n*pi, 1 +- cos k0d cancels to zero or to a few
    # ulp while sin k0d, which drives the S-A coherence, survives
    k0d = n * math.pi + delta
    r = collective_rates(SystemParams(gamma_ratio=GAMMA, k0d=k0d))
    dark = r.gamma_minus if n % 2 == 0 else r.gamma_plus
    with mpmath.workdps(40):
        half = mpmath.mpf(k0d) / 2
        want = 2 * mpmath.mpf(GAMMA) * (mpmath.sin(half) if n % 2 == 0 else mpmath.cos(half)) ** 2
    assert dark == pytest.approx(float(want), rel=1e-12, abs=0.0)
    assert r.gamma_plus + r.gamma_minus == 2.0 * GAMMA
    c, s = phase_factors(k0d)
    assert s != 0.0


def test_collective_rates_special_points():
    r2pi = collective_rates(SystemParams(gamma_ratio=GAMMA, k0d=2 * math.pi))
    assert r2pi.gamma_plus == 2.0 * GAMMA
    assert r2pi.gamma_minus == 0.0
    assert r2pi.omega_plus == OMEGA
    rpi = collective_rates(SystemParams(gamma_ratio=GAMMA, k0d=math.pi))
    assert rpi.gamma_plus == 0.0
    assert rpi.gamma_minus == 2.0 * GAMMA
    rhalf = collective_rates(SystemParams(gamma_ratio=GAMMA, k0d=0.5 * math.pi))
    assert rhalf.gamma_plus == pytest.approx(GAMMA, rel=1e-15)
    assert rhalf.omega_plus == pytest.approx(OMEGA + 0.5 * GAMMA, rel=1e-15)


def test_density_matrix_round_trip():
    rho = DickeDensity(
        pGG=0.1,
        pEE=0.2,
        pSS=0.4,
        pAA=0.3,
        pSA=0.05 - 0.02j,
        pGE=0.01j,
        pGS=0.02,
        pGA=-0.01,
        pSE=0.005 + 0.005j,
        pAE=-0.003j,
    )
    m = rho.matrix()
    assert np.allclose(m, m.conj().T)
    back = DickeDensity.from_matrix(m)
    assert back == rho
    assert rho.pAS == rho.pSA.conjugate()


def test_density_validation_trace_and_population_range():
    with pytest.raises(ValueError, match="trace"):
        DickeDensity(pEE=0.5)
    # the rules run in order: finite, trace, PSD, populations, so this
    # state, outside [0, 1] and with eigenvalue -0.5, is named by PSD
    with pytest.raises(ValueError, match="positive semidefinite"):
        DickeDensity(pEE=1.5, pGG=-0.5)
    # trace within 1e-8 and PSD, but pEE above 1 + 1e-9
    with pytest.raises(ValueError, match="population pEE"):
        DickeDensity(pEE=1.0 + 5e-9)
    # populations and trace fine, but |pSA|^2 > pSS * pAA
    with pytest.raises(ValueError, match="positive semidefinite"):
        DickeDensity(pSS=0.5, pAA=0.5, pSA=10j)
    # non-finite entries are named, not passed on as NaN spectra
    for field, value in (("pSA", complex("nan")), ("pSA", complex("infj")),
                         ("pGE", complex("nan")), ("pSS", math.inf)):
        fields = {"pSS": 0.5, "pAA": 0.5, field: value}
        with pytest.raises(ValueError, match=f"entry {field} must be finite"):
            DickeDensity(**fields)


def test_from_matrix_names_the_violated_rule():
    with pytest.raises(ValueError, match="4x4"):
        DickeDensity.from_matrix(np.eye(3))
    with pytest.raises(ValueError, match="trace"):
        DickeDensity.from_matrix(0.9 * np.eye(4) / 4.0)
    bad_herm = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    bad_herm[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        DickeDensity.from_matrix(bad_herm)
    with pytest.raises(ValueError, match="positive semidefinite"):
        DickeDensity.from_matrix(np.diag([0.75, 0.75, -0.25, -0.25]))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_are_valid_pure_states(name):
    rho = preset_state(name)
    m = rho.matrix()
    assert np.isclose(m.trace(), 1.0)
    # purity: projector onto a single amplitude vector
    assert np.allclose(m @ m, m, atol=1e-14)


def test_preset_entries_match_their_superpositions():
    eg = preset_state("eg")
    assert eg.pSS == pytest.approx(0.5, rel=1e-15)
    assert eg.pAA == pytest.approx(0.5, rel=1e-15)
    assert eg.pSA == pytest.approx(-0.5, rel=1e-15)
    ge = preset_state("ge")
    assert ge.pSA == pytest.approx(+0.5, rel=1e-15)
    s1g2 = preset_state("s1g2")
    assert s1g2.pGG == pytest.approx(0.5, rel=1e-15)
    assert s1g2.pSS == pytest.approx(0.25, rel=1e-15)
    assert s1g2.pSA == pytest.approx(-0.25, rel=1e-15)
    s1e2 = preset_state("s1e2")
    assert s1e2.pEE == pytest.approx(0.5, rel=1e-15)
    assert s1e2.pSA == pytest.approx(+0.25, rel=1e-15)
    s1s2 = preset_state("s1s2")
    assert s1s2.pEE == pytest.approx(0.25, rel=1e-15)
    assert s1s2.pSS == pytest.approx(0.5, rel=1e-15)
    assert s1s2.pAA == 0.0
    assert s1s2.pSA == 0.0


def test_unknown_preset_lists_valid_names():
    with pytest.raises(ValueError, match="s1s2"):
        preset_state("nope")
