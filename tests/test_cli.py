"""Command-line interface tests, driven through main(argv).

Exit codes are part of the contract: 0 success, 1 usage or input
error, 2 validation-suite failure.  Output schemas are pinned so
scripts parsing the CSVs do not silently break.
"""

import json
import math

import numpy as np
import pytest

from waveqed import __version__
from waveqed.cli import (
    PROB_HEADER,
    RATE_HEADER,
    SPECTRUM_HEADER,
    main,
    parse_density_file,
)
from waveqed.core import preset_state

PI = math.pi
TWO_PI = 2.0 * math.pi

MIXED = """\
# maximally mixed state, rows in (G, E, S, A) order
0.25 0 0 0
0 0.25 0 0

0 0 0.25 0
0 0 0 0.25
"""


def _rows(text):
    lines = text.strip("\n").split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# happy paths and output schemas
# ---------------------------------------------------------------------------

def test_spectrum_stdout_schema(capsys):
    assert main([
        "spectrum", "--k0d", str(TWO_PI), "--initial", "S",
        "--omega-points", "5",
    ]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == SPECTRUM_HEADER
    assert len(rows) == 5
    assert all(len(r) == 5 for r in rows)
    assert rows[0][2] == "Forward"  # spectrum defaults to one direction
    assert rows[0][3] == "S"
    assert rows[0][0] == "0.5" and rows[-1][0] == "1.5"


def test_rate_total_from_density_file(tmp_path, capsys):
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED)
    assert main([
        "rate", "--k0d", str(TWO_PI), "--initial", str(path),
        "--t-points", "3",
    ]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == RATE_HEADER
    assert [r[0] for r in rows] == ["0", "2.5", "5"]
    assert rows[0][1] == "1"      # fully mixed: W(0) = Gamma summed both ways
    assert rows[0][2] == "Total"  # rate defaults to the two-way sum
    assert rows[0][3] == "mixed"  # file stem labels the state


def test_prob_all_targets(capsys):
    assert main([
        "prob", "--k0d", str(0.5 * PI), "--from", "E", "--t-points", "3",
    ]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == PROB_HEADER
    assert len(rows) == 12  # three times, four targets each
    assert [r[2] for r in rows[:4]] == ["E->G", "E->E", "E->S", "E->A"]
    assert [r[1] for r in rows[:4]] == ["0", "1", "0", "0"]
    assert all(r[3] == "E" for r in rows)


def test_prob_single_target(capsys):
    assert main([
        "prob", "--k0d", str(TWO_PI), "--from", "E", "--to", "A",
        "--t-points", "4",
    ]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert len(rows) == 4
    assert {r[2] for r in rows} == {"E->A"}
    assert {r[1] for r in rows} == {"0"}  # antisymmetric channel dark here


def test_spectrum_direction_total(capsys):
    base = ["spectrum", "--k0d", str(0.5 * PI), "--initial", "eg",
            "--omega-points", "3"]
    values = {}
    for direction in ("forward", "backward", "total"):
        assert main(base + ["--direction", direction]) == 0
        _, rows = _rows(capsys.readouterr().out)
        values[direction] = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(
        values["total"], values["forward"] + values["backward"], rtol=1e-10)


def test_output_files_deterministic(tmp_path):
    args = ["spectrum", "--k0d", str(0.5 * PI), "--initial", "eg",
            "--omega-points", "64"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_payload(tmp_path):
    out = tmp_path / "rate.json"
    assert main([
        "rate", "--k0d", str(PI), "--initial", "S", "--t-points", "5",
        "--format", "json", "--output", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["version"] == __version__
    assert payload["metadata"]["provenance"] == "closed-form"
    assert payload["metadata"]["config"]["subcommand"] == "rate"
    assert payload["columns"] == RATE_HEADER.split(",")
    assert len(payload["samples"]) == 5
    assert payload["samples"][0]["Gamma_t"] == "0"


def test_sweep_blocks_and_threads(tmp_path):
    args = [
        "sweep", "--initial", "S", "--quantity", "rate",
        "--k0d-start", str(0.5 * PI), "--k0d-stop", str(TWO_PI),
        "--k0d-count", "3", "--t-points", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _, rows = _rows(a.read_text())
    assert len(rows) == 15
    k0ds = [r[4] for r in rows]
    assert len(dict.fromkeys(k0ds)) == 3
    assert k0ds == sorted(k0ds, key=float)


@pytest.mark.parametrize("quantity", ["rate", "spectrum"])
def test_sweep_reads_the_density_file_once(tmp_path, monkeypatch, quantity):
    import waveqed.cli as cli

    path = tmp_path / "mixed.txt"
    path.write_text(MIXED)
    calls = []
    original = cli.parse_density_file

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(cli, "parse_density_file", counting)
    assert main([
        "sweep", "--initial", str(path), "--quantity", quantity,
        "--k0d-start", "0", "--k0d-stop", str(TWO_PI),
        "--t-points", "3", "--omega-points", "3", "--output", str(tmp_path / "o.csv"),
    ]) == 0
    assert len(calls) == 1
    _, rows = _rows((tmp_path / "o.csv").read_text())
    assert len(rows) == 9 * 3
    assert {r[3] for r in rows} == {"mixed"}


def test_validate_rates_suite_passes(capsys):
    assert main(["validate", "--suite", "rates"]) == 0
    lines = [ln for ln in capsys.readouterr().out.strip().split("\n") if ln]
    assert len(lines) == 2
    assert all(ln.startswith("[PASS]") for ln in lines)
    assert all("threshold" in ln for ln in lines)


def test_validate_oracle_error_exits_2(monkeypatch, capsys):
    import waveqed.oracle

    def fail(*_args, **_kwargs):
        raise waveqed.oracle.OracleError("grid too long:\n  no tables built")

    monkeypatch.setattr(waveqed.oracle, "quadrature_spectrum", fail)
    assert main(["validate", "--suite", "spectra"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: grid too long: no tables built\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# figure datasets
# ---------------------------------------------------------------------------

EXPECTED_STEMS = {f"fig{i}{panel}" for i in range(1, 10) for panel in "ab"}


def test_figure_datasets_structure(figure_data):
    assert set(figure_data) == EXPECTED_STEMS
    header_a, rows_a = figure_data["fig1a"]
    header_b, rows_b = figure_data["fig1b"]
    assert header_a == SPECTRUM_HEADER
    assert header_b == RATE_HEADER
    # three k0d blocks plus the single-qubit comparison block
    assert len(rows_a) == 4 * 1601
    assert len(rows_b) == 4 * 501


def test_figure_single_qubit_blocks(figure_data):
    """Comparison curves sit last in the file, flagged by k0d = 0."""
    _, rows = figure_data["fig1b"]
    tail = rows[-501:]
    assert all(r[3] == "single_qubit" and r[4] == "0" for r in tail)
    assert tail[0][1] == "0.5"  # (Gamma/2) e^0 per direction, normalized
    # figures without a comparison curve must not sneak one in
    _, rows6 = figure_data["fig6a"]
    assert len(rows6) == 3 * 1601
    assert all(r[3] == "E" for r in rows6)


def test_figures_command_writes_files(tmp_path, capsys):
    outdir = tmp_path / "figs"
    assert main(["figures", "--output-dir", str(outdir)]) == 0
    files = sorted(p.name for p in outdir.glob("*.csv"))
    assert len(files) == 18
    assert (outdir / "fig4a.csv").read_text().startswith(SPECTRUM_HEADER + "\n")
    assert "wrote 18 files" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# density-matrix files
# ---------------------------------------------------------------------------

def test_density_file_projector_matches_preset(tmp_path):
    path = tmp_path / "rho.txt"
    path.write_text(
        "# excited-state projector, mixed token styles\n"
        "0 0 0 0\n"
        "0 1+0j 0 0  # pEE\n"
        "\n"
        "0 0 0.0 0\n"
        "0 0 0 0e0\n"
    )
    rho = parse_density_file(path)
    assert np.array_equal(rho.matrix(), preset_state("E").matrix())


@pytest.mark.parametrize(
    "text, rule",
    [
        ("1 0 0\n0 0 0\n0 0 0\n", "4x4"),
        ("0.9 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n", "trace"),
        ("0.5 0.1 0 0\n0 0.5 0 0\n0 0 0 0\n0 0 0 0\n", "Hermitian"),
        (
            "0.75 0 0 0\n0 0.75 0 0\n0 0 -0.25 0\n0 0 0 -0.25\n",
            "positive semidefinite",
        ),
        (
            "0.25 oops 0 0\n0 0.25 0 0\n0 0 0.25 0\n0 0 0 0.25\n",
            "not a complex number",
        ),
        ("0.5 0 0 0\n0 0 0 0\n0 0 0.25 nan\n0 0 nan 0.25\n", "entry pSA must be finite"),
        ("0.5 nan 0 0\nnan 0.5 0 0\n0 0 0 0\n0 0 0 0\n", "entry pGE must be finite"),
        # a non-finite mirrored entry, which no field holds, breaks Hermiticity
        ("0.5 0 0 0\nnan 0.5 0 0\n0 0 0 0\n0 0 0 0\n", "Hermitian"),
    ],
)
def test_density_file_rejects_named_rule(tmp_path, text, rule, capsys):
    """Rejection messages carry the file path and the violated rule."""
    path = tmp_path / "rho.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        parse_density_file(path)
    assert rule in str(exc.value)
    assert "rho.txt" in str(exc.value)
    assert main(["spectrum", "--k0d", "1.0", "--initial", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert rule in err


# ---------------------------------------------------------------------------
# error handling and exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--k0d", "3.14", "--initial", "nope"],
        ["rate", "--k0d", "-1.0", "--initial", "S"],
        ["rate", "--k0d", "3.14", "--initial", "S", "--gamma-ratio", "-0.05"],
        ["spectrum", "--k0d", "3.14", "--initial", "S",
         "--omega-min", "1.2", "--omega-max", "1.1"],
        ["rate", "--k0d", "3.14", "--initial", "S", "--t-max", "0"],
        ["sweep", "--initial", "S", "--k0d-start", "3.0", "--k0d-stop", "1.0"],
    ],
)
def test_input_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1  # one line, shell friendly


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["rate", "--initial", "S", "--k0d", "1", "--t-max", "nan"], "t-max"),
        (["rate", "--initial", "S", "--k0d", "1", "--t-max", "inf"], "t-max"),
        (["rate", "--initial", "S", "--k0d", "nan"], "k0d"),
        (["rate", "--initial", "S", "--k0d", "1", "--gamma-ratio", "inf"], "gamma-ratio"),
        (["spectrum", "--initial", "S", "--k0d", "1", "--omega-max", "inf"], "omega-max"),
        (["spectrum", "--initial", "S", "--k0d", "1", "--omega-min=-inf"], "omega-min"),
        (["sweep", "--initial", "S", "--k0d-start", "0", "--k0d-stop", "inf"], "k0d-stop"),
        (["sweep", "--initial", "S", "--k0d-start", "nan", "--k0d-stop", "1"], "k0d-start"),
        (["validate", "--gamma-ratio", "nan"], "gamma-ratio"),
    ],
)
@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would add stderr lines
def test_non_finite_flags_exit_1_in_one_short_line(argv, flag, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert len(captured.err) < 200
    assert f"{flag} must be finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [[], ["bogus"], ["spectrum"], ["sweep", "--initial", "S"]],
)
def test_usage_errors_exit_1(argv):
    # argparse-level failures; exit code 2 stays reserved for validation
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
