"""Fingerprint every byte the waveqed CLI emits, to compare two source trees.

Usage: python3 tools/cli_digest.py SRC_DIR > digest.txt.  Each fixed command
line runs as `python -m waveqed.cli` with PYTHONPATH=SRC_DIR/src in a fresh
temporary directory holding one complex S-A coherence density file, and prints
`sha256 exit-code argv`.  The hash covers stdout, stderr and every file the run
writes; paths are relative, so echoed paths match.  Diff two trees' output.
"""

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

RHO = "coherent.txt"
RHO_TEXT = "0.2 0 0 0\n0 0.1 0 0\n0 0 0.4 0.2+0.1j\n0 0 0.2-0.1j 0.3\n"
K0DS = ("0.7", "3.141592653589793", "6.283185307179586")  # 0.7, pi, 2 pi

CURVES = [[cmd, "--k0d", k, "--initial", s, "--direction", d]
          for cmd in ("spectrum", "rate") for s in ("E", "eg", "s1e2", "s1s2", RHO)
          for k in K0DS for d in ("forward", "backward", "total")]
CURVES += [["prob", "--k0d", k, "--from", s] for s in "GESA" for k in K0DS]
CURVES += [["sweep", "--quantity", q, "--initial", s, "--k0d-start", K0DS[0],
            "--k0d-stop", K0DS[2], "--k0d-count", "3"]
           for q in ("rate", "spectrum") for s in ("E", "eg", RHO)]
ARGVS = [a + ["--format", f] for a in CURVES for f in ("csv", "json")]
ARGVS += [["figures"]] + [["validate", "--suite", s] for s in ("all", "odes", "rates", "spectra")]
ARGVS += [c.split() + ["--help"] for c in ("", "spectrum", "rate", "prob", "sweep", "figures",
                                           "validate")]
# defaults, output files, and tests/test_cli.py's input and usage errors ("" is [])
ARGVS += [shlex.split(line) for line in """\
spectrum --k0d 0.7 --initial eg --format json --output s.json
rate --k0d 0.7 --initial eg --format json --output w.json
prob --k0d 0.7 --from E --to A --format json
spectrum --k0d 3.14 --initial nope
rate --k0d -1.0 --initial S
rate --k0d 3.14 --initial S --gamma-ratio -0.05
spectrum --k0d 3.14 --initial S --omega-min 1.2 --omega-max 1.1
rate --k0d 3.14 --initial S --t-max 0
sweep --initial S --k0d-start 3.0 --k0d-stop 1.0
spectrum --k0d 1 --initial S --omega-points 1
rate --k0d 1 --initial S --t-points 1
sweep --initial S --k0d-start 0 --k0d-stop 1 --k0d-count 0
rate --initial S --k0d 1 --t-max nan
rate --initial S --k0d 1 --t-max inf
rate --initial S --k0d nan
rate --initial S --k0d 1 --gamma-ratio inf
spectrum --initial S --k0d 1 --omega-max inf
spectrum --initial S --k0d 1 --omega-min=-inf
sweep --initial S --k0d-start 0 --k0d-stop inf
sweep --initial S --k0d-start nan --k0d-stop 1
validate --gamma-ratio nan

bogus
spectrum
sweep --initial S
""".splitlines()]


def digest(src: Path, argv: list) -> str:
    env = dict(os.environ, PYTHONPATH=str(src / "src"), COLUMNS="80", OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        (cwd / RHO).write_text(RHO_TEXT)
        proc = subprocess.run([sys.executable, "-m", "waveqed.cli", *argv],
                              cwd=cwd, env=env, capture_output=True)
        parts = [proc.stdout, proc.stderr]
        for path in sorted(p for p in cwd.rglob("*") if p.is_file() and p.name != RHO):
            parts += [str(path.relative_to(cwd)).encode(), path.read_bytes()]
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big") + part)
    return f"{h.hexdigest()} {proc.returncode} {shlex.join(argv)}"


if __name__ == "__main__":
    with ThreadPoolExecutor(2) as pool:
        for line in pool.map(lambda argv: digest(Path(sys.argv[1]).resolve(), argv), ARGVS):
            print(line, flush=True)
