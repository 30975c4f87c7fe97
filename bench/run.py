"""Benchmark of waveqed: spectra, dynamics, oracle cross-checks and the CLI.

One run:

    python3 bench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

measures one workload for the given time and prints, as the last line
of standard output, one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 gives the end-to-end metrics; --trace 1
makes a separate run over a fixed number of rounds with every public
function of the package wrapped, and gives the per-layer metrics.

Steadiness check (two sets of runs of the same code, plus two traced
runs with one seed whose counts must repeat exactly):

    python3 bench/run.py --steadiness --runs 10 [--workloads spectra,cli]

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
#: per-layer metrics that are exact counts and must repeat for one seed
EXACT = (".calls", "oracle.grid_points", "oracle.solve_ivp.nfev", "oracle.table_mb",
         "cli.bytes_out")


def measure_setup(module: str) -> float:
    """Median seconds from starting a fresh interpreter until `module` is imported."""
    code = f"import {module}, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=child_env(ROOT),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                _out, err = proc.communicate(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if line != b"ready\n" or proc.returncode != 0:
            raise SystemExit(f"error: cannot import {module} from {ROOT / 'src'}: "
                             f"{err.decode().strip()[-500:]}")
        samples.append(elapsed)
    return statistics.median(samples)


def measure_imports(module: str) -> dict:
    """Cumulative import times of numpy, scipy.integrate and waveqed (-X importtime)."""
    wanted = {"numpy": "import.numpy_ms", "scipy.integrate": "import.scipy_integrate_ms",
              "waveqed": "import.waveqed_ms"}
    samples = {metric: [] for metric in wanted.values()}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                              cwd=ROOT, env=child_env(ROOT), capture_output=True, timeout=120)
        found = {}
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                found[wanted[parts[2].strip()]] = int(parts[1]) / 1e3
        for metric in samples:
            samples[metric].append(found.get(metric, 0.0))
    return {metric: statistics.median(v) for metric, v in samples.items()}


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_ops(workload, rounds=None, seconds=None):
    """Run whole rounds until `rounds` are done or `seconds` have passed.

    Returns (latencies of every attempted op, failed count, correct).
    Only the program call of an op is timed; input generation and the
    checks run outside it.
    """
    latencies, failed = [], 0
    start = time.perf_counter()
    r = 0
    while (rounds is not None and r < rounds) or (
            seconds is not None and time.perf_counter() - start < seconds):
        for op in workload.round(r):
            if workload.tracer is not None:
                workload.tracer.op = len(latencies)
            t0 = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # a program fault: count the op as failed
                out, error = None, exc
            latencies.append(time.perf_counter() - t0)
            if workload.tracer is not None:
                workload.tracer.op = -1
            if error is None:
                try:
                    op.check(out)
                except Exception as exc:
                    error = exc
            if error is not None:
                failed += 1
                if failed <= 5:
                    print(f"{workload.name} round {r}: {type(error).__name__}: {error}",
                          file=sys.stderr)
        r += 1
    # no operation is expected to fail on a correct program, so any
    # failure, a raise as much as a wrong output, makes the run incorrect
    return latencies, failed, failed == 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "waveqed" / "__init__.py").is_file():
        raise SystemExit(f"error: no waveqed source under {ROOT / 'src'}")
    cls = WORKLOADS[name]
    setup_s = measure_setup(cls.imports)
    sys.path.insert(0, str(ROOT / "src"))
    workload = cls(seed, OUT)
    if trace:
        workload.tracer = Tracer()
        workload.tracer.install()
        latencies, failed, correct = run_ops(workload, rounds=cls.traced_rounds)
        metrics = workload.tracer.layer_metrics(len(latencies))
        metrics.update(measure_imports(cls.imports))
        metrics["trace.ops_per_s"] = len(latencies) / sum(latencies)
        workload.tracer.save(OUT / f"trace-{name}.npz")
    else:
        latencies, failed, correct = run_ops(workload, seconds=seconds)
        ordered = sorted(latencies)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": (len(latencies) - failed) / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(ordered),
            "op_tail_ms": 1e3 * percentile(ordered, cls.tail_pct),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        beyond = len(ordered) - math.ceil(cls.tail_pct / 100.0 * len(ordered))
        print(f"{name}: {len(ordered)} ops in {sum(latencies):.2f} s of calls; "
              f"op_tail_ms is p{cls.tail_pct:g} with {beyond} ops beyond it", file=sys.stderr)
    declared = load_spec()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"error: measured metrics {sorted(metrics)} are not the ones "
                         f"BENCHMARK.json declares: {sorted(units)}")
    return {
        "correct": correct,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def load_spec() -> dict:
    """BENCHMARK.json: the metric names, units, better directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# steadiness check
# ---------------------------------------------------------------------------

def _one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def steadiness(runs: int, names: list, seconds: int | None) -> int:
    spec = load_spec()
    seconds = seconds or spec["run_seconds"]
    ok = True
    for name in names:
        sets = ([], [])
        for i in range(runs):
            # alternate which set runs first, and give each run its own seed
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for which in order:
                result = _one_run(name, 1 + i + 100 * which, seconds, 0)
                sets[which].append(result)
                print(f"   {name} set {'AB'[which]} seed {1 + i + 100 * which}: "
                      f"ops={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
        print(f"\n== {name}: two sets of {runs} runs, {seconds} s each")
        for results in sets:
            if any(not r["correct"] for r in results):
                ok = False
                print("   a run reported incorrect output")
        failed = [sum(r["failed"] for r in s) for s in sets]
        if any(failed):
            ok = False
        print(f"   failed operations per set: {failed[0]} / {failed[1]}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            stats = []
            for results in sets:
                values = [r["metrics"][key]["value"] for r in results]
                stats.append(tuple(statistics.quantiles(values, n=4)))
            worse = (stats[1][1] - stats[0][1]) / stats[0][1]
            if metric["better"] == "higher":
                worse = -worse
            spreads = [(q3 - q1) / med for q1, med, q3 in stats]
            # two sets of the same code must agree both ways, not only
            # in the direction that would read as a regression
            agree = abs(worse) <= bound and (key == "setup_s" or max(spreads) <= bound)
            steady = key == "setup_s" or max(spreads) <= bound / 3
            ok &= agree
            print(f"   {key:12s} A {stats[0][1]:10.4f} [{stats[0][0]:.4f}, {stats[0][2]:.4f}]"
                  f"  B {stats[1][1]:10.4f} [{stats[1][0]:.4f}, {stats[1][2]:.4f}]"
                  f"  spread {spreads[0]:.3f}/{spreads[1]:.3f}  B worse by {worse:+.3f}"
                  f"  bound {bound}  {'agree' if agree else 'DISAGREE'}"
                  f"{'' if steady else ' (spread above bound/3)'}")
        traced = [_one_run(name, 7, seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(EXACT)}
                  for t in traced]
        same = counts[0] == counts[1]
        ok &= same
        print(f"   per-layer counts of two traced runs with seed 7: "
              f"{'identical' if same else 'DIFFER'} ({len(counts[0])} counts)")
        if not same:
            for k in counts[0]:
                if counts[0][k] != counts[1].get(k):
                    print(f"     {k}: {counts[0][k]} vs {counts[1].get(k)}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args.runs, args.workloads.split(","),
                          None if args.seconds is None else int(args.seconds))
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
