"""depolgas benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.  Passes
of the workload (closed loop, one caller) repeat until ``--seconds`` have
gone by (``run_seconds`` in BENCHMARK.json is the recorded run length).  Each
pass runs in a fresh interpreter (``worker.py``) with BLAS pinned to one
thread, so the median over passes also averages the
run-to-run variation of a single process.  Pass seeds are drawn from
``--seed``: equal seeds give equal inputs.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` (one
operation per CLI command) and ``metrics``:

* ``--trace 0``: ``wall_s`` (median wall time of one pass), ``setup_s``
  (median over fresh interpreters of start-up, ``import depolgas`` and one
  config load) and ``peak_rss_mb`` (largest peak RSS of a pass process).
* ``--trace 1``: the per-layer metrics of ``tracing.PER_LAYER``, per pass;
  every pass process runs the seed untraced, traced and untraced again, and
  the last two give ``trace_overhead_frac``.

Without ``src/depolgas`` the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
PASS_TIMEOUT_S = 150

# a fresh interpreter doing the user's set-up work, reporting when it is done
_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import depolgas.cli
depolgas.cli.load_config(sys.argv[2])
print(repr(time.monotonic()))
"""


def _python(args: list[str], timeout: float, blas_threads: int = 1) -> str:
    env = dict(os.environ, **{var: str(blas_threads) for var in BLAS_VARS})
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {done.returncode}:\n{done.stderr}")
    return done.stdout


def setup_seconds(config: str) -> float:
    """Median set-up time over fresh interpreters (CLOCK_MONOTONIC is shared)."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        stdout = _python(["-c", _PROBE, str(SRC), config], PROBE_TIMEOUT_S)
        samples.append(float(stdout.split()[-1]) - started)
    return statistics.median(samples)


def run_pass(workload: str, seed: int, pass_dir: Path, trace: int,
             blas_threads: int = 1) -> dict:
    stdout = _python([str(HERE / "worker.py"), workload, str(seed), str(pass_dir),
                      str(trace)], PASS_TIMEOUT_S, blas_threads)
    return json.loads(stdout.splitlines()[-1])


def traced_metrics(reports: list[dict]) -> dict:
    stats = defaultdict(lambda: defaultdict(float))
    for report in reports:
        for layer, counts in report["stats"].items():
            for key, value in counts.items():
                stats[layer][key] += value
    metrics = tracing.layer_metrics(stats, len(reports))
    metrics["cli.csv_bytes"] = {
        "value": statistics.fmean(r["csv_bytes"] for r in reports), "unit": "bytes"}
    metrics["trace_overhead_frac"] = {
        "value": sum(r["overhead"][0] for r in reports)
        / sum(r["overhead"][1] for r in reports) - 1.0,
        "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "depolgas" / "__init__.py").is_file():
        print(f"error: no depolgas package under {SRC}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    reports = []
    try:
        started = time.monotonic()
        while not reports or time.monotonic() - started < args.seconds:
            reports.append(run_pass(args.workload, rng.randrange(2**31),
                                    work / f"pass{len(reports)}", args.trace))
        if args.trace:
            metrics = traced_metrics(reports)
        else:
            metrics = {
                "wall_s": {"value": statistics.median(r["wall_s"] for r in reports),
                           "unit": "s"},
                "setup_s": {"value": setup_seconds(reports[0]["config"]), "unit": "s"},
                "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in reports),
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for name in sorted({n for r in reports for n in r.get("absent", ())}):
        print(f"absent layer: {name}")
    for report in reports:
        print("\n".join(report["describe"]))
    failures = [f"{label}: {failure}" for r in reports for label, failure in r["ops"]
                if failure]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print("pass seconds: " + ", ".join(f"{r['wall_s']:.3f}" for r in reports))
    print(json.dumps({"correct": not failures,
                      "attempted": sum(len(r["ops"]) for r in reports),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
