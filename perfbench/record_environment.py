"""Record the benchmark machine and answer two tuning questions once.

    python3 perfbench/record_environment.py

Writes ``perfbench/environment.json``: nproc, CPU model, BLAS library and
the thread count the benchmark pins, numpy/scipy/Python versions, the git
commit, and two measured notes:

* does ``--workers 2`` pay on ``kernel-check`` (the ladder's mean-field inputs)?
* do 2 BLAS threads pay on the ``ladder`` eigen-solve?

Each question alternates its two settings, REPEATS runs each, and reports
the medians.  BLAS threads are fixed when numpy loads, so every ladder pass
is a traced ``worker.py`` pass started by ``run.run_pass`` with the thread
count in its environment.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REPEATS = 3
SEED = 2026


def _temp_dir():
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK)


def blas_threads_note() -> dict:
    runs = {1: [], 2: []}
    with _temp_dir() as work:
        for attempt in range(REPEATS):
            for threads in runs:
                pass_dir = Path(work) / f"t{threads}-{attempt}"
                runs[threads].append(run.run_pass("ladder", SEED, pass_dir, 1, threads))
    summary = {f"blas_threads_{t}": {
        "wall_s_median": statistics.median(r["wall_s"] for r in rs),
        "eig_s_median": statistics.median(r["stats"]["microsim.eig"]["s"] for r in rs)}
        for t, rs in runs.items()}
    one, two = summary["blas_threads_1"], summary["blas_threads_2"]
    speedup = one["eig_s_median"] / two["eig_s_median"]
    return {"question": "Do 2 BLAS threads pay on the ladder eigen-solve?",
            "setup": f"one traced worker.py ladder pass (seed {SEED}), {REPEATS} runs per "
                     "setting, alternating, each in a fresh interpreter; wall_s is its "
                     "untraced pass, eig_s the traced pass's microsim.eig self time",
            **summary,
            "failed_ops": sum(bool(failure) for rs in runs.values() for r in rs
                              for _, failure in r["ops"]),
            "answer": f"{_verdict(speedup)}: eigen-solve {one['eig_s_median']:.2f} s with "
                      f"1 thread vs {two['eig_s_median']:.2f} s with 2 ({speedup:.2f}x); "
                      f"whole pass {one['wall_s_median']:.2f} s vs "
                      f"{two['wall_s_median']:.2f} s"}


def workers_note() -> dict:
    os.environ.update({var: "1" for var in run.BLAS_VARS})  # before numpy loads here
    sys.path.insert(0, str(SRC))
    import workloads
    from depolgas import cli

    runs = {"1": [], "2": []}
    with _temp_dir() as work:
        ops = workloads.MEANFIELD.prepare(SEED, Path(work))
        configs = [op.config for op in ops if op.command == "kernel-check"]
        for attempt in range(REPEATS):
            for workers in runs:
                t0 = time.perf_counter()
                for i, config in enumerate(configs):
                    out = Path(work) / f"w{workers}-{attempt}-{i}"
                    rc = cli.main(["kernel-check", "--config", str(config),
                                   "--out", str(out), "--workers", workers])
                    if rc != 0:
                        raise RuntimeError(f"kernel-check exited with {rc}")
                runs[workers].append(time.perf_counter() - t0)
    one, two = (statistics.median(runs[w]) for w in ("1", "2"))
    return {"question": "Does --workers 2 pay on kernel-check?",
            "setup": f"kernel-check of both cutoff profiles on the ladder's mean-field inputs "
                     f"(seed {SEED}), {REPEATS} runs per setting, alternating",
            "workers_1_s_median": one, "workers_2_s_median": two,
            "answer": f"{_verdict(one / two)}: {one:.2f} s with 1 worker vs {two:.2f} s "
                      f"with 2 ({one / two:.2f}x)"}


def _verdict(speedup: float) -> str:
    # gains inside the few-percent run-to-run noise of this machine do not count
    return "yes" if speedup > 1.05 else "no"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return ""
    return done.stdout.strip()


def main() -> int:
    blas = blas_threads_note()
    workers = workers_note()
    import numpy
    import scipy

    blas_config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_library": f"{blas_config['name']} {blas_config['version']}",
        "blas_threads_pinned": 1,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "notes": [workers, blas],
    }
    try:
        WORK.rmdir()
    except OSError:
        pass  # a benchmark run is using it
    (HERE / "environment.json").write_text(json.dumps(record, indent=2) + "\n",
                                           encoding="utf-8")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
