"""One pass of a workload in a fresh interpreter; prints a JSON report.

    python3 perfbench/worker.py WORKLOAD SEED PASS_DIR TRACE

Started by ``run.py`` with BLAS pinned in its environment.  ``depolgas`` is
imported before the clock starts (``setup_s`` measures that).  The pass runs
untraced and is timed; with TRACE = 1 it then runs traced and untraced once
more on the same seed, so those two wall times differ only by the tracing.
Outputs are checked after the timed sections.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def timed_pass(workload, seed: int, pass_dir: Path):
    pass_dir.mkdir(parents=True)
    ops = workload.prepare(seed, pass_dir)
    t0 = time.perf_counter()
    workloads.run(ops)
    return ops, time.perf_counter() - t0


def main(argv) -> int:
    name, seed, pass_dir, trace = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    sys.path.insert(0, str(SRC))
    import depolgas.cli  # noqa: F401  (imports belong to setup_s, not to the timed pass)

    workload = workloads.WORKLOADS[name]
    ops, wall = timed_pass(workload, seed, pass_dir / "plain")
    report = {"wall_s": wall, "config": str(ops[0].config)}
    passes = [ops]
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced, traced_wall = timed_pass(workload, seed, pass_dir / "traced")
        finally:
            tracer.restore()
        # compared with a warm untraced pass, as the first pass of a process
        # also pays for first-touch allocations
        warm, warm_wall = timed_pass(workload, seed, pass_dir / "warm")
        report["overhead"] = [traced_wall, warm_wall]
        report["stats"] = tracer.stats
        report["absent"] = tracer.absent
        report["csv_bytes"] = sum(op.csv.stat().st_size for op in traced if op.csv.is_file())
        passes += [traced, warm]
    for ops in passes:
        workloads.check(workload, ops)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["ops"] = [[op.label, op.failure] for ops in passes for op in ops]
    report["describe"] = [workload.describe(ops) for ops in passes]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
