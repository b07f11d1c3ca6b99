"""Run every workload over several seeds and write a BENCH json file.

    python3 perfbench/sweep.py --out perfbench/BENCH_<name>.json

For every workload in BENCHMARK.json, ten ``run.py`` processes (untraced,
seeds 0-9, ``run_seconds`` each) and one traced run with seed 0, which adds
the per-layer metrics.  For every end-to-end metric the file records the
values, their median and quartiles, and the quartile spread as a share of the
median, which BENCHMARK.json's bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, seed, seconds, 0) for seed in range(RUNS)]
        traced = run_once(workload, 0, seconds, 1)
        entry = {
            "seeds": [0, RUNS - 1],
            "attempted": sum(r["attempted"] for r in results + [traced]),
            "failed": sum(r["failed"] for r in results + [traced]),
            "end_to_end": {m["name"]: summarize([r["metrics"][m["name"]]["value"]
                                                 for r in results])
                           for m in bench["end_to_end"]},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        report["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"{workload} {name}: median {stats['median']:.4f} "
                  f"spread {stats['spread']:.4f}", flush=True)
        print(f"{workload}: {entry['failed']} of {entry['attempted']} ops failed",
              flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
