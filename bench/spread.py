"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --runs 10 --first-seed 1 --out bench/baseline.json

Runs ``bench/run.py`` once per seed and workload, one run at a time, and
reports for each metric the median, the quartiles and the spread, which is
the distance between the quartiles as a share of the median.  With ``--out``
the table is written as JSON together with the interpreter version and CPU
count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import harness


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(harness.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    table = {}
    for workload in harness.WORKLOADS:
        runs = [one_run(workload, seed, declared["run_seconds"]) for seed in seeds]
        table[workload] = {}
        for metric in declared["end_to_end"]:
            name = metric["name"]
            values = [run[name] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            table[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                     "spread": spread, "values": values}
            print(f"{workload:13s} {name:12s} median {median:.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f} "
                  f"(bound {metric['bound']})", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"python": platform.python_version(),
                       "nproc": os.cpu_count(),
                       "run_seconds": declared["run_seconds"],
                       "seeds": seeds, "workloads": table}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
