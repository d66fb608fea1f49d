"""Run the benchmark on several seeds; print each metric's median, quartiles
and quartile spread (q3 - q1) / median.

    python3 perfbench/spread.py --workloads counterexamples,discharge-pairs \
        --seeds 101-110 --seconds 15

Run from the repository root.  Runs go one after another, each in its own
process, exactly as ``perfbench/run.py`` is run on its own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="N or N-M")
    parser.add_argument("--seconds", default="15")
    args = parser.parse_args()

    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results.setdefault(workload, []).append(result)
            print(workload, seed, result["correct"], result["attempted"], result["failed"], flush=True)

    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"== {workload}: {len(runs)} runs, failed shares {shares}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                print(f"  {name:40s} value {values[0]:12.4f}")
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:40s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
