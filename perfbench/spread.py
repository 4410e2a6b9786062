"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--first-seed 1]

Runs run.py ten times on each workload of BENCHMARK.json, for run_seconds
each, with seeds first-seed .. first-seed + 9, one run at a time, and
prints for each metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json.  It also prints the
failed share of attempted operations, which must read the same in every run.
The per-run results are written to results/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
RUNS = 10


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            child = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600, check=True,
            )
            results.append(json.loads(child.stdout.splitlines()[-1]))
        (HERE / "results" / f"spread-{workload}.json").write_text(json.dumps(results) + "\n")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        attempted = [r["attempted"] for r in results]
        print(f"{workload}: correct={all(r['correct'] for r in results)} "
              f"attempted={min(attempted)}..{max(attempted)} failed share={shares}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / median:6.2%}  bound {bound:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
