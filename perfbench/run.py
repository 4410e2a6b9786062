"""Benchmark of the nonclassicality CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One workload runs in one fresh process as a single-client closed loop: it
calls ``nonclassicality.cli.main`` in-process, one operation at a time, and
repeats whole rounds of the workload's operations until ``--seconds`` have
passed and at least MIN_OPS operations are done.  Only the first round's
outputs are kept; later outputs are compared with them as they arrive,
outside the timed call, and the first round is checked after the timed
phase.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from spans
around the program's public functions with ``--trace 1``.  The program is
imported from ``src/`` next to this directory and from nowhere else.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Tracer, layer_metrics, span_table
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
RESULTS = HERE / "results"

MIN_OPS = 100
#: Fresh interpreters started, one after another, to time set-up.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
LAYERS = ("cli", "moments", "entanglement", "optimize", "dicke", "fock")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def load_program():
    sys.path.insert(0, str(SOURCE))
    try:
        import nonclassicality
        from nonclassicality import cli
    except ImportError as exc:
        sys.exit(f"cannot import nonclassicality from {SOURCE}: {exc}")
    if not Path(nonclassicality.__file__).resolve().is_relative_to(SOURCE):
        sys.exit(f"nonclassicality was imported from outside {SOURCE}")
    return nonclassicality, cli


def call(cli, argv):
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead benchmark
            code = repr(exc)
        elapsed = time.perf_counter() - started
    return code, out.getvalue(), elapsed


def setup_seconds(args) -> list[float]:
    """Times from starting a fresh interpreter to the end of its warm-up."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(probe.stdout.split()[-1]) - started)
    return times


def timed_rounds(cli, ops, seconds: float):
    """Latencies, the first round's outputs, later outputs that differ from
    them (op index -> count) and the wall time of the timed phase.

    Only the first round's outputs are held, so the memory the loop keeps
    does not grow with the number of operations beyond 8 bytes of latency.
    """
    latencies, first, changed = array.array("d"), [], Counter()
    started = time.perf_counter()
    while True:
        for index, argv in enumerate(ops):
            code, text, elapsed = call(cli, argv)
            latencies.append(elapsed)
            if len(first) < len(ops):
                first.append((code, text))
            elif (code, text) != first[index]:
                changed[index] += 1
        wall = time.perf_counter() - started
        if wall >= seconds and len(latencies) >= MIN_OPS:
            return latencies, first, changed, wall


def evaluate(workload, first, changed, rounds: int, cli):
    """Failed operation count and the problems that make the run incorrect."""
    known, problems = workload.check(first, lambda argv: call(cli, argv)[:2])
    problems += [f"output of {workload.ops[i]} changed between rounds" for i in sorted(changed)]
    failed = rounds * len(known) + sum(n for i, n in changed.items() if i not in known)
    return failed, problems


def run_workload(args) -> int:
    package, cli = load_program()
    workload = WORKLOADS[args.workload](args.seed)
    code, _, _ = call(cli, workload.warmup)
    if code != 0:
        sys.exit(f"warm-up {workload.warmup} exited {code}")
    if args.setup_probe:
        print(time.monotonic())
        return 0

    setup = [] if args.trace else setup_seconds(args)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(package, [getattr(package, layer) for layer in LAYERS])
    try:
        latencies, first, changed, wall = timed_rounds(cli, workload.ops, args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
    # Read before the checks, whose reference matrices are not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = evaluate(workload, first, changed, len(latencies) // len(workload.ops), cli)

    end_to_end = {
        "ops_per_s": {"value": len(latencies) / wall, "unit": "1/s"},
        "p50_ms": {"value": percentile(latencies, 50) * 1e3, "unit": "ms"},
        "p90_ms": {"value": percentile(latencies, 90) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    if setup:
        end_to_end = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **end_to_end}
    result = {
        "correct": not problems,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": end_to_end,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "ops_per_round": len(workload.ops), "setup_probes_s": setup, "problems": problems,
              "end_to_end": end_to_end}
    if tracer:
        table = span_table(tracer.spans)
        result["metrics"] = layer_metrics(table, tracer.counts, len(latencies))
        record["spans"] = {name: {"calls": calls, "self_ms": own / 1e6}
                           for name, (calls, own) in sorted(table.items())}
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            return child.returncode
        print(name, child.stdout.splitlines()[-1])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
