"""Run workloads several times and report how steady each metric is.

Run from the repository root::

    python3 perfbench/spread.py --workload sym_3r --runs 10 --seed 100

Each run is a fresh untraced process of the benchmark command from
``BENCHMARK.json`` with its own seed (``--seed``, ``--seed + 1``, ...).
For every metric it prints the median, the quartiles and the spread
(interquartile distance over the median), and flags a spread wider than
the metric's bound (``WIDE``) or wider than a third of it (``unsteady``).
``--workload all`` runs every workload, one after another.  Exits 1 when
a run fails, reports a wrong verdict, or a spread is wider than its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(bench, workload, seed, seconds):
    command = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def report(workload, results, bounds):
    """Print one workload's table; returns False when a check fails."""
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    print(f"{workload}: {len(results)} runs, "
          f"{sum(r['attempted'] for r in results)} verdicts, "
          f"{sum(r['failed'] for r in results)} wrong, "
          f"correct={all(r['correct'] for r in results)}")
    print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "WIDE"
            ok = False
        elif bound is not None and spread > bound / 3:
            flag = "unsteady"
        shown = f"{bound:.2f}" if bound is not None else "-"
        print(f"  {name:<34} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>7.3f} {shown:>6} {flag}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first run; later runs add 1")
    parser.add_argument("--seconds", type=int, default=None,
                        help="override BENCHMARK.json's run_seconds")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for workload in workloads:
        results = [run_once(bench, workload, args.seed + i, seconds)
                   for i in range(args.runs)]
        ok = report(workload, results, bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
