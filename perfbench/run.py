"""The benchmark: one seeded workload, verified closed-loop.

Run from the repository root::

    python3 perfbench/run.py --workload registry_2r --seed 1 --seconds 20 --trace 0

The run generates the workload's scopes from the seed, sets up (imports,
scope generation, reference load and one untimed warm-up verdict), then
verifies the scopes closed-loop, one verdict at a time, round after
round, until another round would overrun the time (at least two
rounds).  Each verdict is checked against ``reference.json``; a
mismatched verdict or configuration count is a failed verdict.  Metrics
come from per-scope medians over the rounds.  ``setup_s`` is the median
of seven set-ups, each in a fresh interpreter, run between the rounds.

The last line of standard output is one JSON object.  With ``--trace 0``
it carries the end-to-end metrics; with ``--trace 1`` the per-layer
metrics of one untraced and one traced pass over the same scopes, with
the per-layer table printed above it and every span written to
``.perfbench/spans-<workload>.csv``.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: workload -> (jobs, spill, warm-up entry).  The warm-up verdict runs
#: the entry's standard 2-replica programs serially, so lazy imports of
#: that path (``runtime/state_explore`` for G-Counter) land in set-up.
#: It skips the pool and the spill tier: both are imported eagerly, and
#: each verdict forks its own workers and opens its own store, so a
#: warm-up through them would warm nothing and only add their start-up
#: noise to ``setup_s``.
WORKLOADS = {
    "registry_2r": (1, False, "G-Counter"),
    "sym_3r": (1, False, "G-Counter"),
    "sym_3r_jobs2": (min(2, os.cpu_count() or 1), False, "G-Counter"),
    "skew_4r_spill": (1, True, "Counter"),
}

SETUP_REPEATS = 7
MIN_ROUNDS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Spill:
    """A fresh spill directory per verdict, under the checkout."""

    def __init__(self, enabled: bool) -> None:
        self.base = os.path.join(WORK, f"spill-{os.getpid()}")
        self.enabled = enabled
        self.count = 0

    def fresh(self):
        if not self.enabled:
            return None
        self.count += 1
        path = os.path.join(self.base, str(self.count))
        os.makedirs(path)
        return path

    def drop(self, path) -> None:
        if path is not None:
            shutil.rmtree(path, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


class Run:
    """One workload's scopes, options and verdict bookkeeping."""

    def __init__(self, workload: str, seed: int) -> None:
        import harness
        import scopes

        self.harness = harness
        self.workload = workload
        self.jobs, spill, self.warmup_entry = WORKLOADS[workload]
        self.spill = Spill(spill)
        self.options = harness.cli_options()
        self.scopes = scopes.generate(workload, seed)
        self.table = harness.load_reference()
        for scope in self.scopes:
            harness.expected(scope, self.table)  # KeyError if unknown
        self.attempted = 0
        self.failed = 0
        self.unspilled = 0

    def warm_up(self) -> None:
        from repro.proofs import entry_by_name, standard_programs

        import scopes

        entry = entry_by_name(self.warmup_entry)
        scope = scopes.Scope("entry", entry.name,
                             scopes.freeze(standard_programs(entry)))
        self.harness.verify(scope, self.options)

    def verdict(self, scope, tracer=None):
        """Verify and judge one scope; returns ``(seconds, result)``.
        With a ``tracer`` the call is the root span of its layer spans."""
        gc.collect()
        spill = self.spill.fresh()
        span = tracer.begin(tracer.root) if tracer is not None else None
        started = time.perf_counter()
        try:
            result = self.harness.verify(scope, self.options, jobs=self.jobs,
                                         spill=spill)
        finally:
            seconds = time.perf_counter() - started
            if span is not None:
                tracer.finish(span)
        self.spill.drop(spill)
        self.attempted += 1
        if self.harness.is_wrong(scope, result, self.table):
            self.failed += 1
            print(f"wrong verdict: {scope.key} -> ok={result.ok} "
                  f"configurations={result.configurations}",
                  file=sys.stderr)
        if spill is not None and not (result.fp_store is not None
                                      and result.fp_store.spilled > 0):
            self.unspilled += 1
        return seconds, result


def set_up(workload: str, seed: int) -> "Run":
    run = Run(workload, seed)
    run.warm_up()
    return run


def probe_setup(workload: str, seed: int) -> None:
    """Time one set-up in this (fresh) interpreter: imports, scope
    generation, reference load and the warm-up verdict."""
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import repro.proofs  # noqa: F401
    import repro.__main__  # noqa: F401

    set_up(workload, seed).spill.close()
    print(time.perf_counter() - started)


PROBE = ("import sys; sys.path.insert(0, {here!r}); import run; "
         "run.probe_setup(sys.argv[1], int(sys.argv[2]))")


def setup_probe(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, so that imports are paid."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(here=HERE), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def measure(run: "Run", seconds: float, seed: int):
    """Rounds over every scope until ``seconds`` would be exceeded.

    The ``SETUP_REPEATS`` set-up probes run between rounds, one before
    the first and the rest spread over the same window.  The host's
    speed changes in phases of seconds, and probes run in one burst
    would all land in one phase."""
    samples = [[] for _ in run.scopes]
    configurations = [0] * len(run.scopes)
    setups = []

    def probe_until(count: int) -> None:
        while len(setups) < min(count, SETUP_REPEATS):
            setups.append(setup_probe(run.workload, seed))

    started = time.perf_counter()
    deadline = started + seconds
    rounds = 0
    while True:
        share = (time.perf_counter() - started) / seconds
        probe_until(max(1, round(SETUP_REPEATS * share)))
        round_start = time.perf_counter()
        for index, scope in enumerate(run.scopes):
            elapsed, result = run.verdict(scope)
            samples[index].append(elapsed)
            configurations[index] = result.configurations
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - round_start) > deadline:
            probe_until(SETUP_REPEATS)
            return samples, configurations, rounds, setups


def peak_rss_mib() -> float:
    """Peak resident memory of the largest process of the run, in MiB:
    this one or a pool worker, whichever peaked higher.

    A forked worker's peak already holds the pages it shares
    copy-on-write with this process, so adding the two would count those
    twice; the pool's other workers are not added either."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The set-up probes are children too, but each does a part of this
    # process's work, so they peak below it.
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(run: "Run", seconds: float, seed: int):
    samples, configurations, rounds, setups = measure(run, seconds, seed)
    medians = [statistics.median(s) for s in samples]
    p90 = (statistics.quantiles(medians, n=10, method="inclusive")[8]
           if len(medians) > 1 else medians[0])
    metrics = {
        "configs_per_s": (sum(configurations) / sum(medians), "1/s"),
        "verdict_s_p50": (statistics.median(medians), "s"),
        "verdict_s_p90": (p90, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"{run.workload}: {len(run.scopes)} scopes x {rounds} rounds, "
          f"{run.attempted} verdicts, wrong_verdicts "
          f"{run.failed / run.attempted:.4f} (ratio)")
    return metrics


def traced(run: "Run"):
    """Each scope once untraced and once traced, back to back and in
    alternating order, so host drift and warm caches cancel out of the
    tracing overhead."""
    import layertrace as trace

    tracer = trace.Tracer()
    walls = {False: 0.0, True: 0.0}
    results = {False: [], True: []}
    for index, scope in enumerate(run.scopes):
        tracer.scope_id = index
        for traced_pass in ((False, True) if index % 2 else (True, False)):
            uninstall = trace.install(tracer) if traced_pass else None
            try:
                elapsed, result = run.verdict(
                    scope, tracer=tracer if traced_pass else None)
            finally:
                if uninstall is not None:
                    uninstall()
            walls[traced_pass] += elapsed
            results[traced_pass].append(result)
    traced_wall, untraced_wall = walls[True], walls[False]
    traced_results, untraced_results = results[True], results[False]
    times = tracer.self_times()
    values = trace.layer_metrics(tracer, times, traced_results,
                                 untraced_results, traced_wall, untraced_wall)
    print(trace.format_table(run.workload, times, values, traced_wall,
                             untraced_wall))
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"spans-{run.workload}.csv"))
    return {name: (value, trace.LAYER_MAP[name][0])
            for name, value in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro.proofs  # noqa: F401
    import repro.__main__  # noqa: F401

    run = set_up(args.workload, args.seed)
    try:
        if args.trace:
            metrics = traced(run)
        else:
            metrics = end_to_end(run, args.seconds, args.seed)
            for name, (value, unit) in metrics.items():
                print(f"{name:<34} {value:>16.6f} {unit}")
    finally:
        run.spill.close()
    if run.unspilled:
        print(f"{run.unspilled} verdicts never reached the spill tier",
              file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0 and run.unspilled == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
