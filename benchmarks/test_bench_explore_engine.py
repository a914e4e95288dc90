"""Naive vs. fast exploration engine (our measurement).

For every registry entry's standard two-replica programs, run
``exhaustive_verify`` with both engines — the kept raw-interleaving
baseline (:mod:`repro.runtime.explore_naive`) and the sleep-set /
dedup / snapshot engine (:mod:`repro.runtime.explore_engine`) — and
record the wall-clock speedup, configurations/second, and dedup ratio
in ``BENCH_explore.json`` so the perf trajectory is tracked across PRs.

The deepest 3-replica scopes (``-m slow``) run the fast engine only: the
naive explorer does not finish them in reasonable time, which is the
point.
"""

import time

import pytest

from conftest import emit, update_artifact
from repro.core.sentinels import ROOT
from repro.proofs.exhaustive import (
    exhaustive_verify,
    exhaustive_verify_state,
    standard_programs,
)
from repro.proofs.registry import ALL_ENTRIES

OB_ENTRIES = [e for e in ALL_ENTRIES if e.kind == "OB"]
SB_ENTRIES = [e for e in ALL_ENTRIES if e.kind == "SB"]
RESULTS = {}


def _compare(entry, verify, kwargs):
    start = time.perf_counter()
    naive = verify(entry, standard_programs(entry), engine="naive", **kwargs)
    naive_s = time.perf_counter() - start
    fast = verify(entry, standard_programs(entry), **kwargs)
    assert naive.ok and fast.ok, (naive.failures, fast.failures)
    stats = fast.stats
    RESULTS[entry.name] = {
        "kind": entry.kind,
        "naive_seconds": round(naive_s, 4),
        "fast_seconds": round(stats.wall_time, 4),
        "speedup": round(naive_s / stats.wall_time, 1),
        "naive_configurations": naive.configurations,
        "distinct_configurations": fast.configurations,
        "configs_per_sec": round(fast.configurations / stats.wall_time, 1),
        "dedup_ratio": round(stats.dedup_ratio, 3),
        "branches_pruned": stats.branches_pruned,
        "symmetry_group": stats.symmetry_group,
    }
    check = fast.check_stats
    if check is not None:
        RESULTS[entry.name].update({
            "checks": check.checks,
            "verdict_hit_ratio": round(
                check.verdict_hits / check.checks, 3
            ) if check.checks else 0.0,
            "frontier_hit_ratio": round(check.frontier_hit_ratio, 3),
            "frontier_nodes": check.frontier_nodes,
        })
    return fast


@pytest.mark.parametrize("entry", OB_ENTRIES, ids=[e.name for e in OB_ENTRIES])
def test_op_engine_speedup(benchmark, entry):
    result = benchmark.pedantic(
        _compare,
        args=(entry, exhaustive_verify, {}),
        rounds=1,
        iterations=1,
    )
    assert result.ok


@pytest.mark.parametrize("entry", SB_ENTRIES, ids=[e.name for e in SB_ENTRIES])
def test_state_engine_speedup(benchmark, entry):
    result = benchmark.pedantic(
        _compare,
        args=(entry, exhaustive_verify_state, {"max_gossips": 2}),
        rounds=1,
        iterations=1,
    )
    assert result.ok


def test_speedup_table(benchmark):
    benchmark(lambda: None)
    rows = []
    for name, r in sorted(RESULTS.items()):
        rows.append(
            f"{name:<18} {r['kind']}  naive {r['naive_seconds']:7.3f}s "
            f"({r['naive_configurations']:>5} visits)   engine "
            f"{r['fast_seconds']:7.3f}s ({r['distinct_configurations']:>5} "
            f"distinct)   {r['speedup']:>6.1f}x"
        )
    naive_total = sum(r["naive_seconds"] for r in RESULTS.values())
    fast_total = sum(r["fast_seconds"] for r in RESULTS.values())
    overall = naive_total / fast_total
    ob = {n: r for n, r in RESULTS.items() if r["kind"] == "OB"}
    ob_overall = (
        sum(r["naive_seconds"] for r in ob.values())
        / sum(r["fast_seconds"] for r in ob.values())
    )
    rows.append(
        f"{'TOTAL':<18}     naive {naive_total:7.3f}s             "
        f"engine {fast_total:7.3f}s                  {overall:>6.1f}x"
    )
    emit("Exploration engine: naive vs. sleep sets + dedup + snapshots",
         "\n".join(rows))
    update_artifact({
        "scope": "registry standard programs, 2 replicas",
        "entries": RESULTS,
        "overall_speedup": round(overall, 1),
        "op_based_speedup": round(ob_overall, 1),
    })
    # Acceptance: >= 10x wall clock on exhaustive_verify (op-based).
    assert ob_overall >= 10.0, RESULTS


@pytest.mark.slow
def test_three_replica_scopes(benchmark):
    """Previously infeasible scopes, fast engine only."""
    orset = next(e for e in OB_ENTRIES if e.name == "OR-Set")
    rga = next(e for e in OB_ENTRIES if e.name == "RGA")
    scopes = {
        "OR-Set (3r)": (orset, {
            "r1": [("add", ("a",)), ("remove", ("a",)), ("read", ())],
            "r2": [("add", ("a",)), ("read", ())],
            "r3": [("add", ("a",))],
        }),
        "RGA (3r)": (rga, {
            "r1": [("addAfter", (ROOT, "a")), ("read", ())],
            "r2": [("addAfter", (ROOT, "b")), ("read", ())],
            "r3": [("addAfter", (ROOT, "c")), ("read", ())],
        }),
    }

    def run():
        rows = {}
        for name, (entry, programs) in scopes.items():
            result = exhaustive_verify(entry, programs)
            assert result.ok, result.failures
            rows[name] = result
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("3-replica exhaustive scopes (naive explorer: infeasible)",
         "\n".join(
             f"{name:<12} {res.configurations:>6} distinct configurations, "
             f"{res.stats.states_visited:>8} states, "
             f"{res.stats.wall_time:7.1f}s"
             for name, res in rows.items()
         ))
