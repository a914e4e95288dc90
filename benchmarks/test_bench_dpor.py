"""Source-DPOR vs. sleep sets (our measurement).

On symmetric 3-replica scopes, run ``exhaustive_verify`` with both POR
flavors — the classic sleep-set explorer and source-DPOR, both over
the same copy-on-write snapshots — and record wall speedups and
interleaving reductions in the ``dpor_3r`` section of
``BENCH_explore.json``.  Wall clocks are the min over interleaved runs
so a noisy neighbour does not sink either side, and every cell asserts
the two flavors agree bit-for-bit on verdicts and
distinct-configuration counts — including through the frontier-split
pool.
"""

import pytest

from conftest import emit, update_artifact
from repro.proofs.exhaustive import exhaustive_verify
from repro.proofs.registry import ALL_ENTRIES

ROUNDS = 3
RESULTS = {}


def _entry(name):
    return next(e for e in ALL_ENTRIES if e.name == name)


SCOPES = {
    "Counter (3r)": (_entry("Counter"), [("inc", ()), ("read", ())], None),
    "Counter (3r, nosym)": (
        _entry("Counter"), [("inc", ()), ("read", ())], False
    ),
    "OR-Set (3r)": (_entry("OR-Set"), [("add", ("a",)), ("read", ())], None),
}


def _programs(program):
    return {r: list(program) for r in ("r1", "r2", "r3")}


def _measure(entry, programs, symmetry):
    """Interleaved min-of-N for both flavors; returns the best runs."""
    best = {}
    for _ in range(ROUNDS):
        for por in ("sleep", "source"):
            result = exhaustive_verify(
                entry, programs, symmetry=symmetry, por=por
            )
            assert result.ok, result.failures
            if por not in best or \
                    result.stats.wall_time < best[por].stats.wall_time:
                best[por] = result
    return best["sleep"], best["source"]


@pytest.mark.parametrize("name", list(SCOPES), ids=list(SCOPES))
def test_source_dpor_speedup(benchmark, name):
    entry, program, symmetry = SCOPES[name]
    programs = _programs(program)
    sleep, source = benchmark.pedantic(
        _measure, args=(entry, programs, symmetry), rounds=1, iterations=1
    )
    # The reduction must be invisible in the results ...
    assert source.ok == sleep.ok
    assert source.configurations == sleep.configurations
    assert source.failures == sleep.failures
    # ... and real in the walk.
    assert source.stats.states_visited < sleep.stats.states_visited
    assert source.stats.dpor_redundant_avoided > 0
    RESULTS[name] = {
        "sleep_seconds": round(sleep.stats.wall_time, 4),
        "source_seconds": round(source.stats.wall_time, 4),
        "speedup": round(
            sleep.stats.wall_time / source.stats.wall_time, 2
        ),
        "configurations": source.configurations,
        "sleep_states": sleep.stats.states_visited,
        "source_states": source.stats.states_visited,
        "state_reduction": round(
            sleep.stats.states_visited / source.stats.states_visited, 2
        ),
        "dpor_races": source.stats.dpor_races,
        "dpor_redundant_avoided": source.stats.dpor_redundant_avoided,
    }


def test_steal_parity(benchmark):
    """Both flavors agree through the frontier-split pool too."""
    entry, program, symmetry = SCOPES["Counter (3r)"]
    programs = _programs(program)

    def run():
        return {
            por: exhaustive_verify(
                entry, programs, symmetry=symmetry, jobs=2,
                oversubscribe=True, por=por,
            )
            for por in ("sleep", "source")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    serial = exhaustive_verify(entry, programs, symmetry=symmetry)
    for por, result in results.items():
        assert result.ok, (por, result.failures)
        assert result.configurations == serial.configurations, por


def test_dpor_table(benchmark):
    benchmark(lambda: None)
    emit("Source-DPOR vs. sleep sets, 3-replica scopes",
         "\n".join(
             f"{name:<20} sleep {r['sleep_seconds']:7.2f}s "
             f"({r['sleep_states']:>6} states)   source "
             f"{r['source_seconds']:7.2f}s ({r['source_states']:>6} "
             f"states)   {r['speedup']:>5.2f}x wall, "
             f"{r['state_reduction']:>5.2f}x states"
             for name, r in RESULTS.items()
         ))
    update_artifact({"dpor_3r": {
        "scope": f"symmetric 3-replica 2-op programs, min of {ROUNDS} "
                 "interleaved runs",
        "entries": RESULTS,
    }})
    # Acceptance: >= 2x wall clock over the PR-6 engine on at least one
    # 3-replica scope.
    assert max(r["speedup"] for r in RESULTS.values()) >= 2.0, RESULTS
