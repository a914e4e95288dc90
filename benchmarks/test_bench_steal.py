"""Work-stealing scheduler vs static root-branch fan-out (our measurement).

The skewed case the scheduler exists for: a *symmetric* 3-replica scope,
where orbit filtering collapses every root branch into one
representative — the static fan-out degenerates to a serial run no
matter how many workers it is given, while the stealing pool splits the
surviving branch's subtrees across the pool.

Machines without enough cores cannot measure that wall-clock gap
directly, so the harness measures it *structurally*: a single-worker
forced-split pool run (``force_pool=True``) is a contention-free
serialization of the task DAG — accurate per-task durations, spawn
times, and parent edges — and a deterministic list-scheduling simulator
replays that DAG on ``MODEL_WORKERS`` virtual workers.  The static
baseline is the same scope with splitting disabled (its "DAG" is the
seed tasks alone), replayed through the same simulator.  On hosts with
enough real cores the real pool wall clock is recorded alongside the
model.

``test_fp_store_memory`` measures the fingerprint-representation
memory-vs-time tradeoff (raw tuples vs the digest disk-spill tier) with
``tracemalloc``, and the slow-marked 4-replica scope completes under the
spill tier — both land in the ``steal_3r`` / ``fp_store`` sections of
``BENCH_explore.json``.
"""

import heapq
import json
import os
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import emit
from repro.proofs.exhaustive import exhaustive_verify
from repro.proofs.registry import entry_by_name
from repro.proofs.steal import exhaustive_verify_steal
from repro.runtime.fp_store import FingerprintStore

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_explore.json"

#: The virtual pool size the makespan model schedules onto.
MODEL_WORKERS = 4

#: Hot-tier entries for the bounded-memory spill row.
SPILL_LIMIT = 8192

#: The reduction every run here uses.  The committed ``steal_3r`` and
#: ``fp_store`` numbers were measured on the sleep-set engine.  Under
#: source-DPOR the forced-split serialization below models 0.11x (about
#: 17k replayed tasks against one 1.5 s serial task): each stolen task
#: replays its prefix and re-runs the prefix's race reversals as
#: deferred tasks, so forced splitting at every other node is a cost
#: this comparison does not set out to measure.
POR = "sleep"

SYM_3R = {r: [("inc", ()), ("read", ())] for r in ("r1", "r2", "r3")}

SKEWED_4R = {
    "r1": [("inc", ()), ("read", ())],
    "r2": [("inc", ())],
    "r3": [("inc", ())],
    "r4": [("inc", ())],
}


def _update_artifact(key, section):
    artifact = json.loads(JSON_PATH.read_text()) if JSON_PATH.exists() \
        else {}
    existing = artifact.get(key)
    if isinstance(existing, dict) and isinstance(section, dict):
        existing.update(section)
    else:
        artifact[key] = section
    JSON_PATH.write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    )


def simulate_makespan(stats, workers):
    """Greedy list-scheduling makespan of a recorded task DAG.

    Tasks become ready at their recorded spawn offset *within the
    parent's execution* (a stolen subtree exists only once the parent's
    DFS reaches and offloads it); seeds are ready at time zero.  A free
    worker takes the earliest-ready task, matching the FIFO task queue.
    """
    duration = {}
    children = {}
    order = {}
    parent_of = {}
    starts = {}
    for index, (tid, parent, _scope, start, end) in enumerate(
            stats.timeline):
        duration[tid] = end - start
        order[tid] = index
        parent_of[tid] = parent
        starts[tid] = start
    for tid, spawn in stats.spawn_times.items():
        parent = parent_of[tid]
        offset = min(max(0.0, spawn - starts[parent]), duration[parent])
        children.setdefault(parent, []).append((tid, offset))
    ready = [
        (0.0, order[tid], tid)
        for tid, parent in parent_of.items() if parent is None
    ]
    heapq.heapify(ready)
    free = [0.0] * workers
    heapq.heapify(free)
    scheduled = 0
    makespan = 0.0
    while ready:
        ready_at, _, tid = heapq.heappop(ready)
        start = max(ready_at, heapq.heappop(free))
        end = start + duration[tid]
        heapq.heappush(free, end)
        makespan = max(makespan, end)
        for child, offset in children.get(tid, ()):
            heapq.heappush(ready, (start + offset, order[child], child))
        scheduled += 1
    assert scheduled == len(duration), "task DAG has unreachable tasks"
    return makespan


def _pool_run(entry, programs, **kwargs):
    sink = {}
    result = exhaustive_verify_steal(
        entry, programs, jobs=1, symmetry=True, oversubscribe=True,
        force_pool=True, stats_sink=sink, por=POR, **kwargs
    )
    return result, sink["steal"]


def test_steal_vs_static_3r(benchmark):
    """Modeled ≥2x makespan over the static fan-out on a skewed scope."""
    entry = entry_by_name("Counter")

    def run():
        # Splitting disabled: the task DAG is the orbit-filtered seed
        # set — for a symmetric scope, one representative root branch,
        # i.e. the static fan-out's serial worst case.
        static_result, static = _pool_run(
            entry, SYM_3R, pending_target=0, split_interval=10**9
        )
        steal_result, steal = _pool_run(
            entry, SYM_3R, pending_target=10**6, split_interval=2
        )
        assert static_result.ok and steal_result.ok
        assert steal_result.configurations == static_result.configurations
        assert steal.stolen_tasks > 0
        return static_result, static, steal

    static_result, static, steal = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    static_makespan = simulate_makespan(static, MODEL_WORKERS)
    steal_makespan = simulate_makespan(steal, MODEL_WORKERS)
    speedup = static_makespan / steal_makespan
    section = {
        "scope": "Counter, symmetric 3-replica [inc, read] programs",
        "orbits": static_result.configurations,
        "model_workers": MODEL_WORKERS,
        "model": "list-scheduling replay of a single-worker forced-split "
                 "pool serialization (accurate per-task durations and "
                 "spawn offsets, no core contention)",
        "static_seed_tasks": static.seed_tasks,
        "static_makespan_seconds": round(static_makespan, 4),
        "steal_tasks": steal.tasks,
        "steal_stolen_tasks": steal.stolen_tasks,
        "steal_makespan_seconds": round(steal_makespan, 4),
        "steal_total_task_seconds": round(
            sum(end - start for _, _, _, start, end in steal.timeline), 4
        ),
        "modeled_speedup": round(speedup, 2),
        "cpu_count": os.cpu_count(),
    }
    if (os.cpu_count() or 1) >= 2:
        jobs = min(MODEL_WORKERS, os.cpu_count())
        start = time.perf_counter()
        real_result = exhaustive_verify_steal(
            entry, SYM_3R, jobs=jobs, symmetry=True, split_interval=2,
            por=POR,
        )
        wall = time.perf_counter() - start
        assert real_result.configurations == static_result.configurations
        section["real"] = {
            "jobs": jobs,
            "wall_seconds": round(wall, 4),
            "speedup_vs_static_makespan": round(static_makespan / wall, 2),
        }
    _update_artifact("steal_3r", section)
    emit(
        "Work stealing vs static fan-out (skewed symmetric 3r scope)",
        f"static: {static.seed_tasks} seed task(s), makespan "
        f"{static_makespan:6.2f}s on {MODEL_WORKERS} modeled workers\n"
        f"steal:  {steal.tasks} tasks ({steal.stolen_tasks} stolen), "
        f"makespan {steal_makespan:6.2f}s on {MODEL_WORKERS} modeled "
        f"workers\n"
        f"modeled speedup: {speedup:.2f}x",
    )
    # Acceptance: >= 2x over static root-branch splitting.
    assert speedup >= 2.0, section


def test_fp_store_memory(benchmark):
    """Memory-vs-time across fingerprint representations (3r scope)."""
    entry = entry_by_name("Counter")

    def measure(label, **kwargs):
        tracemalloc.start()
        start = time.perf_counter()
        result = exhaustive_verify(entry, SYM_3R, symmetry=True, por=POR,
                                   **kwargs)
        wall = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.ok, result.failures
        row = {
            "peak_mib": round(peak / 2**20, 1),
            "seconds": round(wall, 2),
        }
        if result.fp_store is not None:
            row.update({
                "unique_digests": result.fp_store.unique,
                "evictions": result.fp_store.evictions,
                "spilled": result.fp_store.spilled,
            })
        return result, row

    def run(tmp):
        rows = {}
        raw, rows["raw"] = measure("raw")
        import repro.proofs.exhaustive as exhaustive_module

        original = exhaustive_module.FingerprintStore
        exhaustive_module.FingerprintStore = (
            lambda spill_dir: FingerprintStore(
                spill_dir=spill_dir, memory_limit=SPILL_LIMIT
            )
        )
        try:
            spill, rows["spill"] = measure("spill", spill=str(tmp))
        finally:
            exhaustive_module.FingerprintStore = original
        assert raw.configurations == spill.configurations
        return rows

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rows = benchmark.pedantic(run, args=(tmp,), rounds=1, iterations=1)
    rows["spill"]["memory_limit"] = SPILL_LIMIT
    section = {
        "scope": "Counter, symmetric 3-replica [inc, read] programs, "
                 "tracemalloc peaks",
        "rows": rows,
    }
    _update_artifact("fp_store", section)
    emit(
        "Fingerprint store: memory vs time",
        "\n".join(
            f"{label:<8} peak {row['peak_mib']:7.1f} MiB   "
            f"{row['seconds']:7.2f}s"
            + (f"   evictions {row['evictions']}"
               if "evictions" in row else "")
            for label, row in rows.items()
        ),
    )
    assert rows["spill"]["evictions"] > 0, rows


@pytest.mark.slow
def test_four_replica_spill(benchmark):
    """A 4-replica scope completes under the spill tier (slow)."""
    import tempfile

    entry = entry_by_name("Counter")

    def run(tmp):
        start = time.perf_counter()
        result = exhaustive_verify(
            entry, SKEWED_4R, symmetry=True, spill=str(tmp), por=POR
        )
        wall = time.perf_counter() - start
        assert result.ok, result.failures
        assert result.fp_store is not None
        return result, wall

    with tempfile.TemporaryDirectory() as tmp:
        result, wall = benchmark.pedantic(
            run, args=(tmp,), rounds=1, iterations=1
        )
    store = result.fp_store
    section = {
        "four_replica_spill": {
            "scope": "Counter, 4 replicas (skewed: one reader), "
                     "symmetry + spill tier",
            "orbits": result.configurations,
            "states_visited": result.stats.states_visited,
            "seconds": round(wall, 1),
            "unique_digests": store.unique,
            "evictions": store.evictions,
            "spilled": store.spilled,
            "hit_ratio": round(store.hit_ratio, 3),
        }
    }
    _update_artifact("steal_3r", section)
    emit(
        "4-replica scope under the spill tier",
        f"{result.configurations} orbits, "
        f"{result.stats.states_visited} states, {wall:.1f}s, "
        f"{store.spilled} digests spilled to disk",
    )
