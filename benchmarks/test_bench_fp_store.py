"""Fingerprint-store memory tiers (our measurement).

``test_fp_store_memory`` measures the fingerprint-representation
memory-vs-time tradeoff (raw tuples vs the digest disk-spill tier) with
``tracemalloc`` on the symmetric 3-replica Counter scope, and the
slow-marked 4-replica scope completes under the spill tier — they land
in the ``fp_store`` and ``steal_3r.four_replica_spill`` sections of
``BENCH_explore.json``.  The parallel pool is measured end to end by
perfbench's ``sym_3r_jobs2`` workload instead.
"""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import emit
from repro.proofs.exhaustive import exhaustive_verify
from repro.proofs.registry import entry_by_name
from repro.runtime.fp_store import FingerprintStore

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_explore.json"

#: Hot-tier entries for the bounded-memory spill row.
SPILL_LIMIT = 8192

#: The reduction every run here uses: the committed ``fp_store`` and
#: ``four_replica_spill`` numbers were measured on the sleep-set engine.
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
