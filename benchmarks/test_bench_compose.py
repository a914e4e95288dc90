"""Compositional per-object proof rule vs whole-store product (Sec. 5).

On a 3-object ⊗ts store, run `verify_store` (per-object exhaustion plus
the side-condition sweep) and `product_verify_store` (every interleaving
of the composed system, checked against the composed spec) on the same
small store programs, and record wall times and the speedup in the
``compose_3r`` section of ``BENCH_explore.json``.  Wall clocks are the
min over interleaved runs so a noisy neighbour does not sink either
side; every round asserts the two routes agree on the verdict — the
differential guarantee of Theorems 5.3/5.5.

The programs stay at one op per object per replica: the product space
multiplies per-object interleavings, so even this scope explores ~600
product configurations where the compositional route explores a handful
per object — and anything larger puts the product side out of bench
range entirely (the point of the rule).
"""

import time

from conftest import emit, update_artifact
from repro.proofs.compositional import (
    parse_store_spec,
    product_verify_store,
    verify_store,
)
from repro.proofs.exhaustive import standard_programs

ROUNDS = 3
RESULTS = {}

STORE_SPEC = "counter:1,orset:1,lww_register:1"


def _store_and_programs():
    store = parse_store_spec(STORE_SPEC)
    programs = {"r1": [], "r2": []}
    for obj, entry in store.objects:
        per_object = standard_programs(entry)
        for replica in programs:
            ops = per_object.get(replica, [])
            if ops:
                programs[replica].append((ops[0][0], ops[0][1], obj))
    return store, programs


def _measure():
    """Interleaved min-of-N for both routes; returns the best runs."""
    store, programs = _store_and_programs()
    best = {}
    for _ in range(ROUNDS):
        started = time.perf_counter()
        compositional = verify_store(store, programs)
        compositional_wall = time.perf_counter() - started
        started = time.perf_counter()
        product = product_verify_store(store, programs)
        product_wall = time.perf_counter() - started
        assert compositional.ok == product.ok, (
            compositional.failures, product.failures
        )
        assert compositional.ok, compositional.failures
        if "compositional" not in best or \
                compositional_wall < best["compositional"][1]:
            best["compositional"] = (compositional, compositional_wall)
        if "product" not in best or product_wall < best["product"][1]:
            best["product"] = (product, product_wall)
    return best["compositional"], best["product"]


def test_compose_3r_speedup(benchmark):
    (compositional, compositional_wall), (product, product_wall) = \
        benchmark.pedantic(_measure, rounds=1, iterations=1)
    RESULTS[STORE_SPEC] = {
        "compositional_seconds": round(compositional_wall, 4),
        "product_seconds": round(product_wall, 4),
        "speedup": round(product_wall / compositional_wall, 2),
        "objects": len(compositional.objects),
        "object_configurations": compositional.configurations,
        "side_condition_checks": compositional.side_condition_checks,
        "product_configurations": product.configurations,
        "verdicts_agree": compositional.ok == product.ok,
    }


def test_compose_table(benchmark):
    benchmark(lambda: None)
    emit("Compositional per-object rule vs whole-store product, "
         "3-object ⊗ts store",
         "\n".join(
             f"{name:<32} compositional {r['compositional_seconds']:7.3f}s "
             f"({r['object_configurations']:>4} configs + "
             f"{r['side_condition_checks']} sweep)   product "
             f"{r['product_seconds']:7.3f}s "
             f"({r['product_configurations']:>5} configs)   "
             f"{r['speedup']:>6.2f}x wall"
             for name, r in RESULTS.items()
         ))
    update_artifact({"compose_3r": {
        "scope": f"3-object ⊗ts store, 1 op per object per replica on 2 "
                 f"replicas, min of {ROUNDS} interleaved runs",
        "entries": RESULTS,
    }})
    # Acceptance: the compositional route is >= 5x faster than product
    # exploration on the 3-object store, verdicts identical.
    assert all(r["verdicts_agree"] for r in RESULTS.values()), RESULTS
    assert max(r["speedup"] for r in RESULTS.values()) >= 5.0, RESULTS
