"""Differential: compositional verdicts vs the whole-store product oracle.

Every 2-object store drawn from the op-based registry is verified both
ways on a small scope — per-object compositional rule vs whole-store
product exploration against the composed spec — and the verdicts must be
bit-identical (Thms 5.3/5.5).  The ⊗ (independent clocks) stores are the
soundness boundary: per-object projections pass while the product check
fails (the Fig. 9/Fig. 10 anomaly), which is why `verify_store` refuses
the shortcut there; the boundary test runs the per-object rule on a ⊗
store directly.
"""

import itertools

import pytest

from repro.proofs.compositional import (
    Store,
    _verify_per_object,
    check_side_condition,
    product_verify_store,
    store_programs,
    verify_store,
)
from repro.proofs.exhaustive import standard_programs
from repro.proofs.registry import ALL_ENTRIES

OB_ENTRIES = [e for e in ALL_ENTRIES if e.kind == "OB"]
ALL_PAIRS = list(
    itertools.combinations_with_replacement(
        [e.name for e in OB_ENTRIES], 2
    )
)
FAST_PAIRS = [
    ("Counter", "OR-Set"),
    ("LWW-Register", "RGA"),
    ("Counter", "Counter"),
    ("OR-Set", "Wooki"),
]


def two_object_store(first, second, shared_timestamps=True):
    entries = {e.name: e for e in OB_ENTRIES}
    return Store(
        (("o1", entries[first]), ("o2", entries[second])),
        shared_timestamps=shared_timestamps,
    )


def tiny_programs(store):
    programs = {"r1": [], "r2": []}
    for obj, entry in store.objects:
        per_object = standard_programs(entry)
        for replica in programs:
            ops = per_object.get(replica, [])
            if ops:
                programs[replica].append((ops[0][0], ops[0][1], obj))
    return programs


def assert_verdicts_match(store, **kwargs):
    programs = tiny_programs(store)
    compositional = verify_store(store, programs, **kwargs)
    oracle = product_verify_store(store, programs)
    assert compositional.mode == "compositional"
    assert compositional.ok == oracle.ok, (
        f"{store.describe()}: compositional={compositional.ok} "
        f"({compositional.failures}) product={oracle.ok} "
        f"({oracle.failures})"
    )


class TestDifferentialFast:
    @pytest.mark.parametrize("pair", FAST_PAIRS, ids=lambda p: "+".join(p))
    def test_pair_matches_oracle(self, pair):
        assert_verdicts_match(two_object_store(*pair))

    @pytest.mark.parametrize("symmetry", [True, False],
                             ids=["sym", "nosym"])
    @pytest.mark.parametrize("por", ["sleep", "source"])
    def test_variants_match_oracle(self, symmetry, por):
        assert_verdicts_match(
            two_object_store("Counter", "OR-Set"),
            symmetry=symmetry, por=por,
        )


class TestDifferentialFull:
    @pytest.mark.slow
    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: "+".join(p))
    def test_every_registry_pair_matches_oracle(self, pair):
        assert_verdicts_match(two_object_store(*pair))


class TestIndependentClockBoundary:
    def test_forced_compositional_rule_catches_non_ts_store(self):
        # The known-failing ⊗ pair: two RGAs with independent clocks
        # (the Fig. 10 shape).  Forcing the per-object rule must not
        # silently pass — the side-condition sweep flags the dominance
        # violation that breaks the merge argument.
        store = two_object_store("RGA", "RGA", shared_timestamps=False)
        result = _verify_per_object(store, store_programs(store))
        assert result.mode == "compositional"
        assert all(r.ok for r in result.objects.values())
        assert not result.side_condition_ok
        assert not result.ok
        assert any("side condition" in f for f in result.failures)

    def test_fallback_takes_product_route(self):
        store = two_object_store(
            "Counter", "Counter", shared_timestamps=False
        )
        result = verify_store(store, programs=tiny_programs(store))
        assert result.mode == "product"

    def test_side_condition_clean_under_shared_clock(self):
        store = two_object_store("RGA", "RGA")
        ok, checks, failures, cex, messages = check_side_condition(store)
        assert ok and failures == 0 and cex is None
        assert checks > 0
