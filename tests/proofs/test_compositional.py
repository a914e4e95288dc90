"""The compositional per-object proof rule (Sec. 5, Thms 5.3/5.5)."""

import pytest

from repro.proofs.compositional import (
    SIDE_CONDITION_LIMIT,
    check_side_condition,
    composed_table_entry,
    make_store_system,
    parse_store_spec,
    product_verify_store,
    project_programs,
    store_programs,
    timestamp_dominance_violation,
    verify_store,
)
from repro.proofs.exhaustive import standard_programs
from repro.scenarios import fig10_two_rgas


def tiny_programs(store, ops_per_replica=1):
    """One (or few) op(s) per object per replica — keeps the product
    oracle tractable."""
    programs = {"r1": [], "r2": []}
    for obj, entry in store.objects:
        per_object = standard_programs(entry)
        for replica in programs:
            for op in per_object.get(replica, [])[:ops_per_replica]:
                programs[replica].append((op[0], op[1], obj))
    return programs


class TestParseStoreSpec:
    def test_single_objects_bare_names(self):
        store = parse_store_spec("counter:1,orset:1")
        assert store.names == ["counter", "or_set"]
        assert store.entry("counter").name == "Counter"
        assert store.entry("or_set").name == "OR-Set"
        assert store.shared_timestamps

    def test_multiples_numbered(self):
        store = parse_store_spec("counter:2,rga:1")
        assert store.names == ["counter1", "counter2", "rga"]

    def test_count_defaults_to_one(self):
        assert parse_store_spec("counter").names == ["counter"]

    def test_lax_entry_matching(self):
        for spelling in ("orset", "or_set", "OR-Set"):
            assert parse_store_spec(spelling).entry("or_set").name == "OR-Set"

    def test_unknown_object_lists_available(self):
        with pytest.raises(ValueError, match="available:.*or_set"):
            parse_store_spec("counter:1,nope:2")

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            parse_store_spec("counter:0")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="no objects"):
            parse_store_spec(" , ")

    def test_spec_string_canonical(self):
        store = parse_store_spec("ORSET:1, counter:2")
        assert store.spec_string() == "or_set:1,counter:2"

    def test_independent_clocks(self):
        store = parse_store_spec("counter:2", shared_timestamps=False)
        assert not store.shared_timestamps
        assert "⊗" in store.describe() and "⊗ts" not in store.describe()


class TestStorePrograms:
    def test_programs_tag_objects(self):
        store = parse_store_spec("counter:1,orset:1")
        programs = store_programs(store)
        objs = {op[2] for ops in programs.values() for op in ops}
        assert objs == {"counter", "or_set"}

    def test_projection_round_trip(self):
        store = parse_store_spec("counter:1,orset:1")
        programs = store_programs(store)
        for obj, entry in store.objects:
            projected = project_programs(programs, obj)
            assert projected == {
                r: [(op[0], op[1]) for op in ops]
                for r, ops in standard_programs(entry).items()
                if ops
            }

    def test_make_store_system_shared_clock(self):
        store = parse_store_spec("counter:1,orset:1")
        system = make_store_system(store, replicas=("r1", "r2"))
        a = system.invoke("r1", "inc", (), obj="counter")
        b = system.invoke("r1", "add", ("a",), obj="or_set")
        assert a.ts < b.ts


class TestVerifyStore:
    def test_compositional_ok(self):
        store = parse_store_spec("counter:1,orset:1")
        result = verify_store(store)
        assert result.ok, result.failures
        assert result.mode == "compositional"
        assert set(result.objects) == {"counter", "or_set"}
        assert all(r.ok for r in result.objects.values())
        assert result.side_condition_ok
        assert result.side_condition_checks == SIDE_CONDITION_LIMIT
        assert result.combine_failures == 0
        assert result.configurations == sum(
            r.configurations for r in result.objects.values()
        )

    def test_identical_objects_share_one_verification(self):
        store = parse_store_spec("counter:2")
        result = verify_store(store)
        assert result.ok
        assert result.objects["counter1"] is result.objects["counter2"]

    def test_parallel_matches_serial(self):
        store = parse_store_spec("counter:1,orset:1")
        serial = verify_store(store)
        parallel = verify_store(store, jobs=2)
        assert parallel.ok == serial.ok
        assert {
            obj: r.configurations for obj, r in parallel.objects.items()
        } == {
            obj: r.configurations for obj, r in serial.objects.items()
        }
        assert parallel.side_condition_checks == serial.side_condition_checks

    def test_product_fallback_for_independent_clocks(self):
        store = parse_store_spec("counter:1", shared_timestamps=False)
        result = verify_store(store)
        assert result.mode == "product"
        assert result.ok
        assert result.product is not None
        assert result.configurations == result.product.configurations


class TestSideCondition:
    def test_ts_store_clean(self):
        store = parse_store_spec("counter:1,lww_register:1")
        ok, checks, failures, cex, messages = check_side_condition(
            store, tiny_programs(store)
        )
        # The product has 30 configurations: the sweep stops at the cap.
        assert ok and checks == SIDE_CONDITION_LIMIT and failures == 0
        assert cex is None and messages == []

    def test_fig10_independent_clock_dominance_violation(self):
        history = fig10_two_rgas(shared_timestamps=False).history
        assert timestamp_dominance_violation(history) is not None

    def test_fig10_shared_clock_dominates(self):
        history = fig10_two_rgas(shared_timestamps=True).history
        assert timestamp_dominance_violation(history) is None


class TestComposedTableEntry:
    def test_row_shape(self):
        row = composed_table_entry()
        assert row.name == "Composed ⊗ts store"
        assert row.lin_class == "⊗ts"
        assert row.ralin_ok and row.verified
        assert row.executions > 0 and row.operations > 0


class TestProductOracle:
    def test_product_small_store_ok(self):
        store = parse_store_spec("counter:1,orset:1")
        result = product_verify_store(store, tiny_programs(store))
        assert result.ok, result.failures
        assert result.configurations > 1
        assert result.stats is not None and result.stats.wall_time > 0
