"""Incremental checking through the exhaustive pipeline.

Every exhaustive run checks its configurations through one shared
:class:`~repro.core.ralin.RACheckContext` — a frontier trie and a
verdict memo.  Both are pure accelerators: on every configuration the
shared context must return the verdict of a fresh, uncached
``execution_order_check`` / ``timestamp_order_check`` with a new spec
and γ — including *failing* verdicts for buggy CRDTs, the case where a
cache that conflates configurations would be unsound.
"""

import dataclasses

from repro.core.ralin import (
    RACheckContext,
    execution_order_check,
    timestamp_order_check,
)
from repro.proofs.exhaustive import (
    exhaustive_verify,
    exhaustive_verify_state,
    standard_programs,
)
from repro.proofs.mutants import EagerRemoveORSet, LastDeliveryWinsRegister
from repro.proofs.registry import entry_by_name


def _mutant_entry(base_name, make_crdt, name):
    base = entry_by_name(base_name)
    return base, dataclasses.replace(
        base, name=name, make_crdt=make_crdt, in_figure_12=False
    )


def _verify_against_fresh_checks(monkeypatch, entry, programs):
    """``exhaustive_verify`` with every shared-context check compared to
    a fresh uncached check of the same configuration.

    Returns the result and the shared verdicts, one per check.
    """
    fresh_check = (
        execution_order_check if entry.lin_class == "EO"
        else timestamp_order_check
    )
    shared_check = RACheckContext.check
    verdicts = []

    def check(context, history, generation_order):
        shared = shared_check(context, history, generation_order)
        fresh = fresh_check(
            history, entry.make_spec(), generation_order, entry.make_gamma()
        )
        assert (shared.ok, shared.condition) == (fresh.ok, fresh.condition)
        verdicts.append(shared.ok)
        return shared

    monkeypatch.setattr(RACheckContext, "check", check)
    result = exhaustive_verify(entry, programs)
    # One check per distinct configuration: none went unchecked.
    assert len(verdicts) == result.configurations
    return result, verdicts


def test_frontier_cache_exercised_on_op_based_scope(monkeypatch):
    # Op-based configurations are already deduped by the engine, so the
    # verdict memo rarely fires there — but interleavings share long
    # generation-order prefixes, which the frontier trie must absorb.
    entry = entry_by_name("Counter")
    result, verdicts = _verify_against_fresh_checks(
        monkeypatch, entry, standard_programs(entry)
    )
    assert result.ok and all(verdicts)
    stats = result.check_stats
    assert stats is not None
    assert stats.frontier_hits > 0
    assert stats.frontier_hits > stats.frontier_misses


def test_verdict_memo_exercised_on_state_based_scope():
    # Different gossip interleavings reach distinct engine states that
    # collapse to the same canonical history — exactly what the verdict
    # memo deduplicates.
    entry = entry_by_name("G-Counter")
    result = exhaustive_verify_state(
        entry, standard_programs(entry), max_gossips=2
    )
    assert result.ok
    stats = result.check_stats
    assert stats is not None
    assert stats.verdict_hits > 0
    assert stats.checks > stats.verdict_hits


def test_mutant_failing_verdict_identical_with_and_without_cache(
    monkeypatch,
):
    # The negative case: a buggy CRDT (eager-remove OR-Set, which drops
    # concurrent re-adds) must fail on exactly the configurations a
    # fresh EO check fails.
    base, mutant = _mutant_entry("OR-Set", EagerRemoveORSet, "eager-remove")
    result, verdicts = _verify_against_fresh_checks(
        monkeypatch, mutant, standard_programs(base)
    )
    assert not result.ok
    assert not all(verdicts)


def test_second_mutant_shape_also_preserved(monkeypatch):
    # A different failure shape (timestamp discipline ignored, TO class).
    base, mutant = _mutant_entry(
        "LWW-Register", LastDeliveryWinsRegister, "last-delivery-wins"
    )
    assert mutant.lin_class == "TO"
    result, verdicts = _verify_against_fresh_checks(
        monkeypatch, mutant, standard_programs(base)
    )
    assert not result.ok
    assert not all(verdicts)
