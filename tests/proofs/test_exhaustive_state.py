"""Bounded exhaustive verification of state-based entries."""

import pytest

from repro.proofs.exhaustive import (
    exhaustive_verify_state,
    standard_programs,
)
from repro.proofs.mutants import SummingPNCounter
from repro.proofs.registry import ALL_ENTRIES, entry_by_name

SB_ENTRIES = [e for e in ALL_ENTRIES if e.kind == "SB"]


@pytest.mark.parametrize("entry", SB_ENTRIES, ids=[e.name for e in SB_ENTRIES])
def test_state_based_small_scope(entry):
    result = exhaustive_verify_state(
        entry, standard_programs(entry), max_gossips=2
    )
    assert result.ok, result.failures
    # Distinct final configurations, not raw interleavings (the engine
    # dedups and prunes commuting schedules; see docs/exploration.md).
    # G-Counter's standard programs are replica-symmetric, so its count
    # is *orbits* under replica permutation (32 vs 59 raw).
    assert result.configurations >= 30
    assert result.stats is not None and result.stats.states_deduped > 0


def test_op_based_entries_rejected():
    with pytest.raises(ValueError):
        exhaustive_verify_state(entry_by_name("Counter"), {"r1": []})


def test_gossip_budget_grows_coverage():
    entry = entry_by_name("PN-Counter")
    programs = standard_programs(entry)
    none = exhaustive_verify_state(entry, programs, max_gossips=0)
    some = exhaustive_verify_state(entry, programs, max_gossips=2)
    assert some.configurations > none.configurations


def test_state_mutant_caught_exhaustively():
    from dataclasses import replace

    base = entry_by_name("PN-Counter")
    mutant = replace(base, make_crdt=SummingPNCounter)
    result = exhaustive_verify_state(
        mutant, standard_programs(base), max_gossips=2
    )
    assert not result.ok


def test_unknown_engine_rejected():
    entry = entry_by_name("G-Set")
    with pytest.raises(ValueError, match="unknown engine"):
        exhaustive_verify_state(
            entry, standard_programs(entry), engine="naiive"
        )
