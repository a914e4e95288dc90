"""Exhaustive small-scope verification."""

import pytest

from repro.proofs.exhaustive import (
    ExhaustiveResult,
    exhaustive_verify,
    standard_programs,
)
from repro.proofs.mutants import LastDeliveryWinsRegister
from repro.proofs.registry import ALL_ENTRIES, entry_by_name

OB_ENTRIES = [e for e in ALL_ENTRIES if e.kind == "OB"]


@pytest.mark.parametrize("entry", OB_ENTRIES, ids=[e.name for e in OB_ENTRIES])
def test_standard_programs_fully_verified(entry):
    result = exhaustive_verify(entry, standard_programs(entry))
    assert result.ok, result.failures
    # The engine reports *distinct* final configurations (the naive
    # explorer counted raw interleavings; see docs/exploration.md).
    assert result.configurations >= 10
    assert result.stats is not None
    assert result.stats.branches_pruned > 0  # reduction actually fired


def test_state_based_entries_rejected():
    with pytest.raises(ValueError):
        exhaustive_verify(entry_by_name("PN-Counter"), {"r1": []})


def test_mutant_caught_exhaustively():
    from dataclasses import replace

    base = entry_by_name("LWW-Register")
    mutant = replace(base, make_crdt=LastDeliveryWinsRegister)
    result = exhaustive_verify(mutant, standard_programs(base))
    assert not result.ok
    assert result.failures


def test_failure_reporting_capped():
    result = ExhaustiveResult("x")
    for i in range(50):
        result.record(f"failure {i}")
    assert not result.ok
    assert len(result.failures) == 10


def test_unknown_engine_rejected():
    entry = entry_by_name("Counter")
    with pytest.raises(ValueError, match="unknown engine"):
        exhaustive_verify(entry, standard_programs(entry), engine="fastt")


class TestSymmetryThreading:
    """The ``symmetry`` override and the ``CRDTEntry.symmetry`` default."""

    SYM_PROGRAMS = {
        "r1": [("inc", ()), ("read", ())],
        "r2": [("inc", ()), ("read", ())],
    }

    def test_verdict_matches_naive_engine(self):
        entry = entry_by_name("Counter")
        naive = exhaustive_verify(entry, self.SYM_PROGRAMS, engine="naive")
        fast = exhaustive_verify(entry, self.SYM_PROGRAMS)
        assert fast.ok == naive.ok
        assert fast.stats.symmetry_group == 2

    def test_override_beats_entry_default(self):
        entry = entry_by_name("Counter")
        on = exhaustive_verify(entry, self.SYM_PROGRAMS)
        off = exhaustive_verify(entry, self.SYM_PROGRAMS, symmetry=False)
        assert off.stats.symmetry_group == 1
        assert on.configurations < off.configurations
        assert on.ok == off.ok

    def test_hatched_entry_defaults_to_no_symmetry(self):
        entry = entry_by_name("LWW-Register")
        programs = {
            "r1": [("write", ("a",)), ("read", ())],
            "r2": [("write", ("a",)), ("read", ())],
        }
        result = exhaustive_verify(entry, programs)
        assert result.stats.symmetry_group == 1
        forced = exhaustive_verify(entry, programs, symmetry=True)
        assert forced.stats.symmetry_group == 2
