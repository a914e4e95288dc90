"""3- and 4-replica exhaustive scopes — feasible only with the fast
engine.

These scopes were out of reach for the naive raw-interleaving explorer
(the 6-operation OR-Set program alone has billions of interleavings once
deliveries are counted); the sleep-set engine completes them in tens of
seconds, turning "every 2-replica interleaving" into "every 3-replica
interleaving" as the small-scope proof statement.  Marked ``slow`` and
excluded from the default run (see ``addopts`` in pyproject.toml); run
with ``pytest -m slow``.
"""

import pytest

from repro.core.sentinels import ROOT
from repro.proofs.exhaustive import exhaustive_verify
from repro.proofs.registry import entry_by_name

pytestmark = pytest.mark.slow


def test_orset_three_replicas_conflict_heavy():
    entry = entry_by_name("OR-Set")
    programs = {
        "r1": [("add", ("a",)), ("remove", ("a",)), ("read", ())],
        "r2": [("add", ("a",)), ("read", ())],
        "r3": [("add", ("a",))],
    }
    # Sleep sets: the last assertion is about their pruning.
    result = exhaustive_verify(entry, programs, por="sleep")
    assert result.ok, result.failures
    assert result.configurations > 1000
    # Completed exhaustively: the cap never fired.
    assert not result.stats.capped
    assert result.stats.branches_pruned > result.stats.states_visited


def test_rga_three_replicas_conflict_heavy():
    entry = entry_by_name("RGA")
    programs = {
        "r1": [("addAfter", (ROOT, "a")), ("read", ())],
        "r2": [("addAfter", (ROOT, "b")), ("read", ())],
        "r3": [("addAfter", (ROOT, "c")), ("read", ())],
    }
    result = exhaustive_verify(entry, programs)
    assert result.ok, result.failures
    assert result.configurations > 1000
    assert not result.stats.capped


def test_orset_skewed_four_replicas_serial_and_pool():
    # The skewed 4-replica shape of the benchmark's skew_4r_spill
    # workload; 645 is the sleep-set oracle's count.  The full
    # expansions that residual replay triggers are load-bearing here:
    # an engine that skips them finds 626.
    entry = entry_by_name("OR-Set")
    programs = {
        "r1": [("add", ("a",)), ("remove", ("a",))],
        "r2": [("add", ("a",))],
        "r3": [("add", ("a",))],
        "r4": [("add", ("b",))],
    }
    serial = exhaustive_verify(entry, programs)
    pooled = exhaustive_verify(entry, programs, jobs=2, oversubscribe=True)
    assert (serial.ok, serial.configurations) == (True, 645)
    assert (pooled.ok, pooled.configurations) == (True, 645)
