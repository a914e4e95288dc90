"""3- and 4-replica exhaustive scopes — feasible only with the fast
engine.

These scopes were out of reach for the naive raw-interleaving explorer
(the 6-operation OR-Set program alone has billions of interleavings once
deliveries are counted); the sleep-set engine completes them in tens of
seconds, turning "every 2-replica interleaving" into "every 3-replica
interleaving" as the small-scope proof statement.  The deep
two-replica suite at the end pins four-operation programs on eight
entries, serially and through the pool.  Marked ``slow`` and
excluded from the default run (see ``addopts`` in pyproject.toml); run
with ``pytest -m slow``.
"""

import pytest

from repro.core.sentinels import ROOT
from repro.proofs.exhaustive import exhaustive_verify, exhaustive_verify_state
from repro.proofs.registry import entry_by_name
from repro.proofs.steal import verify_scopes_steal

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


def test_orset_skewed_four_replicas_serial_and_pool(real_workers):
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
    pooled = exhaustive_verify(entry, programs, jobs=2)
    assert (serial.ok, serial.configurations) == (True, 645)
    assert (pooled.ok, pooled.configurations) == (True, 645)


#: Eight registry entries over two replicas running four-operation
#: programs, ``(entry name, programs, max_gossips)`` with ``None`` for
#: op-based entries — about 16k distinct configurations in all.
DEEP_SCOPES = [
    ("LWW-Element Set",
     {"r1": [("add", ("a",)), ("read", ()), ("remove", ("a",)), ("read", ())],
      "r2": [("add", ("b",)), ("read", ()), ("add", ("a",)), ("read", ())]},
     3),
    ("OR-Set",
     {"r1": [("add", ("a",)), ("read", ()), ("remove", ("a",)), ("read", ())],
      "r2": [("add", ("a",)), ("read", ()), ("add", ("b",)), ("read", ())]},
     None),
    ("PN-Counter",
     {"r1": [("inc", ()), ("read", ()), ("dec", ()), ("read", ())],
      "r2": [("inc", ()), ("read", ()), ("inc", ()), ("read", ())]},
     3),
    ("Counter",
     {"r1": [("inc", ()), ("read", ()), ("dec", ()), ("read", ())],
      "r2": [("inc", ()), ("read", ()), ("inc", ()), ("read", ())]},
     None),
    ("G-Counter",
     {"r1": [("inc", ()), ("read", ()), ("inc", ()), ("read", ())],
      "r2": [("inc", ()), ("read", ()), ("inc", ()), ("read", ())]},
     3),
    ("G-Set",
     {"r1": [("add", ("a",)), ("read", ()), ("add", ("b",)), ("read", ())],
      "r2": [("add", ("c",)), ("read", ()), ("add", ("a",)), ("read", ())]},
     3),
    ("LWW-Register",
     {"r1": [("write", ("x",)), ("read", ()), ("write", ("y",)), ("read", ())],
      "r2": [("write", ("z",)), ("read", ()), ("write", ("w",)), ("read", ())]},
     None),
    ("Multi-Value Reg.",
     {"r1": [("write", ("x",)), ("read", ()), ("write", ("y",)), ("read", ())],
      "r2": [("write", ("z",)), ("read", ()), ("write", ("w",)), ("read", ())]},
     3),
]

#: Distinct-configuration counts of :data:`DEEP_SCOPES` (orbits on the
#: symmetric G-Counter scope).
DEEP_COUNTS = [2332, 1764, 2332, 1764, 1172, 2332, 1764, 2332]


@pytest.mark.parametrize("pool", [None, dict(), dict(steal=False)],
                         ids=["serial", "jobs2", "jobs2-no-steal"])
def test_deep_two_replica_scopes_serial_and_pool(real_workers, pool):
    # Serially, through the pool's deep frontier, and through its
    # depth-1 root split: the same verdicts and the same counts.
    scopes = [(entry_by_name(name), programs, gossips)
              for name, programs, gossips in DEEP_SCOPES]
    if pool is None:
        results = [
            exhaustive_verify(entry, programs) if gossips is None
            else exhaustive_verify_state(entry, programs, max_gossips=gossips)
            for entry, programs, gossips in scopes
        ]
    else:
        results = verify_scopes_steal(scopes, jobs=2, **pool)
    assert [result.ok for result in results] == [True] * len(DEEP_SCOPES)
    assert [result.configurations for result in results] == DEEP_COUNTS
