"""The fast exploration engine: differential oracle, dedup, snapshots.

The load-bearing guarantee is the differential one: on every registry
entry's standard programs, the optimized engine (sleep sets + state dedup
+ copy-on-write snapshots) reaches exactly the same *set* of final
configurations as the kept naive explorer — the canonical keys of
:func:`repro.runtime.op_config_key` / :func:`state_config_key` make
"same configuration" precise (labels by logical id, visibility, seen
sets, replica-state fingerprints, program returns).
"""

import copy
import dataclasses
import operator

import pytest

from repro.crdts import OpCounter, OpORSet
from repro.crdts.statebased import SBPNCounter
from repro.proofs.exhaustive import standard_programs
from repro.proofs.registry import ALL_ENTRIES
from repro.runtime import (
    ExploreStats,
    OpBasedSystem,
    StateBasedSystem,
    explore_op_programs,
    explore_op_programs_naive,
    explore_state_programs,
    explore_state_programs_naive,
    op_config_key,
    state_config_key,
)

OB_ENTRIES = [e for e in ALL_ENTRIES if e.kind == "OB"]
SB_ENTRIES = [e for e in ALL_ENTRIES if e.kind == "SB"]


def _op_keys_naive(entry, programs, **kwargs):
    keys = set()
    explore_op_programs_naive(
        lambda: OpBasedSystem(entry.make_crdt(), replicas=sorted(programs)),
        programs,
        lambda s, r: keys.add(op_config_key(s, r)),
        **kwargs,
    )
    return keys


def _op_keys_engine(entry, programs, **kwargs):
    keys = set()
    explore_op_programs(
        lambda: OpBasedSystem(entry.make_crdt(), replicas=sorted(programs)),
        programs,
        lambda s, r: keys.add(op_config_key(s, r)),
        **kwargs,
    )
    return keys


def _state_keys_naive(entry, programs, **kwargs):
    keys = set()
    explore_state_programs_naive(
        lambda: StateBasedSystem(entry.make_crdt(), replicas=sorted(programs)),
        programs,
        lambda s, r: keys.add(state_config_key(s, r)),
        **kwargs,
    )
    return keys


def _state_keys_engine(entry, programs, **kwargs):
    keys = set()
    explore_state_programs(
        lambda: StateBasedSystem(entry.make_crdt(), replicas=sorted(programs)),
        programs,
        lambda s, r: keys.add(state_config_key(s, r)),
        **kwargs,
    )
    return keys


# ----------------------------------------------------------------------
# Differential oracle: engine == naive on every registry entry
# ----------------------------------------------------------------------


@pytest.mark.parametrize("entry", OB_ENTRIES, ids=[e.name for e in OB_ENTRIES])
def test_op_engine_matches_naive(entry):
    programs = standard_programs(entry)
    naive = _op_keys_naive(entry, programs)
    fast = _op_keys_engine(entry, programs)
    assert fast == naive


@pytest.mark.parametrize("entry", SB_ENTRIES, ids=[e.name for e in SB_ENTRIES])
def test_state_engine_matches_naive(entry):
    programs = standard_programs(entry)
    naive = _state_keys_naive(entry, programs, max_gossips=2)
    fast = _state_keys_engine(entry, programs, max_gossips=2)
    assert fast == naive


# ----------------------------------------------------------------------
# Exact max_configurations cutoff: the search stops at the cap, with no
# sibling branch visiting past it
# ----------------------------------------------------------------------


@pytest.mark.parametrize("cap", [1, 3, 10])
def test_engine_cap_exact(cap):
    visited = []
    count = explore_op_programs(
        lambda: OpBasedSystem(OpCounter(), replicas=["r1", "r2"]),
        {"r1": [("inc", ()), ("read", ())], "r2": [("inc", ()), ("read", ())]},
        lambda s, r: visited.append(1),
        max_configurations=cap,
    )
    assert count == cap
    assert len(visited) == cap


def test_naive_cap_exact():
    visited = []
    count = explore_op_programs_naive(
        lambda: OpBasedSystem(OpCounter(), replicas=["r1", "r2"]),
        {"r1": [("inc", ()), ("read", ())], "r2": [("inc", ()), ("read", ())]},
        lambda s, r: visited.append(1),
        max_configurations=5,
    )
    assert count == 5
    assert len(visited) == 5


def test_state_caps_exact():
    for explorer in (explore_state_programs, explore_state_programs_naive):
        visited = []
        count = explorer(
            lambda: StateBasedSystem(SBPNCounter(), replicas=["r1", "r2"]),
            {"r1": [("inc", ()), ("read", ())], "r2": [("inc", ())]},
            lambda s, r: visited.append(1),
            max_gossips=2,
            max_configurations=4,
        )
        assert count == 4
        assert len(visited) == 4


# ----------------------------------------------------------------------
# Fingerprint stability
# ----------------------------------------------------------------------


def _run_ops(crdt_factory, script):
    system = OpBasedSystem(crdt_factory(), replicas=["r1", "r2"])
    for step in script:
        if step[0] == "inv":
            system.invoke(step[1], step[2], step[3])
        else:
            system.deliver_all()
    return system


def test_fingerprint_deterministic_across_runs():
    """Equal op sequences on fresh systems yield equal fingerprints.

    OR-Set tags embed Lamport timestamps (not uids), so freeze-based
    fingerprints must not depend on the run or on object identity.
    """
    script = [
        ("inv", "r1", "add", ("a",)),
        ("inv", "r2", "add", ("a",)),
        ("deliver",),
        ("inv", "r1", "remove", ("a",)),
        ("deliver",),
    ]
    a = _run_ops(OpORSet, script)
    b = _run_ops(OpORSet, script)
    crdt = OpORSet()
    for replica in ("r1", "r2"):
        assert crdt.fingerprint(a.state(replica)) == crdt.fingerprint(
            b.state(replica)
        )


def test_fingerprint_path_independent():
    """Commuting delivery orders reach states with equal fingerprints."""
    crdt = OpCounter()

    def run(deliver_first):
        system = OpBasedSystem(OpCounter(), replicas=["r1", "r2"])
        first = system.invoke("r1", "inc", ())
        second = system.invoke("r2", "inc", ())
        order = [first, second] if deliver_first else [second, first]
        for label in order:
            for replica in system.replicas:
                if label in system.deliverable(replica):
                    system.deliver(replica, label)
        return system

    a, b = run(True), run(False)
    for replica in ("r1", "r2"):
        assert crdt.fingerprint(a.state(replica)) == crdt.fingerprint(
            b.state(replica)
        )


def test_fingerprint_distinguishes_states():
    crdt = OpCounter()
    system = OpBasedSystem(OpCounter(), replicas=["r1", "r2"])
    before = crdt.fingerprint(system.state("r1"))
    system.invoke("r1", "inc", ())
    assert crdt.fingerprint(system.state("r1")) != before


# ----------------------------------------------------------------------
# Snapshot / restore round trips
# ----------------------------------------------------------------------


def test_op_snapshot_roundtrip():
    system = OpBasedSystem(OpORSet(), replicas=["r1", "r2"])
    system.invoke("r1", "add", ("a",))
    token = system.snapshot()
    frozen = copy.deepcopy(
        (system._states, system._seen, system._vis, system.generation_order)
    )

    system.invoke("r2", "add", ("b",))
    system.deliver_all()
    system.invoke("r1", "remove", ("a",))
    system.restore(token)

    assert system._states == frozen[0]
    assert system._seen == frozen[1]
    assert system._vis == frozen[2]
    assert system.generation_order == frozen[3]

    # The token is reusable: mutate, restore again, same result.
    system.invoke("r1", "add", ("c",))
    system.restore(token)
    assert system._states == frozen[0]
    assert len(system.generation_order) == 1


def test_op_snapshot_restores_generator_clocks():
    system = OpBasedSystem(OpORSet(), replicas=["r1", "r2"])
    system.invoke("r1", "add", ("a",))
    token = system.snapshot()
    divergent = system.invoke("r1", "add", ("b",))
    system.restore(token)
    replayed = system.invoke("r1", "add", ("b",))
    # Same logical position => same timestamp after restore.
    assert replayed.ts == divergent.ts


def test_state_snapshot_roundtrip():
    system = StateBasedSystem(SBPNCounter(), replicas=["r1", "r2"])
    system.invoke("r1", "inc", ())
    token = system.snapshot()
    frozen = copy.deepcopy(
        (system._states, system._seen, system._vis, system.generation_order)
    )

    system.invoke("r2", "inc", ())
    system.gossip("r1", "r2")
    system.restore(token)
    assert system._states == frozen[0]
    assert system._seen == frozen[1]
    assert system._vis == frozen[2]
    assert system.generation_order == frozen[3]

    system.invoke("r2", "dec", ())
    system.restore(token)
    assert system._states == frozen[0]


def test_snapshot_safe_flags():
    assert OpBasedSystem(OpORSet(), replicas=["r1"]).snapshot_safe
    assert StateBasedSystem(SBPNCounter(), replicas=["r1"]).snapshot_safe


# ----------------------------------------------------------------------
# Deepcopy fallback for CRDTs that opt out of snapshots
# ----------------------------------------------------------------------


class _UnsafeCounter(OpCounter):
    snapshot_safe = False


def test_deepcopy_fallback_matches_snapshot_path():
    programs = {
        "r1": [("inc", ()), ("read", ())],
        "r2": [("inc", ()), ("read", ())],
    }

    def keys_for(crdt_factory):
        keys = set()
        stats = ExploreStats()
        explore_op_programs(
            lambda: OpBasedSystem(crdt_factory(), replicas=["r1", "r2"]),
            programs,
            lambda s, r: keys.add(op_config_key(s, r)),
            stats=stats,
        )
        return keys, stats

    fast_keys, fast_stats = keys_for(OpCounter)
    slow_keys, slow_stats = keys_for(_UnsafeCounter)
    assert fast_keys == slow_keys
    assert fast_stats.snapshots > 0 and fast_stats.deepcopies == 0
    assert slow_stats.deepcopies > 0 and slow_stats.snapshots == 0


# ----------------------------------------------------------------------
# Stats record
# ----------------------------------------------------------------------


def test_stats_populated():
    stats = ExploreStats()
    explore_op_programs(
        lambda: OpBasedSystem(OpORSet(), replicas=["r1", "r2"]),
        {"r1": [("add", ("a",)), ("read", ())], "r2": [("add", ("b",))]},
        lambda s, r: None,
        stats=stats,
    )
    assert stats.configurations > 0
    assert stats.states_visited >= stats.configurations
    assert stats.branches_pruned > 0
    assert stats.wall_time > 0
    assert stats.peak_frontier >= 1
    assert 0.0 <= stats.dedup_ratio <= 1.0


def test_stats_merge_rules():
    """Peaks, wall clock and the group merge by ``max``, ``capped`` by
    ``or``, and every other field sums — in either order, with a
    distinct value in every field, so a field merged by another rule,
    or not at all, shows up."""
    peaks = {"peak_frontier", "wall_time", "symmetry_group",
             "pinned_replicas", "state_fp_cache_peak"}
    names = [f.name for f in dataclasses.fields(ExploreStats)
             if f.name != "capped"]
    small = {name: i + 1 for i, name in enumerate(names)}
    large = {name: 100 * (i + 1) for i, name in enumerate(names)}
    for first, second in ((small, large), (large, small)):
        merged = ExploreStats(**first, capped=first is large)
        merged.merge(ExploreStats(**second, capped=second is large))
        for name in names:
            rule = max if name in peaks else operator.add
            assert getattr(merged, name) == rule(first[name],
                                                 second[name]), name
        assert merged.capped
    uncapped = ExploreStats()
    uncapped.merge(ExploreStats())
    assert not uncapped.capped
