"""Replica-symmetry reduction: differential oracle, pinning, orbit keys.

The load-bearing guarantee mirrors PR 1's POR story: with orbit dedup on,
the engine must still cover *every* orbit of the naive explorer's
configuration set — :func:`repro.runtime.op_orbit_key` /
:func:`state_orbit_key` make "same orbit" precise (the order-insensitive
configuration key, canonicalized to its least image under the replica-
permutation group).  Three assertions per entry:

* every configuration the symmetric engine visits is one the naive
  explorer reaches (no phantom states),
* the visited orbit-key set equals the naive one (every orbit of the
  partition is represented), and
* the symmetric engine never visits more configurations than the
  non-symmetric engine (the reduction only merges).

Entries whose semantics order concurrently-minted timestamps
(last-writer-wins, Wooki) set ``CRDTEntry.symmetry = False``: Lamport
timestamps tie-break on the replica string, so replica renaming is not an
automorphism of their executions — the suite pins that list and checks
the hatched entries against the naive oracle with the reduction off.
"""

import pickle

import pytest

from repro.core.sentinels import BEGIN, END, ROOT
from repro.proofs.registry import ALL_ENTRIES, entry_by_name
from repro.runtime import (
    ExploreStats,
    OpBasedSystem,
    StateBasedSystem,
    build_group,
    canon_key,
    explore_op_programs,
    explore_op_programs_naive,
    explore_state_programs,
    explore_state_programs_naive,
    op_config_key,
    op_orbit_key,
    replica_classes,
    state_config_key,
    state_orbit_key,
)
from repro.runtime.symmetry import CanonFP, SymmetryGroup, rename_transition

SYM_ENTRIES = [e for e in ALL_ENTRIES if e.symmetry]
HATCHED_ENTRIES = [e for e in ALL_ENTRIES if not e.symmetry]


def symmetric_programs(entry):
    """Identical per-replica programs (so no replica is pinned)."""
    name = entry.name
    if "Counter" in name:
        program = [("inc", ()), ("read", ())]
    elif "OR-Set" in name:
        program = [("add", ("a",)), ("remove", ("a",))]
    elif name in ("2P-Set (op)", "2P-Set", "G-Set", "LWW-Element Set"):
        program = [("add", ("a",)), ("read", ())]
    elif "Register" in name or "Reg." in name:
        program = [("write", ("a",)), ("read", ())]
    elif name == "RGA":
        program = [("addAfter", (ROOT, "a")), ("read", ())]
    elif name == "RGA-addAt":
        program = [("addAt", ("a", 0)), ("read", ())]
    elif name == "Wooki":
        program = [("addBetween", (BEGIN, "a", END)), ("read", ())]
    else:
        raise KeyError(name)
    return {"r1": list(program), "r2": list(program)}


def _make_system(entry, programs):
    if entry.kind == "OB":
        return lambda: OpBasedSystem(
            entry.make_crdt(), replicas=sorted(programs)
        )
    return lambda: StateBasedSystem(
        entry.make_crdt(), replicas=sorted(programs)
    )


def _run(entry, programs, **kwargs):
    """(visit count, config-key set, orbit-key set, stats) of one run."""
    configs, orbits = set(), set()
    count = 0
    if entry.kind == "OB":
        orbit_key, config_key = op_orbit_key, op_config_key
        explore = explore_op_programs
    else:
        orbit_key, config_key = state_orbit_key, state_config_key
        explore = explore_state_programs
        kwargs.setdefault("max_gossips", 2)

    def visit(system, returns):
        nonlocal count
        count += 1
        configs.add(config_key(system, returns))
        orbits.add(orbit_key(system, returns, programs))

    stats = kwargs.setdefault("stats", ExploreStats())
    explore(_make_system(entry, programs), programs, visit, **kwargs)
    return count, configs, orbits, stats


def _run_naive(entry, programs, **kwargs):
    configs, orbits = set(), set()
    if entry.kind == "OB":
        orbit_key, config_key = op_orbit_key, op_config_key
        explore = explore_op_programs_naive
    else:
        orbit_key, config_key = state_orbit_key, state_config_key
        explore = explore_state_programs_naive
        kwargs.setdefault("max_gossips", 2)

    def visit(system, returns):
        configs.add(config_key(system, returns))
        orbits.add(orbit_key(system, returns, programs))

    explore(_make_system(entry, programs), programs, visit, **kwargs)
    return configs, orbits


# ----------------------------------------------------------------------
# Differential oracle — symmetric entries cover every naive orbit
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry", SYM_ENTRIES, ids=[e.name for e in SYM_ENTRIES]
)
def test_symmetry_covers_naive_orbits(entry):
    programs = symmetric_programs(entry)
    naive_configs, naive_orbits = _run_naive(entry, programs)
    count, configs, orbits, stats = _run(entry, programs, symmetry=True)
    nosym_count, nosym_configs, _, _ = _run(entry, programs, symmetry=False)
    assert stats.symmetry_group == 2
    assert configs <= naive_configs          # no phantom configurations
    assert orbits == naive_orbits            # every orbit represented
    assert count <= nosym_count              # the reduction only merges
    assert nosym_configs == naive_configs    # baseline stays exact


@pytest.mark.parametrize(
    "entry", HATCHED_ENTRIES, ids=[e.name for e in HATCHED_ENTRIES]
)
def test_hatched_entries_stay_exact_without_symmetry(entry):
    """Timestamp-order-sensitive entries: hatch documented and honoured."""
    programs = symmetric_programs(entry)
    naive_configs, _ = _run_naive(entry, programs)
    _, configs, _, stats = _run(entry, programs, symmetry=entry.symmetry)
    assert entry.symmetry is False
    assert stats.symmetry_group == 1
    assert configs == naive_configs


def test_hatch_list_is_the_timestamp_order_sensitive_entries():
    assert sorted(e.name for e in HATCHED_ENTRIES) == [
        "LWW-Element Set",
        "LWW-Register",
        "LWW-Register (SB)",
        "Wooki",
    ]


# ----------------------------------------------------------------------
# Three-replica smoke (1-op programs; reference is the nosym engine,
# which the 2-replica suite pins against the naive oracle)
# ----------------------------------------------------------------------


def test_three_replica_op_smoke():
    entry = entry_by_name("Counter")
    programs = {r: [("inc", ())] for r in ("r1", "r2", "r3")}
    count, configs, orbits, stats = _run(entry, programs, symmetry=True)
    nosym_count, nosym_configs, nosym_orbits, _ = _run(
        entry, programs, symmetry=False
    )
    assert stats.symmetry_group == 6
    assert orbits == nosym_orbits
    assert configs <= nosym_configs
    assert count < nosym_count


def test_three_replica_state_smoke():
    entry = entry_by_name("G-Counter")
    programs = {r: [("inc", ())] for r in ("r1", "r2", "r3")}
    naive_configs, naive_orbits = _run_naive(entry, programs)
    count, configs, orbits, stats = _run(entry, programs, symmetry=True)
    assert stats.symmetry_group == 6
    assert configs <= naive_configs
    assert orbits == naive_orbits


# ----------------------------------------------------------------------
# Pinning rule and guards
# ----------------------------------------------------------------------


def test_asymmetric_programs_pin_all_replicas():
    entry = entry_by_name("Counter")
    programs = {"r1": [("inc", ()), ("inc", ())], "r2": [("read", ())]}
    count, configs, _, stats = _run(entry, programs, symmetry=True)
    nosym_count, nosym_configs, _, _ = _run(entry, programs, symmetry=False)
    assert stats.symmetry_group == 1
    assert stats.pinned_replicas == 2
    assert count == nosym_count
    assert configs == nosym_configs


def test_partial_symmetry_pins_only_the_odd_replica():
    programs = {
        "r1": [("inc", ())], "r2": [("inc", ())], "r3": [("read", ())]
    }
    group = build_group(programs)
    assert group.order == 2
    assert group.pinned == ("r3",)
    assert replica_classes(programs) == (("r1", "r2"), ("r3",))


def test_replica_name_in_payload_disables_reduction():
    entry = entry_by_name("OR-Set")
    programs = {"r1": [("add", ("r1",))], "r2": [("add", ("r1",))]}
    _, _, _, stats = _run(entry, programs, symmetry=True)
    assert stats.symmetry_group == 1


def test_group_size_cap_falls_back_to_identity():
    programs = {f"r{i}": [("inc", ())] for i in range(1, 8)}  # 7! > 720
    group = build_group(programs)
    assert group.order == 1
    assert not group.enabled


# ----------------------------------------------------------------------
# canon_key / CanonFP machinery
# ----------------------------------------------------------------------


def test_canon_key_renames_inside_unordered_containers():
    mapping = {"r1": "r2", "r2": "r1"}
    value = frozenset({("r1", 2), ("r2", 1)})
    renamed = canon_key(value, mapping)
    assert renamed == canon_key(frozenset({("r2", 2), ("r1", 1)}), {})


def test_canon_key_preserves_tuple_order():
    mapping = {"r1": "r2", "r2": "r1"}
    assert canon_key(("r1", "r2"), mapping) == canon_key(("r2", "r1"), {})
    assert canon_key(("r1", "r2"), {}) != canon_key(("r2", "r1"), {})


def test_canon_fp_pickle_round_trip():
    fp = CanonFP((("s", "r1"), ("i", 3)))
    clone = pickle.loads(pickle.dumps(fp))
    assert clone == fp
    assert hash(clone) == hash(fp)
    assert clone in {fp}


def test_rename_transition_covers_all_kinds():
    mapping = {"r1": "r2", "r2": "r1"}
    assert rename_transition(("inv", "r1", 0), mapping) == ("inv", "r2", 0)
    assert rename_transition(
        ("del", "r1", ("r2", 1)), mapping
    ) == ("del", "r2", ("r1", 1))
    assert rename_transition(("gos", "r1", "r2"), mapping) == (
        "gos", "r2", "r1"
    )


def test_trivial_group_is_identity_only():
    group = SymmetryGroup([{}], (("r1",),), ("r1",))
    assert not group.enabled
    assert group.order == 1


# ----------------------------------------------------------------------
# The per-state fingerprint cache under symmetry
# ----------------------------------------------------------------------


def test_state_fp_cache_peak_is_tracked_and_bounded():
    entry = entry_by_name("G-Counter")
    programs = symmetric_programs(entry)
    _, _, _, stats = _run(entry, programs, symmetry=True)
    assert 0 < stats.state_fp_cache_peak <= (1 << 13)
