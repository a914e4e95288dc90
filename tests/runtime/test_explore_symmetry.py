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

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.freeze import FrozenDict
from repro.core.sentinels import BEGIN, END, ROOT
from repro.core.timestamp import BOTTOM, Timestamp, VersionVector
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
from repro.runtime.symmetry import (
    SymmetryGroup,
    SymmetryReducer,
    _images,
    rename_transition,
)
from tests.strategies import DETERMINISM_SETTINGS, QUICK_SETTINGS

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
# canon_key and the byte images that stand for it
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


def _two_replica_key(counter):
    """A symmetric orbit key as the engine builds one."""
    programs = {"r1": [("inc", ())], "r2": [("inc", ())]}
    reducer = SymmetryReducer(["r1", "r2"], build_group(programs))
    parts = {
        "r1": reducer.part_fragments((counter, frozenset({("r2", 0)}))),
        "r2": reducer.part_fragments((0, frozenset())),
    }
    return reducer, reducer.canonical(parts, (frozenset({("r2", 0)}),))


def test_canon_fp_pickle_round_trip():
    reducer, key = _two_replica_key(3)
    assert reducer.last_map == {"r1": "r2", "r2": "r1"}
    assert type(key) is tuple
    assert all(type(image) is bytes for image in key)
    clone = pickle.loads(pickle.dumps(key))
    assert clone == key
    assert hash(clone) == hash(key)
    assert clone in {key}
    assert clone != _two_replica_key(4)[1]


class _Unmemoized(dict):
    """A memo that stores nothing, so every image is built from its own
    value: a shared memo answers for ``==`` values, ``(True,)`` for
    ``(1,)``, as the raw fingerprint sets do."""

    def __setitem__(self, key, value):
        pass


@dataclasses.dataclass(frozen=True)
class _Cell:
    """A frozen record type: canon_key keeps its field order."""

    label: object
    weight: object


class _Opaque:
    """A leaf that canon_key renders by its repr."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"_Opaque({self.tag!r})"

    def __eq__(self, other):
        return type(other) is _Opaque and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)


_REPLICAS = ("r1", "r2", "r3")
_NAMES = st.sampled_from(_REPLICAS + ("x",))
#: One strategy per leaf kind, each with its edge values: NUL and shared
#: prefixes, sign and byte-length boundaries, -0.0.
_KINDS = [
    _NAMES | st.text(max_size=3) | st.sampled_from([
        "", "\x00", "a", "a\x00", "a\x00\x00", "a\x01", "é", "日本", "⊥",
        "\ud800", "\U0001f600",
    ]),
    st.integers() | st.integers(max_value=-1) | st.sampled_from([
        -2, -1, 0, 255, 256, -255, -256, 2 ** 64, 2 ** 64 + 1, -(2 ** 64),
        -(2 ** 64) - 1, 2 ** 1100, 2 ** 1200, -(2 ** 1100), -(2 ** 1200),
    ]),
    st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0]),
    st.binary(max_size=3) | st.sampled_from([b"", b"\x00", b"a", b"a\x00"]),
    st.booleans(),
    st.none(),
    st.just(BOTTOM),
    st.builds(Timestamp, st.integers(0, 3), _NAMES),
    st.builds(VersionVector.of,
              st.dictionaries(_NAMES, st.integers(1, 3), max_size=3)),
    st.builds(_Opaque, st.integers(0, 2)),
]


def _containers(children):
    # Sets and dicts are built from plain lists: a unique-element draw
    # that runs out of fresh elements reprs its (recursive) strategy.
    return st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=3).map(frozenset),
        st.lists(st.tuples(children, children), max_size=3).map(
            lambda items: FrozenDict(dict(items))
        ),
        st.builds(_Cell, children, children),
    )


_VALUES = st.recursive(st.one_of(_KINDS), _containers, max_leaves=8)


def _neighbours(leaf):
    """Leaves whose images share a long prefix with ``leaf``'s."""
    if type(leaf) is str:
        return st.sampled_from([leaf + "\x00", leaf + "\x01", leaf[:-1]])
    if type(leaf) is bytes:
        return st.sampled_from([leaf + b"\x00", leaf + b"\x01", leaf[:-1]])
    if type(leaf) is int:
        return st.sampled_from([leaf - 1, leaf + 1, -leaf, 2 * leaf])
    return st.just(leaf)


def _leaf_pair(kind):
    return kind.flatmap(
        lambda leaf: st.tuples(st.just(leaf), kind | _neighbours(leaf))
    )


def _forked(draw):
    prefix, (left, right), tail_a, tail_b = draw
    return tuple(prefix) + (left, tail_a), tuple(prefix) + (right, tail_b)


#: Two independent values, or two tuples equal up to a pair of leaves of
#: one kind (often neighbours), whose images then decide the order.
_PAIRS = st.one_of(
    st.tuples(_VALUES, _VALUES),
    st.tuples(
        st.lists(_VALUES, max_size=2),
        st.sampled_from(_KINDS).flatmap(_leaf_pair),
        _VALUES,
        _VALUES,
    ).map(_forked),
)


def _sign(a, b):
    return (a > b) - (a < b)


def _images_agree_with_canon_key(a, b, image):
    """Under the identity and a drawn renaming, every pair of byte images
    orders as the canon_key tuples they stand for."""
    mapping = {x: y for x, y in zip(_REPLICAS, image) if x != y}
    maps = [{}, mapping]
    images = []
    for value in (a, b):
        found, pure = _images(value, maps, set(mapping), _Unmemoized())
        images.append([found] * len(maps) if pure else list(found))
    for i, left in enumerate(maps):
        for j, right in enumerate(maps):
            assert _sign(images[0][i], images[1][j]) == _sign(
                canon_key(a, left), canon_key(b, right)
            ), (a, b, left, right)


@QUICK_SETTINGS
@given(pair=_PAIRS, image=st.permutations(_REPLICAS))
def test_byte_images_order_as_canon_key(pair, image):
    _images_agree_with_canon_key(*pair, image)


@pytest.mark.slow
@DETERMINISM_SETTINGS
@given(pair=_PAIRS, image=st.permutations(_REPLICAS))
def test_byte_images_order_as_canon_key_determinism_tier(pair, image):
    _images_agree_with_canon_key(*pair, image)


@pytest.mark.parametrize("a, b", [
    (-0.0, 0.0), (True, 1), (False, 0), (1, 1.0), ("⊥", BOTTOM),
    ("a", "a\x00"), ("a\x00", "a\x01"), (("a", 1), ("a\x00", 0)),
    ("é", "z"), (-1, -2), (-256, -255), (2 ** 64, 2 ** 64 - 1),
    (-(2 ** 64), 2 ** 64), (-(2 ** 1100), -1), (2 ** 1100, 2 ** 1200),
    (-(2 ** 1200), -(2 ** 1100)), ((), ((),)), ((b"a", 1), (b"a\x00", 0)),
    (frozenset({1, "a"}), frozenset({True, "a"})), (b"", b"\x00"),
])
def test_byte_images_order_edge_cases(a, b):
    _images_agree_with_canon_key(a, b, _REPLICAS)
    _images_agree_with_canon_key(b, a, ("r2", "r1", "r3"))


def _brute_force_pin(monkeypatch, run):
    """Run ``run()`` with every ``canonical()`` call checked against a
    brute-force first minimum over canon_key across all of ``maps``.

    Returns the number of calls checked.  ``last_map`` must be the
    brute-force minimizer, and two keys must be equal exactly when their
    brute-force keys are.
    """
    raw_parts = {}
    reference = {}
    keys_of = {}
    calls = []

    def canon(value, index, mapping):
        found = reference.get((value, index))
        if found is None:
            found = reference[(value, index)] = canon_key(value, mapping)
        return found

    def part_fragments(self, part):
        vector = original_parts(self, part)
        raw_parts[vector] = part
        return vector

    def canonical(self, part_frags, glob):
        key = original_canonical(self, part_frags, glob)
        raw = {r: raw_parts[part_frags[r]] for r in self.replicas}
        candidates = []
        for index, mapping in enumerate(self.maps):
            inverse = {b: a for a, b in mapping.items()}
            candidates.append((
                tuple(canon(raw[inverse.get(r, r)], index, mapping)
                      for r in self.replicas),
                canon(glob, index, mapping),
            ))
        best = min(candidates)
        assert self.last_map == self.maps[candidates.index(best)]
        assert keys_of.setdefault(best, key) == key
        calls.append((key, best))
        return key

    original_parts = SymmetryReducer.part_fragments
    original_canonical = SymmetryReducer.canonical
    monkeypatch.setattr(SymmetryReducer, "part_fragments", part_fragments)
    monkeypatch.setattr(SymmetryReducer, "canonical", canonical)
    run()
    brute_of = {}
    for key, best in calls:
        assert brute_of.setdefault(key, best) == best
    return len(calls)


def test_canonical_keys_match_brute_force_op(monkeypatch):
    entry = entry_by_name("Counter")
    programs = {r: [("inc", ()), ("read", ())] for r in _REPLICAS}
    stats = ExploreStats()
    calls = _brute_force_pin(monkeypatch, lambda: explore_op_programs(
        _make_system(entry, programs), programs, lambda *_: None,
        symmetry=True, stats=stats,
    ))
    assert stats.symmetry_group == 6
    assert calls == stats.states_visited == 14887


def test_canonical_keys_match_brute_force_state(monkeypatch):
    entry = entry_by_name("G-Counter")
    programs = {r: [("inc", ()), ("read", ())] for r in _REPLICAS}
    stats = ExploreStats()
    calls = _brute_force_pin(monkeypatch, lambda: explore_state_programs(
        _make_system(entry, programs), programs, lambda *_: None,
        max_gossips=2, symmetry=True, stats=stats,
    ))
    assert stats.symmetry_group == 6
    assert calls == stats.states_visited == 927


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
