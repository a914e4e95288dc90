"""Sleep-set vs source-DPOR differential equality.

Source-DPOR prunes interleavings whose race reversals are already
covered, guides reversals with wakeup-tree continuations and cuts
re-converged states to their owed branches; the contract is that the
pruning is invisible in the results — distinct-configuration counts,
verdicts, and failure lists stay bit-for-bit identical with the classic
sleep-set explorer on every registry entry, serially and through both
parallel front doors, with replica symmetry on and off.  State-based
entries run the sleep-set search under either flavor, so there the
whole walk agrees.  A
registry-level pin of the ``snapshot_safe=False`` deepcopy fallback
rides along: a CRDT that mutates its state in place must bypass
snapshot tokens and still verify identically under both flavors.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.spec import Role
from repro.crdts.base import Effector, GeneratorResult, OpBasedCRDT
from repro.proofs.exhaustive import (
    exhaustive_verify,
    exhaustive_verify_state,
    standard_programs,
)
from repro.proofs.parallel import standard_scopes
from repro.proofs.registry import ALL_ENTRIES
from repro.proofs.steal import verify_scopes_steal

MAX_GOSSIPS = 2

SRC = Path(__file__).resolve().parents[2] / "src"

#: The symmetric 3-replica ``inc; read`` programs of a counter entry.
COUNTER_3R = {r: [("inc", ()), ("read", ())] for r in ("r1", "r2", "r3")}

#: The symmetric 3-replica ``add a; read`` OR-Set programs.
ORSET_3R = {r: [("add", ("a",)), ("read", ())] for r in ("r1", "r2", "r3")}

#: The skewed 4-replica Counter programs: one reader and three
#: interchangeable incrementers, so the group has order 3! = 6.
SKEWED_4R = {
    "r1": [("inc", ()), ("read", ())],
    "r2": [("inc", ())],
    "r3": [("inc", ())],
    "r4": [("inc", ())],
}


def _three_replica(name):
    """The symmetric 3-replica ``inc; read`` scope of a counter entry."""
    entry = next(e for e in ALL_ENTRIES if e.name == name)
    return entry, COUNTER_3R


def _walk(result):
    """One run's exact walk: states, races, reversals avoided,
    configurations (orbits under symmetry) and the group order."""
    stats = result.stats
    return (stats.states_visited, stats.dpor_races,
            stats.dpor_redundant_avoided, result.configurations,
            stats.symmetry_group)


def _serial(entry, por, symmetry=None):
    programs = standard_programs(entry)
    if entry.kind == "SB":
        return exhaustive_verify_state(
            entry, programs, max_gossips=MAX_GOSSIPS,
            symmetry=symmetry, por=por,
        )
    return exhaustive_verify(entry, programs, symmetry=symmetry, por=por)


def _assert_equal(source, sleep, label):
    assert source.ok == sleep.ok, label
    assert source.configurations == sleep.configurations, label
    assert source.failures == sleep.failures, label


class TestSerialDifferential:
    """Every registry entry, symmetry on and off."""

    @pytest.mark.parametrize(
        "symmetry", [None, False], ids=["sym-default", "sym-off"]
    )
    @pytest.mark.parametrize("entry", ALL_ENTRIES, ids=lambda e: e.name)
    def test_source_matches_sleep(self, entry, symmetry):
        sleep = _serial(entry, "sleep", symmetry)
        source = _serial(entry, "source", symmetry)
        _assert_equal(source, sleep, entry.name)
        # Race-driven source sets may only shrink the walk, never grow
        # it: every node source-DPOR expands, sleep sets expand too.
        assert (
            source.stats.states_visited <= sleep.stats.states_visited
        ), entry.name
        if entry.kind == "SB":
            # A state-based scope runs the sleep-set search under either
            # flavor, so the whole walk agrees, not only its results.
            assert source.stats.dpor_races == 0, entry.name
            walk = dataclasses.replace(source.stats, wall_time=0.0)
            assert walk == dataclasses.replace(
                sleep.stats, wall_time=0.0
            ), entry.name

    def test_unknown_flavor_rejected(self):
        entry, programs = _three_replica("Counter")
        with pytest.raises(ValueError, match="unknown por mode"):
            exhaustive_verify(entry, programs, por="optimal")


class TestReductionPin:
    """The op-based walks, pinned exactly (see :func:`_walk`): the
    3-replica ``inc; read`` Counter scope under both flavors with
    symmetry on and off, the 3-replica ``add a; read`` OR-Set scope and
    the skewed 4-replica Counter scope, as :class:`TestStateWalkPin`
    pins the state-based ones.  Any change to the delivery transitions,
    their independence, the race analysis, the orbit canonicalization
    or the shared domain bookkeeping that moves a walk shows up here.
    The source walk returns the sleep oracle's verdict and count, with
    both the patch cuts and the wakeup guides firing.  The larger walks
    run under ``-m slow``."""

    @pytest.fixture(scope="class")
    def three_replica(self):
        entry, programs = _three_replica("Counter")
        return {
            por: exhaustive_verify(entry, programs, por=por)
            for por in ("sleep", "source")
        }

    def test_matches_sleep(self, three_replica):
        _assert_equal(
            three_replica["source"], three_replica["sleep"], "Counter-3r"
        )

    def test_walks_fewer_states_than_plain_source(self, three_replica):
        # Plain source sets, before the wakeup guides and patch cuts,
        # walked 16,925 states here (docs/performance.md).
        assert _walk(three_replica["source"]) == (14887, 18552, 6479, 490, 6)

    def test_sleep_walk(self, three_replica):
        assert _walk(three_replica["sleep"]) == (41661, 0, 0, 490, 6)

    def test_walk_without_symmetry(self):
        entry, programs = _three_replica("Counter")
        result = exhaustive_verify(entry, programs, symmetry=False)
        assert result.ok, result.failures
        assert _walk(result) == (57010, 34003, 31133, 2827, 1)

    def test_patch_cuts_and_wakeup_guides_fire(self, three_replica):
        stats = three_replica["source"].stats
        assert stats.dpor_patch_cuts > 0
        assert stats.dpor_wakeup_branches > 0

    @pytest.mark.parametrize("name, programs, por, symmetry, walk", [
        pytest.param("OR-Set", ORSET_3R, "source", None,
                     (14887, 18552, 6479, 490, 6), id="orset-source-sym"),
        pytest.param("OR-Set", ORSET_3R, "sleep", None,
                     (41661, 0, 0, 490, 6), id="orset-sleep-sym",
                     marks=pytest.mark.slow),
        pytest.param("OR-Set", ORSET_3R, "source", False,
                     (57010, 34003, 31133, 2827, 1),
                     id="orset-source-nosym", marks=pytest.mark.slow),
        pytest.param("Counter", COUNTER_3R, "sleep", False,
                     (178900, 0, 0, 2827, 1),
                     id="counter-sleep-nosym", marks=pytest.mark.slow),
        pytest.param("Counter", SKEWED_4R, "source", None,
                     (55206, 105379, 29305, 239, 6),
                     id="counter-4r-source", marks=pytest.mark.slow),
        pytest.param("Counter", SKEWED_4R, "sleep", None,
                     (177365, 0, 0, 239, 6),
                     id="counter-4r-sleep", marks=pytest.mark.slow),
    ])
    def test_walk(self, name, programs, por, symmetry, walk):
        entry = next(e for e in ALL_ENTRIES if e.name == name)
        result = exhaustive_verify(entry, programs, symmetry=symmetry,
                                   por=por)
        assert result.ok, result.failures
        assert _walk(result) == walk

    @pytest.mark.slow
    @pytest.mark.parametrize("por", ["sleep", "source"])
    def test_pool_count(self, real_workers, por):
        # Both flavors through the pool's worker processes.
        entry, programs = _three_replica("Counter")
        result = exhaustive_verify(entry, programs, jobs=2, por=por)
        assert (result.ok, result.configurations) == (True, 490)


class TestStateWalkPin:
    """The state-based walks, pinned exactly (see :func:`_walk`): the
    symmetric 3-replica G-Counter scope under two and three gossips
    (three without symmetry under ``-m slow``), as
    :class:`TestReductionPin` pins the op-based ones.  State-based
    scopes run the sleep-set search under either flavor
    (:class:`TestSerialDifferential` pins that), so one flavor is
    pinned.  Any change to the gossip transitions, their independence
    or the shared domain bookkeeping that moves a walk shows up here."""

    @pytest.mark.parametrize("symmetry, gossips, walk", [
        pytest.param(None, MAX_GOSSIPS, (1164, 0, 0, 122, 6),
                     id="sleep-sym"),
        pytest.param(False, MAX_GOSSIPS, (5188, 0, 0, 675, 1),
                     id="sleep-nosym"),
        pytest.param(None, 3, (7027, 0, 0, 1013, 6),
                     id="sleep-sym-3gossips"),
        pytest.param(False, 3, (35411, 0, 0, 5944, 1),
                     id="sleep-nosym-3gossips", marks=pytest.mark.slow),
    ])
    def test_walk(self, symmetry, gossips, walk):
        entry, programs = _three_replica("G-Counter")
        result = exhaustive_verify_state(
            entry, programs, max_gossips=gossips, symmetry=symmetry,
            por="sleep",
        )
        assert result.ok, result.failures
        assert _walk(result) == walk


_HASH_SEED_PROBE = f"""
import json, sys
from repro.__main__ import build_parser
from repro.proofs.exhaustive import exhaustive_verify, exhaustive_verify_state
from repro.proofs.registry import entry_by_name

por = build_parser().parse_args(["exhaustive"]).por
programs = {{r: [("inc", ()), ("read", ())] for r in ("r1", "r2", "r3")}}
entry = entry_by_name(sys.argv[1])
if entry.kind == "SB":
    result = exhaustive_verify_state(
        entry, programs, max_gossips={MAX_GOSSIPS}, por=por
    )
else:
    result = exhaustive_verify(entry, programs, por=por)
print(json.dumps([result.stats.states_visited, result.stats.dpor_races]))
"""


def _hash_seed_walks(name):
    walks = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE, name], env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        walks.append(json.loads(out))
    return walks


def test_default_walk_independent_of_hash_seed():
    """The walk ``repro exhaustive`` runs by default schedules no branch
    by set iteration order: two interpreters with different string
    hashing walk the same states and detect the same races."""
    walks = _hash_seed_walks("Counter")
    assert walks[0] == walks[1]


def test_default_state_walk_independent_of_hash_seed():
    """The same for the gossip semantics, on the pinned G-Counter
    scope."""
    walks = _hash_seed_walks("G-Counter")
    assert walks[0] == walks[1]


class TestParallelDifferential:
    """Both parallel front doors agree with the serial sleep oracle."""

    @pytest.fixture(scope="class")
    def oracle(self):
        return {
            entry.name: _serial(entry, "sleep")
            for entry, _, _ in standard_scopes(max_gossips=MAX_GOSSIPS)
        }

    @pytest.mark.parametrize("symmetry", [None, False],
                             ids=["sym-default", "sym-off"])
    def test_steal_pool_matches_serial_sleep(self, real_workers, oracle,
                                             symmetry):
        scopes = standard_scopes(max_gossips=MAX_GOSSIPS)
        merged = verify_scopes_steal(
            scopes, jobs=2, symmetry=symmetry, por="source",
        )
        for (entry, _, _), result in zip(scopes, merged):
            expected = (
                oracle[entry.name] if symmetry is None
                else _serial(entry, "sleep", symmetry)
            )
            _assert_equal(result, expected, entry.name)

    def test_static_pool_matches_serial_sleep(self, real_workers, oracle):
        # steal=False: the pool split statically at the root branches.
        scopes = standard_scopes(max_gossips=MAX_GOSSIPS)
        sink = {}
        merged = verify_scopes_steal(
            scopes, jobs=2, steal=False, por="source",
            stats_sink=sink,
        )
        assert sink["steal"].frontier_depth == 1
        for (entry, _, _), result in zip(scopes, merged):
            _assert_equal(result, oracle[entry.name], entry.name)


class _MutableCounter(OpBasedCRDT):
    """Counter that mutates its state dict in place.

    Persistent snapshots assume effectors return fresh state values;
    this CRDT deliberately violates that, so it must declare
    ``snapshot_safe = False`` and ride the whole-system deepcopy
    fallback.
    """

    type_name = "Counter"
    snapshot_safe = False
    methods = {
        "inc": Role.UPDATE,
        "dec": Role.UPDATE,
        "read": Role.QUERY,
    }

    def initial_state(self):
        return {"value": 0}

    def generator(self, state, method, args, ts):
        if method == "read":
            return GeneratorResult(ret=state["value"], effector=None)
        return GeneratorResult(ret=None, effector=Effector(method))

    def apply_effector(self, state, effector):
        state["value"] += 1 if effector.method == "inc" else -1
        return state

    def fingerprint(self, state):
        return state["value"]


class TestDeepcopyFallbackRegistry:
    """Registry-level pin of the ``snapshot_safe=False`` escape hatch."""

    @pytest.mark.parametrize("por", ["sleep", "source"])
    def test_mutable_state_counts_match_snapshot_path(self, por):
        base = next(e for e in ALL_ENTRIES if e.name == "Counter")
        mutable = dataclasses.replace(base, make_crdt=_MutableCounter)
        programs = standard_programs(base)
        fast = exhaustive_verify(base, programs, por=por)
        fallback = exhaustive_verify(mutable, programs, por=por)
        _assert_equal(fallback, fast, por)
        assert fallback.ok
        # The fallback really ran: every branch was a whole-system
        # deepcopy, never a structural-sharing snapshot — and vice
        # versa on the snapshot-safe twin.
        assert fallback.stats.deepcopies > 0
        assert fallback.stats.snapshots == 0
        assert fast.stats.snapshots > 0
        assert fast.stats.deepcopies == 0
