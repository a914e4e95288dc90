"""Sleep-set vs source-DPOR differential equality.

Source-DPOR prunes interleavings whose race reversals are already
covered, guides reversals with wakeup-tree continuations and cuts
re-converged states to their owed branches; the contract is that the
pruning is invisible in the results — distinct-configuration counts,
verdicts, and failure lists stay bit-for-bit identical with the classic
sleep-set explorer on every registry entry, serially and through both
parallel front doors, with replica symmetry on and off.  A
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


def _three_replica(name):
    """The symmetric 3-replica ``inc; read`` scope of a counter entry."""
    entry = next(e for e in ALL_ENTRIES if e.name == name)
    programs = {r: [("inc", ()), ("read", ())] for r in ("r1", "r2", "r3")}
    return entry, programs


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

    def test_unknown_flavor_rejected(self):
        entry, programs = _three_replica("Counter")
        with pytest.raises(ValueError, match="unknown por mode"):
            exhaustive_verify(entry, programs, por="optimal")


class TestReductionPin:
    """Source-DPOR's walk on the 3-replica ``inc; read`` Counter scope,
    pinned exactly with symmetry on and off, as :class:`TestStateWalkPin`
    pins the state-based one: any change to the delivery transitions,
    their independence, the race analysis or the shared domain
    bookkeeping that moves the walk shows up here.  The walk returns
    the sleep oracle's verdict and count, with both the patch cuts and
    the wakeup guides firing."""

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
        result = three_replica["source"]
        stats = result.stats
        assert (stats.states_visited, stats.dpor_races,
                result.configurations) == (14887, 18552, 490)
        assert stats.dpor_redundant_avoided > 0

    def test_walk_without_symmetry(self):
        entry, programs = _three_replica("Counter")
        result = exhaustive_verify(entry, programs, symmetry=False)
        assert result.ok, result.failures
        stats = result.stats
        assert (stats.states_visited, stats.dpor_races,
                result.configurations) == (57010, 34003, 2827)
        assert stats.dpor_redundant_avoided > 0

    def test_patch_cuts_and_wakeup_guides_fire(self, three_replica):
        stats = three_replica["source"].stats
        assert stats.dpor_patch_cuts > 0
        assert stats.dpor_wakeup_branches > 0


class TestStateWalkPin:
    """The state-based walk, pinned exactly: the symmetric 3-replica
    G-Counter scope under two gossips, as ``dpor_3r`` in
    ``BENCH_explore.json`` pins the op-based ones.  Any change to the
    gossip transitions, their independence or the shared domain
    bookkeeping that moves the walk shows up here."""

    @pytest.mark.parametrize(
        "por, symmetry, states, races, configurations",
        [
            ("source", None, 927, 2639, 122),
            ("source", False, 4028, 7378, 675),
            ("sleep", None, 1164, 0, 122),
            ("sleep", False, 5188, 0, 675),
        ],
        ids=["source-sym", "source-nosym", "sleep-sym", "sleep-nosym"],
    )
    def test_walk(self, por, symmetry, states, races, configurations):
        entry, programs = _three_replica("G-Counter")
        result = exhaustive_verify_state(
            entry, programs, max_gossips=MAX_GOSSIPS, symmetry=symmetry,
            por=por,
        )
        assert result.ok, result.failures
        stats = result.stats
        assert (stats.states_visited, stats.dpor_races,
                result.configurations) == (states, races, configurations)


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
    def test_steal_pool_matches_serial_sleep(self, oracle, symmetry):
        scopes = standard_scopes(max_gossips=MAX_GOSSIPS)
        merged = verify_scopes_steal(
            scopes, jobs=2, symmetry=symmetry, oversubscribe=True,
            por="source",
        )
        for (entry, _, _), result in zip(scopes, merged):
            expected = (
                oracle[entry.name] if symmetry is None
                else _serial(entry, "sleep", symmetry)
            )
            _assert_equal(result, expected, entry.name)

    def test_static_pool_matches_serial_sleep(self, oracle):
        # steal=False: the pool split statically at the root branches.
        scopes = standard_scopes(max_gossips=MAX_GOSSIPS)
        sink = {}
        merged = verify_scopes_steal(
            scopes, jobs=2, steal=False, oversubscribe=True, por="source",
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
