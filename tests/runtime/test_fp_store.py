"""Fingerprint interning: stable encoding, collision checks, disk spill.

The store's contract is exactness: replacing raw fingerprint sets with
digest sets must never merge two distinct configurations (collision
check) nor split one configuration in two (process-stable encoding).
The engine-level guarantee is differential — explorations run with and
without the store count the same configurations.
"""

import pickle
import subprocess
import sys

import pytest

from repro.core.freeze import FrozenDict
from repro.core.timestamp import BOTTOM, Timestamp
from repro.proofs.exhaustive import exhaustive_verify, standard_programs
from repro.proofs.registry import ALL_ENTRIES
from repro.runtime.fp_store import (
    FingerprintCollisionError,
    FingerprintStore,
    FPStoreStats,
    SpillMap,
    SpillSet,
    stable_encode,
)
from repro.runtime.symmetry import SymmetryReducer, build_group

OB_ENTRIES = [e for e in ALL_ENTRIES if e.kind == "OB"]


def _orbit_key(counter):
    """A symmetric orbit key as the engine builds one: a small tuple of
    byte images."""
    programs = {"r1": [("inc", ())], "r2": [("inc", ())]}
    reducer = SymmetryReducer(["r1", "r2"], build_group(programs))
    parts = {r: reducer.part_fragments((r, counter)) for r in programs}
    return reducer.canonical(parts, (frozenset(), counter))


SAMPLE = (
    ("replica", 3, (True, 1.5, None)),
    frozenset({("a", 1), ("b", 2), BOTTOM}),
    FrozenDict({"x": Timestamp(1, "r1"), "y": (2, "z")}),
    _orbit_key(4),
)


class TestStableEncode:
    def test_equal_values_equal_encodings(self):
        a = stable_encode(SAMPLE)
        b = stable_encode(
            (
                ("replica", 3, (True, 1.5, None)),
                frozenset({BOTTOM, ("b", 2), ("a", 1)}),
                FrozenDict({"y": (2, "z"), "x": Timestamp(1, "r1")}),
                _orbit_key(4),
            )
        )
        assert a == b

    def test_distinct_values_distinct_encodings(self):
        values = [
            (), (0,), ("0",), (0, 0), ((0,),), frozenset(), frozenset({0}),
            {"a": 1}, {"a": 2}, {"b": 1}, None, BOTTOM, 0, "x", b"x", 0.5,
            _orbit_key(4), _orbit_key(5), (b"k",), ("k",),
        ]
        encodings = [stable_encode(v) for v in values]
        assert len(set(encodings)) == len(encodings)

    def test_orbit_key_encoding_survives_pickle(self):
        key = _orbit_key(4)
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key
        assert stable_encode(clone) == stable_encode(key)

    def test_numeric_equality_shares_encoding(self):
        # The plain-set dedup path treats True == 1 == 1.0; the digest
        # path must agree or configurations would double-count.
        assert stable_encode(1) == stable_encode(True) == stable_encode(1.0)
        assert stable_encode(0) == stable_encode(False)
        assert stable_encode(1) != stable_encode(1.5)

    def test_container_sorting_ignores_hash_order(self):
        items = frozenset(f"item-{i}" for i in range(50))
        rebuilt = frozenset(sorted(items, reverse=True))
        assert stable_encode(items) == stable_encode(rebuilt)

    def test_cross_process_stability(self):
        """Encodings do not depend on the interpreter's hash seed."""
        script = (
            "from repro.runtime.fp_store import stable_encode\n"
            "from repro.core.timestamp import Timestamp\n"
            "v = (frozenset({'a', 'b', 'c', ('n', 1)}),"
            "     {'k': Timestamp(2, 'r2')}, 7)\n"
            "import sys; sys.stdout.write(stable_encode(v).hex())\n"
        )
        outs = set()
        for seed in ("0", "1", "random"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            )
            outs.add(proc.stdout)
        assert len(outs) == 1

    def test_memo_reuses_container_encodings(self):
        memo = {}
        part = ("r1", frozenset({1, 2, 3}))
        first = stable_encode(part, memo)
        assert stable_encode(part, memo) == first
        assert id(part) in memo


class TestFingerprintStore:
    def test_intern_is_deterministic_and_counted(self, tmp_path):
        with FingerprintStore(spill_dir=str(tmp_path)) as store:
            d1 = store.intern(SAMPLE)
            d2 = store.intern(SAMPLE)
            assert d1 == d2 and len(d1) == 16
            assert store.stats.lookups == 2
            assert store.stats.hits == 1
            assert store.stats.unique == 1

    def test_distinct_fingerprints_distinct_digests(self, tmp_path):
        with FingerprintStore(spill_dir=str(tmp_path)) as store:
            digests = {store.intern(("config", i)) for i in range(200)}
        assert len(digests) == 200

    def test_collision_raises(self, tmp_path):
        # A 1-byte digest collides within ~16·sqrt(256) fingerprints;
        # the ledger must detect it rather than silently merge.
        with FingerprintStore(spill_dir=str(tmp_path), digest_size=1) \
                as store:
            with pytest.raises(FingerprintCollisionError):
                for i in range(10_000):
                    store.intern(("config", i))

    def test_eviction_with_spill_stays_exact(self, tmp_path):
        with FingerprintStore(spill_dir=str(tmp_path), memory_limit=4) \
                as store:
            first = [store.intern(("config", i)) for i in range(200)]
            again = [store.intern(("config", i)) for i in range(200)]
            assert first == again
            assert store.stats.evictions > 0

    def test_cross_store_agreement(self, tmp_path):
        # Two stores (two worker processes in spirit) must produce equal
        # digests for equal fingerprints — the merge unions their sets.
        with FingerprintStore(spill_dir=str(tmp_path)) as a, \
                FingerprintStore(spill_dir=str(tmp_path)) as b:
            assert [a.intern(("c", i)) for i in range(50)] == \
                   [b.intern(("c", i)) for i in range(50)]


class TestSpillTiers:
    def test_spill_set_roundtrip(self, tmp_path):
        store = FingerprintStore(spill_dir=str(tmp_path), memory_limit=8)
        spill = store.visited_set()
        assert isinstance(spill, SpillSet)
        digests = [store.intern(("v", i)) for i in range(100)]
        for digest in digests:
            spill.add(digest)
            spill.add(digest)  # idempotent
        assert len(spill) == 100
        assert all(d in spill for d in digests)
        assert store.intern(("v", "missing")) not in spill
        assert set(spill) == set(digests)
        store.close()

    def test_spill_map_roundtrip(self, tmp_path):
        store = FingerprintStore(spill_dir=str(tmp_path), memory_limit=4)
        table = store.expanded_map()
        assert isinstance(table, SpillMap)
        digests = [store.intern(("e", i)) for i in range(50)]
        for i, digest in enumerate(digests):
            # Engine pattern: setdefault, then append before the next
            # setdefault call.
            table.setdefault(digest, []).append(frozenset({("inv", "r", i)}))
        for i, digest in enumerate(digests):
            recorded = table.setdefault(digest, [])
            assert recorded == [frozenset({("inv", "r", i)})]
        store.close()

    def test_scratch_file_invisible_while_running(self, tmp_path):
        # The scratch sqlite file is unlinked right after connect: the
        # store keeps working through the open descriptor, and the spill
        # directory never shows (or accumulates) fp-store files.
        store = FingerprintStore(spill_dir=str(tmp_path), memory_limit=4)
        digests = [store.intern(("x", i)) for i in range(50)]
        assert digests == [store.intern(("x", i)) for i in range(50)]
        assert not list(tmp_path.iterdir())
        store.close()
        assert not list(tmp_path.iterdir())

    def test_killed_worker_leaves_no_scratch_files(self, tmp_path):
        # Abnormal worker exit (SIGKILL mid-exploration) must not orphan
        # scratch files in --spill DIR: the unlink-after-connect pattern
        # hands cleanup to the kernel, not to a close() that never runs.
        script = (
            "import os, sys\n"
            "from repro.runtime.fp_store import FingerprintStore\n"
            "store = FingerprintStore(spill_dir=sys.argv[1], memory_limit=4)\n"
            "for i in range(100):\n"
            "    store.intern(('kill', i))\n"
            "sys.stdout.write('ready\\n')\n"
            "sys.stdout.flush()\n"
            "os.kill(os.getpid(), 9)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": "src"},
        )
        assert proc.stdout.strip() == "ready"
        assert proc.returncode != 0  # died on SIGKILL, close() never ran
        assert not list(tmp_path.iterdir())


class TestStats:
    def test_merge_sums_counters(self):
        a = FPStoreStats(lookups=10, hits=4, unique=6, evictions=1,
                         spilled=2)
        b = FPStoreStats(lookups=5, hits=1, unique=4)
        a.merge(b)
        assert a.lookups == 15 and a.hits == 5 and a.unique == 10
        assert a.hit_ratio == 5 / 15
        assert a.spilled == 2


class TestEngineEquality:
    """Explorations through the store count exactly as without it."""

    @pytest.mark.parametrize(
        "entry", OB_ENTRIES, ids=lambda entry: entry.name
    )
    def test_spill_matches_plain(self, entry, tmp_path):
        programs = standard_programs(entry)
        plain = exhaustive_verify(entry, programs)
        spilled = exhaustive_verify(entry, programs, spill=str(tmp_path))
        assert spilled.ok == plain.ok
        assert spilled.configurations == plain.configurations
        assert spilled.fp_store is not None
        assert spilled.fp_store.lookups > 0

    def test_spill_matches_plain_under_symmetry(self, tmp_path):
        entry = next(e for e in OB_ENTRIES if e.name == "Counter")
        programs = {
            "r1": [("inc", ()), ("read", ())],
            "r2": [("inc", ()), ("read", ())],
        }
        plain = exhaustive_verify(entry, programs, symmetry=True)
        spilled = exhaustive_verify(entry, programs, symmetry=True,
                                    spill=str(tmp_path))
        assert spilled.configurations == plain.configurations

    def test_tiny_memory_limit_stays_exact(self, tmp_path, monkeypatch):
        # Force every record through the eviction/disk path: exploration
        # must still count exactly as the in-memory run.
        entry = next(e for e in OB_ENTRIES if e.name == "Counter")
        programs = standard_programs(entry)
        plain = exhaustive_verify(entry, programs)
        monkeypatch.setattr(
            "repro.proofs.exhaustive.FingerprintStore",
            lambda spill_dir: FingerprintStore(
                spill_dir=spill_dir, memory_limit=16
            ),
        )
        spilled = exhaustive_verify(entry, programs, spill=str(tmp_path))
        assert spilled.configurations == plain.configurations
        assert spilled.fp_store.evictions > 0
