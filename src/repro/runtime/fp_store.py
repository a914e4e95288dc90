"""Collision-checked fingerprint digests behind a disk spill tier.

The exploration engine dedups configurations on canonical fingerprints —
large nested tuples (per-replica parts, label data, visibility) or, under
symmetry, small tuples of byte images
(:class:`~repro.runtime.symmetry.SymmetryReducer`).  In memory they live
raw in plain sets and dicts.  Holding millions of them is what makes
4-replica scopes blow past RAM before they blow past time, so
``--spill DIR`` builds a :class:`FingerprintStore`, which interns each
fingerprint as a fixed-width digest and keeps the visited/expanded
records on disk past a bounded hot tier:

* **Stable encoding.**  :func:`stable_encode` maps a fingerprint to a
  canonical byte string that depends only on the *value* — never on hash
  seeds, object identity, or dict order — so digests computed in
  different worker processes compare and union exactly (the same
  contract :func:`~repro.runtime.symmetry.canon_key` gives the symmetry
  reducer).  Unordered containers are sorted by their elements'
  encodings, which totally orders even heterogeneous elements.  Numeric
  leaves are encoded by value (``True == 1 == 1.0`` share an encoding),
  mirroring the equality semantics the raw-fingerprint sets use.

* **Fixed-width digests.**  The encoding is hashed with ``blake2b``
  (keyless, deterministic across processes) to ``digest_size`` bytes.
  Sets of digests are what the engine stores and what the parallel
  merge unions — 16 bytes per configuration instead of a nested tuple.

* **Collision checking.**  Digest equality is trusted only after the
  store has compared *check digests*: a ledger maps each primary digest
  to an independent 32-byte blake2b digest of the same encoding (keyed
  with a distinct personalization string), in an LRU in-memory tier
  backed by the sqlite spill.  A mismatch raises
  :class:`FingerprintCollisionError` instead of silently merging two
  distinct configurations — a silent merge now requires a simultaneous
  collision in two independently-keyed hashes (≥ 2^128+2^256 work; the
  check turns "astronomically unlikely" into "detected").  The ledger
  entry is a fixed 32 bytes instead of the full variable-length
  encoding, so the collision ledger costs O(1) per configuration no
  matter how large the fingerprints grow.

* **Disk spill.**  :meth:`visited_set` and :meth:`expanded_map` return
  :class:`SpillSet`/:class:`SpillMap` drop-ins for the engine's
  visited-fingerprint set and expanded (fingerprint → sleep sets) table:
  an in-memory hot tier in front of a private sqlite file, so the
  working set stays bounded while the full record remains exact.  The
  visited hot tier is promoted to the spill in FIFO batches; the
  expanded hot tier stays an LRU dict because its values are mutable
  record lists.

The differential equality suites run scopes with and without a store,
which is what guards the encoding against losing or double-counting
configurations.
"""

import os
import pickle
import sqlite3
import struct
import tempfile
from collections import OrderedDict, deque
from dataclasses import dataclass, fields, is_dataclass
from hashlib import blake2b
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.freeze import FrozenDict
from ..core.timestamp import BOTTOM

#: Default entry cap for each in-memory tier (ledger, spill-set hot
#: tier, spill-map hot tier).
DEFAULT_MEMORY_LIMIT = 1 << 16

#: Evicted spill-tier entries are buffered and written to sqlite in
#: batches of this many rows.
_FLUSH_BATCH = 512

_U32 = struct.Struct(">I")

#: Personalization for the ledger's check digests: keyed differently from
#: the primary digest so the two hashes are independent functions of the
#: encoding.
_CHECK_PERSON = b"fp-ledger-check"


class FingerprintCollisionError(RuntimeError):
    """Two distinct fingerprint encodings hashed to the same digest."""


def _pack_len(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def stable_encode(value: Any, memo: Optional[Dict[int, Tuple[Any, bytes]]]
                  = None) -> bytes:
    """A canonical, process-stable, injective byte encoding of ``value``.

    Equal values (under Python equality, including cross-type numeric
    equality) produce equal encodings; unequal values produce different
    encodings.  ``memo`` is an optional identity cache ``id -> (obj,
    encoding)`` for container nodes; callers must bound and clear it
    themselves (the stored object reference pins the id against reuse).
    """
    t = type(value)
    if t is str:
        return b"s" + _pack_len(value.encode("utf-8"))
    if t is int or t is bool:
        return b"n" + _pack_len(str(int(value)).encode("ascii"))
    if t is float:
        # Integral floats share the int encoding (1.0 == 1 in the plain
        # set-dedup path, so they must share a digest too).
        if value.is_integer():
            return b"n" + _pack_len(str(int(value)).encode("ascii"))
        return b"x" + _pack_len(repr(value).encode("ascii"))
    if value is None:
        return b"z"
    if value is BOTTOM:
        return b"B"
    if t is bytes:
        return b"y" + _pack_len(value)
    if memo is not None:
        cached = memo.get(id(value))
        if cached is not None and cached[0] is value:
            return cached[1]
    if t is tuple:
        enc = b"t" + _U32.pack(len(value)) + b"".join(
            stable_encode(item, memo) for item in value
        )
    elif t is frozenset or t is set:
        enc = b"S" + _U32.pack(len(value)) + b"".join(
            sorted(stable_encode(item, memo) for item in value)
        )
    elif t is FrozenDict or t is dict:
        enc = b"D" + _U32.pack(len(value)) + b"".join(
            sorted(
                stable_encode(k, memo) + stable_encode(v, memo)
                for k, v in value.items()
            )
        )
    elif is_dataclass(value):
        enc = (
            b"C"
            + _pack_len(t.__name__.encode("utf-8"))
            + _U32.pack(len(fields(value)))
            + b"".join(
                stable_encode(getattr(value, f.name), memo)
                for f in fields(value)
            )
        )
    else:
        # Opaque leaf: reprs in this codebase are deterministic value
        # renders (same contract canon_key relies on).
        enc = (
            b"o"
            + _pack_len(t.__name__.encode("utf-8"))
            + _pack_len(repr(value).encode("utf-8"))
        )
    if memo is not None:
        memo[id(value)] = (value, enc)
    return enc


@dataclass
class FPStoreStats:
    """Counters describing one :class:`FingerprintStore`'s activity."""

    #: intern() calls.
    lookups: int = 0
    #: intern() calls whose digest was already in the store.
    hits: int = 0
    #: Distinct digests interned.
    unique: int = 0
    #: Ledger entries evicted from the in-memory tier.
    evictions: int = 0
    #: Rows written to the sqlite spill (ledger + visited + expanded).
    spilled: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "FPStoreStats") -> None:
        """Fold another store's counters in (cross-worker aggregation)."""
        self.lookups += other.lookups
        self.hits += other.hits
        self.unique += other.unique
        self.evictions += other.evictions
        self.spilled += other.spilled


class _DiskTier:
    """A private sqlite file holding the spilled tiers of one store.

    Scratch storage, not a durable artifact: journaling and fsync are
    off, and the scratch file is *unlinked immediately after connecting*
    — sqlite keeps working through its open file descriptor, and the
    kernel reclaims the space as soon as the descriptor closes, however
    the process ends.  A pool worker killed mid-run (terminate,
    OOM, ctrl-C) therefore leaves nothing behind in ``--spill DIR``;
    before this, abnormal exits accumulated orphaned ``fp-store-*``
    files that only a manual sweep removed.  On platforms that refuse to
    unlink an open file the path is kept and removed on :meth:`close`.
    """

    def __init__(self, spill_dir: str) -> None:
        os.makedirs(spill_dir, exist_ok=True)
        fd, self.path = tempfile.mkstemp(
            prefix="fp-store-", suffix=".sqlite", dir=spill_dir
        )
        os.close(fd)
        self.conn = sqlite3.connect(self.path)
        self.conn.execute("PRAGMA journal_mode=OFF")
        self.conn.execute("PRAGMA synchronous=OFF")
        for table in ("ledger", "expanded"):
            self.conn.execute(
                f"CREATE TABLE {table} (d BLOB PRIMARY KEY, v BLOB)"
            )
        self.conn.execute("CREATE TABLE visited (d BLOB PRIMARY KEY)")
        self._unlinked = False
        try:
            os.unlink(self.path)
            self._unlinked = True
        except OSError:  # pragma: no cover - non-POSIX semantics only
            pass

    def put_many(self, table: str, rows: List[Tuple]) -> None:
        marks = "(?, ?)" if table != "visited" else "(?)"
        self.conn.executemany(
            f"INSERT OR REPLACE INTO {table} VALUES {marks}", rows
        )

    def get(self, table: str, digest: bytes) -> Optional[bytes]:
        row = self.conn.execute(
            f"SELECT v FROM {table} WHERE d = ?", (digest,)
        ).fetchone()
        return row[0] if row is not None else None

    def contains(self, table: str, digest: bytes) -> bool:
        row = self.conn.execute(
            f"SELECT 1 FROM {table} WHERE d = ?", (digest,)
        ).fetchone()
        return row is not None

    def iter_keys(self, table: str) -> Iterator[bytes]:
        for (digest,) in self.conn.execute(f"SELECT d FROM {table}"):
            yield digest

    def close(self) -> None:
        try:
            self.conn.close()
        finally:
            if not self._unlinked:  # pragma: no cover - non-POSIX only
                try:
                    os.unlink(self.path)
                except OSError:
                    pass


class SpillSet:
    """A set of digests with an in-memory hot tier over the disk tier.

    Drop-in for the engine's visited-fingerprint set: supports ``in``,
    ``add``, ``len`` and iteration (the parallel merge iterates to union
    per-worker sets).  Exact — eviction moves entries to sqlite, never
    drops them.

    The hot tier is a plain set; ``_order`` keeps its insertion order,
    and promotion to the spill tier moves the oldest batch (FIFO —
    digest working sets have no useful recency signal once they outgrow
    memory, and FIFO needs no per-hit bookkeeping on the lookup fast
    path).  The two tiers are disjoint: a digest enters the hot tier
    only when it is on neither.
    """

    def __init__(self, disk: _DiskTier, stats: FPStoreStats,
                 memory_limit: int = DEFAULT_MEMORY_LIMIT) -> None:
        self._disk = disk
        self._stats = stats
        self._limit = memory_limit
        self._hot: set = set()
        self._order: "deque[bytes]" = deque()
        self._len = 0

    def __contains__(self, digest: bytes) -> bool:
        if digest in self._hot:
            return True
        return self._disk.contains("visited", digest)

    def add(self, digest: bytes) -> None:
        if digest in self:
            return
        self._hot.add(digest)
        self._order.append(digest)
        self._len += 1
        if len(self._order) > self._limit:
            self._promote()

    def _promote(self) -> None:
        """Move the oldest batch of hot digests to the spill tier."""
        order = self._order
        batch = [order.popleft()
                 for _ in range(min(_FLUSH_BATCH, len(order)))]
        self._hot.difference_update(batch)
        self._stats.evictions += len(batch)
        self._stats.spilled += len(batch)
        self._disk.put_many("visited", [(d,) for d in batch])

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[bytes]:
        yield from self._hot
        yield from self._disk.iter_keys("visited")


class SpillMap:
    """The expanded-table analogue of :class:`SpillSet`.

    Supports exactly the engine's access pattern: ``setdefault(digest,
    [])`` returning a mutable list that the caller finishes appending to
    *before* the next ``setdefault`` call (eviction pickles the list's
    state at eviction time, so a reference appended to after its entry
    was evicted would be lost — the DFS never does that).
    """

    def __init__(self, disk: _DiskTier, stats: FPStoreStats,
                 memory_limit: int = DEFAULT_MEMORY_LIMIT) -> None:
        self._disk = disk
        self._stats = stats
        self._limit = memory_limit
        self._hot: "OrderedDict[bytes, List]" = OrderedDict()
        self._pending: Dict[bytes, List] = {}

    def setdefault(self, digest: bytes, default: List) -> List:
        hot = self._hot
        value = hot.get(digest)
        if value is not None:
            hot.move_to_end(digest)
            return value
        value = self._pending.pop(digest, None)
        if value is None:
            raw = self._disk.get("expanded", digest)
            value = pickle.loads(raw) if raw is not None else default
        hot[digest] = value
        if len(hot) > self._limit:
            evicted, entry = hot.popitem(last=False)
            self._pending[evicted] = entry
            self._stats.evictions += 1
            if len(self._pending) >= _FLUSH_BATCH:
                self._stats.spilled += len(self._pending)
                self._disk.put_many(
                    "expanded",
                    [
                        (d, pickle.dumps(v, pickle.HIGHEST_PROTOCOL))
                        for d, v in self._pending.items()
                    ],
                )
                self._pending.clear()
        return value


class FingerprintStore:
    """Interns canonical fingerprints as collision-checked digests over a
    sqlite spill tier in ``spill_dir``.

    One store per process: digests are process-stable by construction,
    so per-worker stores agree without sharing state, and the existing
    merge path unions their digest sets exactly as it unions raw
    fingerprint sets.
    """

    def __init__(
        self,
        spill_dir: str,
        memory_limit: int = DEFAULT_MEMORY_LIMIT,
        digest_size: int = 16,
    ) -> None:
        self.stats = FPStoreStats()
        self.digest_size = digest_size
        self._memory_limit = memory_limit
        self._ledger: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._disk = _DiskTier(spill_dir)
        self._ledger_pending: Dict[bytes, bytes] = {}
        self._enc_memo: Dict[int, Tuple[Any, bytes]] = {}

    # -- interning ------------------------------------------------------

    def intern(self, fingerprint: Any) -> bytes:
        """The digest of ``fingerprint``; raises on digest collision."""
        stats = self.stats
        stats.lookups += 1
        if len(self._enc_memo) > self._memory_limit:
            self._enc_memo.clear()
        encoding = stable_encode(fingerprint, self._enc_memo)
        digest = blake2b(encoding, digest_size=self.digest_size).digest()
        # The ledger records a fixed-width *check digest* (independent
        # 32-byte blake2b, distinct personalization) rather than the full
        # encoding: O(1) bytes per configuration, and a silent merge now
        # needs both hashes to collide at once.
        check = blake2b(encoding, digest_size=32,
                        person=_CHECK_PERSON).digest()
        known = self._ledger.get(digest)
        if known is not None:
            self._ledger.move_to_end(digest)
        else:
            known = self._ledger_pending.get(digest)
        if known is None:
            known = self._disk.get("ledger", digest)
        if known is not None:
            if known != check:
                raise FingerprintCollisionError(
                    f"digest collision at {digest.hex()}: two distinct "
                    f"fingerprint encodings share a {self.digest_size}-byte "
                    f"digest — widen digest_size"
                )
            stats.hits += 1
            return digest
        stats.unique += 1
        self._ledger[digest] = check
        if len(self._ledger) > self._memory_limit:
            evicted, enc = self._ledger.popitem(last=False)
            stats.evictions += 1
            self._ledger_pending[evicted] = enc
            if len(self._ledger_pending) >= _FLUSH_BATCH:
                self._flush_ledger()
        return digest

    def _flush_ledger(self) -> None:
        self.stats.spilled += len(self._ledger_pending)
        self._disk.put_many("ledger", list(self._ledger_pending.items()))
        self._ledger_pending.clear()

    # -- engine-facing tiers --------------------------------------------

    def visited_set(self) -> SpillSet:
        """The spill-backed visited-fingerprint set."""
        return SpillSet(self._disk, self.stats, self._memory_limit)

    def expanded_map(self) -> SpillMap:
        """The spill-backed expanded table (digest → sleep sets)."""
        return SpillMap(self._disk, self.stats, self._memory_limit)

    def close(self) -> None:
        self._disk.close()

    def __enter__(self) -> "FingerprintStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
