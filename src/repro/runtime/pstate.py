"""Persistent hash tries: O(delta) branching for the exploration engine.

The copy-on-write snapshots of :class:`~repro.runtime.system.OpBasedSystem`
and :class:`~repro.runtime.state_system.StateBasedSystem` shallow-copy every
container per branch point — O(|configuration|) work that dominates the DFS
hot path once visibility relations and seen-sets grow.  This module provides
*path-copying* persistent maps and sets (hash array mapped tries, 32-way):

* ``assoc``/``add`` return a **new** trie sharing every untouched subtree
  with the old one — an update allocates O(log n) nodes and shares the rest;
* a snapshot is the root pointer (O(1)); restore is a pointer swap (O(1));
* tokens never go stale: the old root is immutable, so it can be restored
  any number of times, from any depth.

Deletion is deliberately unsupported: the systems' label-indexed containers
(seen-sets, visibility, effector tables) only ever *grow* along an
execution — "removal" is exactly a restore, i.e. a root swap to an older
trie.  Keeping the tries grow-only halves the node logic and removes the
canonical-form subtleties of HAMT deletion.

Structural-sharing accounting: every mutation records how many trie nodes
it copied (allocated) and how many child pointers it *shared* (reused in a
copied node) in the module-level :data:`STATS`.  The engine samples the
counters around a run and reports the delta as
``ExploreStats.pstate_copied`` / ``pstate_shared`` (surfaced by
``repro stats`` in the scheduler digest) — the observable proof that
branching is O(delta), not O(configuration).
"""

from typing import Any, Iterator, Mapping, Optional, Tuple

_BITS = 5
_MASK = (1 << _BITS) - 1
#: Python hashes are normalized into this unsigned width before chunking.
_HASH_MASK = (1 << 64) - 1

try:  # int.bit_count is 3.10+; the fallback keeps 3.8/3.9 importable
    # The unbound C descriptor itself — calling it adds no Python frame,
    # and popcounts sit under every trie lookup on the DFS hot path.
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - older interpreters only

    def _popcount(x: int) -> int:
        return bin(x).count("1")


class PStats:
    """Structural-sharing counters (see module docstring)."""

    __slots__ = ("nodes_copied", "nodes_shared")

    def __init__(self) -> None:
        self.nodes_copied = 0
        self.nodes_shared = 0

    def snapshot(self) -> Tuple[int, int]:
        return (self.nodes_copied, self.nodes_shared)


#: Process-global counters: exploration is single-threaded per process, and
#: workers ship their deltas home through ``ExploreStats``.
STATS = PStats()


class _Leaf:
    __slots__ = ("hash", "key", "value")


class _Bucket:
    """Entries whose full 64-bit hashes collide."""

    __slots__ = ("hash", "items")


class _Node:
    """A bitmap-indexed interior node: children are nodes, leaves, buckets."""

    __slots__ = ("bitmap", "array")


def _leaf(h: int, key: Any, value: Any) -> _Leaf:
    node = _Leaf()
    node.hash = h
    node.key = key
    node.value = value
    return node


def _merge(shift: int, a: Any, b: Any) -> Any:
    """Join two leaves/buckets with distinct hashes under fresh nodes."""
    ia = (a.hash >> shift) & _MASK
    ib = (b.hash >> shift) & _MASK
    STATS.nodes_copied += 1
    node = _Node()
    if ia == ib:
        node.bitmap = 1 << ia
        node.array = (_merge(shift + _BITS, a, b),)
    else:
        node.bitmap = (1 << ia) | (1 << ib)
        node.array = (a, b) if ia < ib else (b, a)
    return node


def _bucket(h: int, items: Tuple[Tuple[Any, Any], ...]) -> _Bucket:
    node = _Bucket()
    node.hash = h
    node.items = items
    return node


def _assoc(node: Any, shift: int, h: int, key: Any,
           value: Any) -> Tuple[Any, bool]:
    """Insert/replace ``key`` below ``node``; returns ``(new node, added)``.

    Returns ``node`` itself (identity) when the binding already holds, so
    callers can skip allocating a new trie handle entirely.
    """
    stats = STATS
    if type(node) is _Node:
        bit = 1 << ((h >> shift) & _MASK)
        index = _popcount(node.bitmap & (bit - 1))
        array = node.array
        if not (node.bitmap & bit):
            stats.nodes_copied += 1
            stats.nodes_shared += len(array)
            new = _Node()
            new.bitmap = node.bitmap | bit
            new.array = array[:index] + (_leaf(h, key, value),) + array[index:]
            return new, True
        child = array[index]
        replacement, added = _assoc(child, shift + _BITS, h, key, value)
        if replacement is child:
            return node, added
        stats.nodes_copied += 1
        stats.nodes_shared += len(array) - 1
        new = _Node()
        new.bitmap = node.bitmap
        new.array = array[:index] + (replacement,) + array[index + 1:]
        return new, added
    if type(node) is _Leaf:
        if node.hash == h and node.key == key:
            if node.value is value or node.value == value:
                return node, False
            stats.nodes_copied += 1
            return _leaf(h, key, value), False
        if node.hash == h:
            stats.nodes_copied += 1
            return _bucket(h, ((node.key, node.value), (key, value))), True
        return _merge(shift, node, _leaf(h, key, value)), True
    # _Bucket
    if node.hash == h:
        for index, (k, v) in enumerate(node.items):
            if k == key:
                if v is value or v == value:
                    return node, False
                stats.nodes_copied += 1
                items = (node.items[:index] + ((key, value),)
                         + node.items[index + 1:])
                return _bucket(h, items), False
        stats.nodes_copied += 1
        return _bucket(h, node.items + ((key, value),)), True
    return _merge(shift, node, _leaf(h, key, value)), True


_MISSING = object()


def _lookup(node: Any, h: int, key: Any) -> Any:
    shift = 0
    while type(node) is _Node:
        bit = 1 << ((h >> shift) & _MASK)
        if not (node.bitmap & bit):
            return _MISSING
        node = node.array[_popcount(node.bitmap & (bit - 1))]
        shift += _BITS
    if type(node) is _Leaf:
        if node.hash == h and node.key == key:
            return node.value
        return _MISSING
    if node.hash == h:
        for k, v in node.items:
            if k == key:
                return v
    return _MISSING


def _iter_entries(node: Any) -> Iterator[Tuple[Any, Any]]:
    # Iterative with an explicit stack: entry iteration sits on the
    # systems' hot paths (seen-set scans per invoke), where nested
    # generator delegation per trie level costs more than the visit.
    stack = [node]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is _Node:
            stack.extend(reversed(node.array))
        elif kind is _Leaf:
            yield (node.key, node.value)
        else:
            yield from node.items


class PMap:
    """An immutable hash-trie map; ``assoc`` path-copies, lookups are O(log n).

    Iteration order is hash-trie order: deterministic for a fixed key set
    within one process, but *not* sorted and not insertion-ordered — callers
    that fingerprint contents must sort or use order-insensitive containers
    (the systems already do).
    """

    __slots__ = ("_root", "_size")

    def __init__(self, root: Any = None, size: int = 0) -> None:
        self._root = root
        self._size = size

    def assoc(self, key: Any, value: Any) -> "PMap":
        h = hash(key) & _HASH_MASK
        if self._root is None:
            STATS.nodes_copied += 1
            return PMap(_leaf(h, key, value), 1)
        root, added = _assoc(self._root, 0, h, key, value)
        if root is self._root:
            return self
        return PMap(root, self._size + (1 if added else 0))

    def get(self, key: Any, default: Any = None) -> Any:
        if self._root is None:
            return default
        value = _lookup(self._root, hash(key) & _HASH_MASK, key)
        return default if value is _MISSING else value

    def __getitem__(self, key: Any) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def __contains__(self, key: Any) -> bool:
        if self._root is None:
            return False
        return _lookup(self._root, hash(key) & _HASH_MASK, key) is not _MISSING

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[Any]:
        if self._root is not None:
            for key, _ in _iter_entries(self._root):
                yield key

    def items(self) -> Iterator[Tuple[Any, Any]]:
        if self._root is not None:
            yield from _iter_entries(self._root)

    def values(self) -> Iterator[Any]:
        if self._root is not None:
            for _, value in _iter_entries(self._root):
                yield value

    def keys(self) -> Iterator[Any]:
        return iter(self)

    @staticmethod
    def of(mapping: Mapping[Any, Any]) -> "PMap":
        pmap = PMap()
        for key, value in mapping.items():
            pmap = pmap.assoc(key, value)
        return pmap

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.items())
        return f"pmap({{{inner}}})"


class PSet:
    """An immutable hash-trie set over :class:`PMap`."""

    __slots__ = ("_map",)

    def __init__(self, backing: Optional[PMap] = None) -> None:
        self._map = backing if backing is not None else PMap()

    def add(self, item: Any) -> "PSet":
        backing = self._map.assoc(item, True)
        if backing is self._map:
            return self
        return PSet(backing)

    def update(self, items) -> "PSet":
        backing = self._map
        for item in items:
            backing = backing.assoc(item, True)
        if backing is self._map:
            return self
        return PSet(backing)

    def __contains__(self, item: Any) -> bool:
        # Inlined PMap.__contains__: membership is the single hottest
        # persistent operation (causal-delivery checks per DFS step).
        root = self._map._root
        if root is None:
            return False
        return _lookup(root, hash(item) & _HASH_MASK, item) is not _MISSING

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._map)

    @staticmethod
    def of(items) -> "PSet":
        return PSet().update(items)

    def __repr__(self) -> str:
        inner = ", ".join(repr(item) for item in self)
        return f"pset({{{inner}}})"


EMPTY_MAP = PMap()
EMPTY_SET = PSet()
