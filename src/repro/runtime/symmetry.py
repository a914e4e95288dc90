"""Replica-symmetry machinery for the exploration engine.

Replicas running *identical* programs are interchangeable: permuting their
identities maps one reachable configuration onto another with the same
RA-linearizability verdict.  The engine therefore dedups configurations on
a canonical *orbit representative*: every replica-indexed component of the
fingerprint (states, seen-sets, visibility, clocks, counters, returns) is
renamed under each permutation of the symmetric replicas, and the
lexicographically least image is the orbit key.

Pinning rule
------------
Only replicas whose whole programs are syntactically equal are permuted;
a replica distinguished by an asymmetric program is *pinned* (mapped to
itself by every group element).  Two further guards pin everything:

* **Data collision** — if a symmetric replica's name occurs as a *value*
  inside any program step (method, argument, object name), renaming would
  corrupt payload data that merely happens to equal a replica id.
* **Group size** — the permutation group is capped at
  :data:`GROUP_LIMIT` elements; larger scopes fall back to the identity.

Soundness
---------
The orbit key only merges true syntactic permutation images, so every
merged configuration is observably equal to the kept representative up to
replica renaming.  Lamport timestamps tie-break on the replica *string*
(:class:`~repro.core.timestamp.Timestamp`), so a permuted execution can
leave a different tie-breaking footprint and simply be unreachable — then
no merge happens and nothing is lost.  Verdict invariance is enforced the
same way PR 1 enforced POR soundness: the naive engine stays the
differential oracle (``tests/runtime/test_explore_symmetry.py``) and
``CRDTEntry.symmetry`` is the per-entry escape hatch.
"""

import struct
from dataclasses import dataclass, fields, is_dataclass
from itertools import permutations
from math import factorial
from operator import itemgetter
from typing import AbstractSet, Any, Dict, List, Mapping, Sequence, Tuple

from ..core.freeze import FrozenDict, freeze
from ..core.timestamp import BOTTOM, Timestamp, VersionVector

#: Maximum permutation-group order the reducer will enumerate.  Scopes are
#: 2–3 replicas in practice (group order 2 or 6); the cap is a safety
#: valve against pathological many-replica programs.
GROUP_LIMIT = 720

#: Per-permutation memo caches are cleared past this many entries.
_CACHE_LIMIT = 1 << 15


def replica_classes(
    programs: Mapping[str, Sequence[Tuple]]
) -> Tuple[Tuple[str, ...], ...]:
    """Group replicas by syntactically identical programs."""
    grouped: Dict[Any, List[str]] = {}
    for replica, program in programs.items():
        grouped.setdefault(freeze(list(program)), []).append(replica)
    return tuple(tuple(members) for members in grouped.values())


def _mentions(value: Any, names) -> bool:
    """Does any string equal to a replica name occur (deeply) in ``value``?"""
    t = type(value)
    if t is str:
        return value in names
    if t in (tuple, list, set, frozenset):
        return any(_mentions(item, names) for item in value)
    if isinstance(value, dict):
        return any(
            _mentions(k, names) or _mentions(v, names)
            for k, v in value.items()
        )
    return False


@dataclass
class SymmetryGroup:
    """The replica-permutation group of a scope.

    ``maps`` lists every group element as a fixed-point-free mapping
    (identity pairs omitted; ``maps[0]`` is the identity ``{}``).
    """

    maps: List[Dict[str, str]]
    classes: Tuple[Tuple[str, ...], ...]
    pinned: Tuple[str, ...]

    @property
    def enabled(self) -> bool:
        return len(self.maps) > 1

    @property
    def order(self) -> int:
        return len(self.maps)


def build_group(
    programs: Mapping[str, Sequence[Tuple]],
    extra_names: Sequence[str] = (),
    limit: int = GROUP_LIMIT,
) -> SymmetryGroup:
    """The permutation group of ``programs`` under the pinning rule.

    ``extra_names`` are non-replica identifiers living in the same string
    namespace (object names): a collision with a symmetric replica name
    disables the reduction, like a data collision inside program steps.
    """
    classes = replica_classes(programs)
    symmetric = [members for members in classes if len(members) > 1]
    trivial = SymmetryGroup([{}], classes, tuple(programs))
    if not symmetric:
        return trivial
    names = frozenset(r for members in symmetric for r in members)
    if any(name in names for name in extra_names):
        return trivial
    for program in programs.values():
        for step in program:
            if _mentions(tuple(step), names):
                return trivial
    order = 1
    for members in symmetric:
        order *= factorial(len(members))
    if order > limit:
        return trivial
    maps: List[Dict[str, str]] = [{}]
    for members in symmetric:
        extended = []
        for image in permutations(members):
            delta = {a: b for a, b in zip(members, image) if a != b}
            for base in maps:
                combined = dict(base)
                combined.update(delta)
                extended.append(combined)
        # permutations() yields the identity image first, so the identity
        # mapping stays at index 0 through every extension round.
        maps = extended
    maps.sort(key=len)
    pinned = tuple(r for r in programs if r not in names)
    return SymmetryGroup(maps, classes, pinned)


def canon_key(value: Any, mapping: Mapping[str, str]) -> Any:
    """Rename replicas and build a totally ordered key in one pass.

    The result is a nested tuple whose leaves are type-tagged — every two
    keys produced from same-shaped values compare under ``<`` — and whose
    unordered containers (frozensets, :class:`FrozenDict`s,
    version-vector entries) are sorted *after* renaming, so a rename
    inside them re-normalizes.  Ordered tuples keep their order (sequence
    CRDT states are semantically ordered).  The key depends only on the
    value, never on hash seeds or object identity, so keys built in
    different worker processes compare and merge exactly.

    The engine compares byte images that stand for these keys
    (:func:`_images`); ``canon_key`` is their reference, and the orbit
    oracle's key.
    """
    t = type(value)
    if t is str:
        return ("s", mapping.get(value, value))
    if t is int:
        return ("i", value)
    if t is tuple:
        return ("t", tuple([canon_key(item, mapping) for item in value]))
    if t is frozenset:
        return (
            "f",
            tuple(sorted([canon_key(item, mapping) for item in value])),
        )
    if t is Timestamp:
        return ("T", value.counter, mapping.get(value.replica, value.replica))
    if value is BOTTOM:
        return ("⊥",)
    if t is bool:
        return ("b", value)
    if t is float:
        return ("x", value)
    if value is None:
        return ("n",)
    if t is FrozenDict:
        return (
            "d",
            tuple(sorted(
                [(canon_key(k, mapping), canon_key(v, mapping))
                 for k, v in value.items()]
            )),
        )
    if t is VersionVector:
        return (
            "v",
            tuple(sorted(
                [(mapping.get(r, r), c) for r, c in value.entries]
            )),
        )
    if t is bytes:
        return ("y", value)
    if is_dataclass(value):
        # Frozen record types (e.g. Wooki's WChar): field order is part of
        # the type, so the key keeps it.
        return (
            "c",
            t.__name__,
            tuple([canon_key(getattr(value, f.name), mapping)
                   for f in fields(value)]),
        )
    # Opaque leaf: reprs in this codebase are deterministic value renders.
    return ("o", t.__name__, repr(value))


# ----------------------------------------------------------------------
# Byte images: canon_key's order, as flat bytes
# ----------------------------------------------------------------------
#
# An image is one ``bytes`` that orders and compares exactly as the
# canon_key tuple it stands for.  Every encoding below is self-delimiting
# (no image is a proper prefix of another), so comparing two
# concatenations compares their items lexicographically, and the first
# differing byte decides as the first differing tuple element would.
# Tags are canon_key's tags as bytes, in the same order ("⊥" sorts above
# every ASCII letter); _END closes a sequence and sorts below every tag,
# so a proper prefix sorts first.

_END = b"\x00"
#: Opens each version-vector entry: the entries are untagged pairs.
_ENTRY = b"\x01"
_BOTTOM_IMAGE = b"\x7f"
_NONE_IMAGE = b"n"
_BOOL_IMAGES = (b"b\x00", b"b\x01")
_DOUBLE = struct.Struct(">d")
_SIGN = 1 << 63
_ONES = (1 << 64) - 1


def _octets(data: bytes) -> bytes:
    """``data`` with NUL escaped to ``00 ff``, closed by ``00 00``."""
    return data.replace(b"\x00", b"\x00\xff") + b"\x00\x00"


def _text(text: str) -> bytes:
    """A string in code-point order: UTF-8 orders as code points do."""
    return _octets(text.encode("utf-8", "surrogatepass"))


def _integer(n: int) -> bytes:
    """An int of any size in numeric order.

    A header byte orders the sign and the byte length (0x80 + length for
    n >= 0, 0x80 - length below; 0xff and 0x00 open a 4-byte length past
    126 bytes), then the big-endian magnitude follows, complemented for
    negatives so that a larger magnitude sorts lower.
    """
    if n >= 0:
        size = (n.bit_length() + 7) >> 3
        body = n.to_bytes(size, "big")
        if size < 127:
            return bytes((0x80 + size,)) + body
        return b"\xff" + size.to_bytes(4, "big") + body
    size = ((-n).bit_length() + 7) >> 3
    body = (n + (1 << (size << 3)) - 1).to_bytes(size, "big")
    if size < 127:
        return bytes((0x80 - size,)) + body
    return b"\x00" + ((1 << 32) - 1 - size).to_bytes(4, "big") + body


def _real(x: float) -> bytes:
    """A float in numeric order (IEEE bits, sign-flipped); -0.0 and 0.0
    share an image, as they compare equal.  NaN has no order."""
    bits = int.from_bytes(_DOUBLE.pack(x + 0.0), "big")
    bits ^= _ONES if bits & _SIGN else _SIGN
    return bits.to_bytes(8, "big")


def _images(value: Any, maps: Sequence[Mapping[str, str]],
            names: AbstractSet[str],
            memo: Dict[Any, Tuple[Any, bool]]) -> Tuple[Any, bool]:
    """The byte images of ``value`` under every group element, in one
    traversal.

    Returns ``(image, True)`` when ``value`` mentions no renameable
    replica (one image, shared by every element), or ``(images, False)``
    with one image per element of ``maps``.  Each image orders and
    compares exactly as :func:`canon_key` of ``value`` under that element.
    ``memo`` caches container results by value: the same label ids, seen
    sets and timestamps recur across thousands of fingerprint parts, and
    a recurring value returns the *same* image objects.  Values equal
    under ``==`` (``(1,)`` and ``(True,)``) share the first one's images,
    as they share a slot in the raw fingerprint sets.
    """
    t = type(value)
    if t is str:
        if value in names:
            return tuple([b"s" + _text(m.get(value, value))
                          for m in maps]), False
        return b"s" + _text(value), True
    if t is int:
        return b"i" + _integer(value), True
    if t is tuple or t is frozenset or t is FrozenDict:
        hit = memo.get(value)
        if hit is not None:
            return hit
        if t is FrozenDict:
            # An entry's image is its key's image then its value's: the
            # (key, value) pairs canon_key sorts.
            subs = []
            for k, v in value.items():
                kimage, kpure = _images(k, maps, names, memo)
                vimage, vpure = _images(v, maps, names, memo)
                if kpure and vpure:
                    subs.append((kimage + vimage, True))
                else:
                    subs.append((tuple([
                        (kimage if kpure else kimage[i])
                        + (vimage if vpure else vimage[i])
                        for i in range(len(maps))
                    ]), False))
            tag = b"d"
        else:
            subs = [_images(item, maps, names, memo) for item in value]
            tag = b"t" if t is tuple else b"f"
        ordered = t is tuple
        if all([pure for _, pure in subs]):
            items = [image for image, _ in subs]
            if not ordered:
                items.sort()
            result: Tuple[Any, bool] = (tag + b"".join(items) + _END, True)
        else:
            rows = []
            for i in range(len(maps)):
                items = [image if pure else image[i] for image, pure in subs]
                if not ordered:
                    items.sort()
                rows.append(tag + b"".join(items) + _END)
            result = (tuple(rows), False)
        if len(memo) > _CACHE_LIMIT:
            memo.clear()
        memo[value] = result
        return result
    if t is Timestamp:
        head = b"T" + _integer(value.counter)
        if value.replica in names:
            return tuple([head + _text(m.get(value.replica, value.replica))
                          for m in maps]), False
        return head + _text(value.replica), True
    if value is BOTTOM:
        return _BOTTOM_IMAGE, True
    if t is bool:
        return _BOOL_IMAGES[value], True
    if t is float:
        return b"x" + _real(value), True
    if value is None:
        return _NONE_IMAGE, True
    if t is VersionVector:
        entries = value.entries
        if any(r in names for r, _ in entries):
            return tuple([
                b"v" + b"".join(sorted(
                    _ENTRY + _text(m.get(r, r)) + _integer(c)
                    for r, c in entries
                )) + _END
                for m in maps
            ]), False
        return b"v" + b"".join(sorted(
            _ENTRY + _text(r) + _integer(c) for r, c in entries
        )) + _END, True
    if t is bytes:
        return b"y" + _octets(value), True
    if is_dataclass(value):
        # Frozen record types (e.g. Wooki's WChar): the type name, then
        # the fields in declaration order.
        head = b"c" + _text(t.__name__)
        subs = [_images(getattr(value, f.name), maps, names, memo)
                for f in fields(value)]
        if all([pure for _, pure in subs]):
            return head + b"".join([image for image, _ in subs]) + _END, True
        return tuple([
            head + b"".join([image if pure else image[i]
                             for image, pure in subs]) + _END
            for i in range(len(maps))
        ]), False
    # Opaque leaf: reprs in this codebase are deterministic value renders.
    return b"o" + _text(t.__name__) + _text(repr(value)), True


def rename_transition(
    transition: Tuple, mapping: Mapping[str, str]
) -> Tuple:
    """Apply a replica permutation to an engine transition."""
    kind = transition[0]
    if kind == "inv":
        return (kind, mapping.get(transition[1], transition[1]),
                transition[2])
    if kind == "del":
        origin, seq = transition[2]
        return (kind, mapping.get(transition[1], transition[1]),
                (mapping.get(origin, origin), seq))
    return (kind, mapping.get(transition[1], transition[1]),
            mapping.get(transition[2], transition[2]))


class SymmetryReducer:
    """Maps fingerprints to the least image over a replica-permutation group.

    A fingerprint arrives split into per-replica ``parts`` (everything
    indexed by a single replica) plus a ``glob`` component (label data,
    visibility, gossip budget).  The engine converts each part into its
    *image vector* — the part's byte images (:func:`_images`) under every
    group element — exactly once when the part is (re)computed, via
    :meth:`part_fragments`; the vectors ride along with the domain's
    dirty-tracked part table.  :meth:`canonical` then renames no part:
    it gathers, under every element, the images that element moves into
    each replica slot (one precomputed ``itemgetter`` per slot) and takes
    one C-level ``min`` over the rows.  The glob decides only between
    elements tied on every slot, so its images are built lazily, per
    element and glob value: for the tied elements and the winner.  The key is the winning row plus that glob image, a small
    tuple of ``bytes``, which cache their hash.  Image vectors are
    memoized by part value, so a key holds the *same* image objects as
    every other key with that part: the visited set pays a row of
    pointers per configuration, and equal keys compare item by item on
    identity.

    :attr:`last_index` is the position in ``maps`` of the minimizing
    element of the latest :meth:`canonical` call (the first in ``maps``
    order, as a strict ``<`` scan over candidates would pick); the
    engine permutes sleep masks through that element's transition index
    table, so they are recorded and compared in the same canonical frame.
    """

    def __init__(self, replicas: Sequence[str], group: SymmetryGroup) -> None:
        self.replicas = list(replicas)
        self.group = group
        self.maps = group.maps
        order = len(self.maps)
        position = {r: i for i, r in enumerate(self.replicas)}
        inverses = [{b: a for a, b in m.items()} for m in self.maps]
        #: The replicas' image vectors, in slot order; ``canonical``
        #: concatenates them so that part ``p``'s image under element
        #: ``g`` sits at ``p * order + g``.
        self._vectors = itemgetter(*self.replicas)
        #: Per slot: under each element, the image of the part that the
        #: element moves into the slot.
        self._slot_getters = [
            itemgetter(*[
                position[inverse.get(r, r)] * order + g
                for g, inverse in enumerate(inverses)
            ])
            for r in self.replicas
        ]
        #: Replicas moved by at least one group element — values mentioning
        #: none of them have one image under every element.
        self._names: set = set()
        for mapping in self.maps:
            self._names.update(mapping)
        #: Container images shared by every part and glob (see _images).
        self._memo: Dict[Any, Tuple[Any, bool]] = {}
        #: Glob value -> its image under each element, None until needed.
        self._glob_images: Dict[Any, List[Any]] = {}
        self.last_index = 0

    @property
    def last_map(self) -> Dict[str, str]:
        """The minimizing element of the latest :meth:`canonical` call."""
        return self.maps[self.last_index]

    def part_fragments(self, part: Tuple) -> Tuple:
        """``part``'s byte images, one per group element."""
        images, pure = _images(part, self.maps, self._names, self._memo)
        return (images,) * len(self.maps) if pure else images

    def canonical(
        self, part_frags: Mapping[str, Tuple], glob: Tuple
    ) -> Tuple[bytes, ...]:
        """The least image over the group; sets :attr:`last_index`."""
        flat = sum(self._vectors(part_frags), ())
        rows = list(zip(*[get(flat) for get in self._slot_getters]))
        best = min(rows)
        index = rows.index(best)
        images = self._glob_images.get(glob)
        if images is None:
            if len(self._glob_images) > _CACHE_LIMIT:
                self._glob_images.clear()
            images = self._glob_images[glob] = [None] * len(rows)
        if rows.count(best) > 1:
            # Tied on every slot: the glob decides, imaged only under the
            # tied elements; min keeps the first of equal ones.
            index = min(
                [g for g in range(index, len(rows)) if rows[g] == best],
                key=lambda g: self._glob_image(glob, images, g),
            )
        self.last_index = index
        return best + (self._glob_image(glob, images, index),)

    def _glob_image(self, glob: Tuple, images: List[Any], index: int) -> bytes:
        """The image of the glob tuple under ``maps[index]``, memoized in
        ``images``.

        Each set component (label data, visibility) is assembled for this
        element only; its items' images, like any other component's, come
        from the shared all-element memo.
        """
        image = images[index]
        if image is None:
            maps, names, memo = self.maps, self._names, self._memo
            parts = []
            for component in glob:
                if type(component) is frozenset:
                    # Set members are containers: most are memo hits.
                    items = sorted([
                        sub if pure else sub[index]
                        for sub, pure in [
                            memo.get(item) or _images(item, maps, names, memo)
                            for item in component
                        ]
                    ])
                    parts.append(b"f" + b"".join(items) + _END)
                else:
                    sub, pure = _images(component, maps, names, memo)
                    parts.append(sub if pure else sub[index])
            image = images[index] = b"t" + b"".join(parts) + _END
        return image
