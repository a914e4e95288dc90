"""Seeded scope generation for the benchmark workloads.

A *scope* is one verdict request: a registry entry (or a mutant, or a
multi-object store) plus one program per replica.  Every workload has a
fixed shape (replica count and program lengths); the seed only chooses
which operations fill it.  Each entry has an always-valid alphabet:

* counters draw ``inc``/``dec``; registers, sets and G-Set draw values
  from a small pool, so concurrent operations collide on purpose;
* RGA, RGA-addAt, Wooki and both 2P-Sets add *fresh* element names
  (disjoint per replica) and only remove or anchor on elements their own
  replica added earlier, so no precondition can fail whatever the
  interleaving.

Each workload's candidates are enumerated (:func:`universe`), and a seed
picks from them.  That keeps the universe finite, so ``reference.json``
can hold an oracle verdict and configuration count for every scope any
seed can produce.
"""

import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.sentinels import BEGIN, END, ROOT
from repro.proofs import entry_by_name, standard_programs
from repro.proofs.mutants import mutant_catalogue

Op = Tuple
Programs = Dict[str, Tuple[Op, ...]]

READ: Op = ("read", ())

#: Every registry entry, in catalogue order of kinds: op-based then
#: state-based.
REGISTRY = (
    "Counter", "LWW-Register", "OR-Set", "RGA", "Wooki", "2P-Set (op)",
    "RGA-addAt",
    "PN-Counter", "Multi-Value Reg.", "LWW-Element Set", "2P-Set",
    "LWW-Register (SB)", "G-Counter", "G-Set",
)

#: Entries whose update alphabet adds fresh element names.
FRESH = {"RGA", "Wooki", "2P-Set (op)", "2P-Set", "RGA-addAt"}

#: Value pools for the colliding alphabets.
VALUES = {
    "Counter": (), "PN-Counter": (), "G-Counter": (),
    "LWW-Register": ("a", "b"), "LWW-Register (SB)": ("a", "b"),
    "Multi-Value Reg.": ("a", "b"),
    "OR-Set": ("a", "b"), "LWW-Element Set": ("a", "b"),
    "G-Set": ("a", "b", "c"),
}

#: Program patterns of length two: ``U`` an update, ``Q`` a query.
#: Every pattern has at least one update.
PATTERNS = ("UU", "UQ", "QU")

#: The ⊗ts store of registry_2r and the entries its objects project to.
STORE_SPEC = "counter:1,orset:1"
STORE_OBJECTS = (("counter", "Counter"), ("or_set", "OR-Set"))


@dataclass(frozen=True)
class Scope:
    """One verdict request.

    ``kind`` is ``"entry"`` (a registry entry), ``"mutant"`` (``name`` is
    a :func:`mutant_catalogue` name) or ``"store"`` (``name`` is a store
    spec; ``programs`` carry ``(method, args, object)`` triples).
    """

    kind: str
    name: str
    programs: Programs

    @property
    def key(self) -> str:
        """Stable text identifying the scope in ``reference.json``."""
        return scope_key(self.kind, self.name, self.programs)


def scope_key(kind: str, name: str, programs: Programs) -> str:
    body = {replica: [list(op) for op in ops]
            for replica, ops in sorted(programs.items())}
    return f"{kind}:{name}:" + json.dumps(body, separators=(",", ":"),
                                          ensure_ascii=False)


# ----------------------------------------------------------------------
# Per-entry alphabets
# ----------------------------------------------------------------------


def _fresh_names(replica_index: int) -> Tuple[str, str]:
    """Two element names no other replica uses."""
    base = 2 * replica_index
    return (chr(ord("a") + base), chr(ord("a") + base + 1))


def _plain_updates(entry: str) -> List[Op]:
    if entry in ("Counter", "PN-Counter"):
        return [("inc", ()), ("dec", ())]
    if entry == "G-Counter":
        return [("inc", ())]
    values = VALUES[entry]
    if entry in ("LWW-Register", "LWW-Register (SB)", "Multi-Value Reg."):
        return [("write", (v,)) for v in values]
    if entry in ("OR-Set", "LWW-Element Set"):
        return ([("add", (v,)) for v in values]
                + [("remove", (v,)) for v in values])
    if entry == "G-Set":
        return [("add", (v,)) for v in values]
    raise KeyError(entry)


def _add(entry: str, name: str, anchor: Optional[str], index: int) -> Op:
    """The fresh-name insertion of ``entry``; ``anchor`` is an element of
    the same replica (or None for the sequence head)."""
    if entry in ("2P-Set (op)", "2P-Set"):
        return ("add", (name,))
    if entry == "RGA":
        return ("addAfter", (anchor if anchor is not None else ROOT, name))
    if entry == "RGA-addAt":
        return ("addAt", (name, index))
    if entry == "Wooki":
        return ("addBetween",
                (anchor if anchor is not None else BEGIN, name, END))
    raise KeyError(entry)


def _fresh_programs(entry: str, pattern: str, replica_index: int
                    ) -> List[Tuple[Op, ...]]:
    first, second = _fresh_names(replica_index)
    heads = [None, first] if entry in ("RGA", "Wooki") else [None]
    indexes = (0, 1) if entry == "RGA-addAt" else (0,)
    if pattern == "UQ":
        return [(_add(entry, first, None, i), READ) for i in indexes]
    if pattern == "QU":
        return [(READ, _add(entry, first, None, i)) for i in indexes]
    programs = []
    for i in indexes:
        add_first = _add(entry, first, None, i)
        programs.append((add_first, ("remove", (first,))))
        for anchor in heads:
            for j in indexes:
                programs.append((add_first, _add(entry, second, anchor, j)))
    return programs


def entry_programs(entry: str, pattern: str, replica_index: int
                   ) -> List[Tuple[Op, ...]]:
    """Every program of ``pattern`` one replica of ``entry`` may run."""
    if entry in FRESH:
        return _fresh_programs(entry, pattern, replica_index)
    updates = _plain_updates(entry)
    if pattern == "UU":
        return [(u, v) for u in updates for v in updates]
    if pattern == "UQ":
        return [(u, READ) for u in updates]
    if pattern == "QU":
        return [(READ, u) for u in updates]
    raise KeyError(pattern)


# ----------------------------------------------------------------------
# Workload universes and seeded draws
# ----------------------------------------------------------------------


def _replicas(count: int) -> List[str]:
    return [f"r{i}" for i in range(1, count + 1)]


def registry_cells(entry: str) -> List[List[Programs]]:
    """registry_2r's strata for one entry: one list of candidate scopes
    per (r1 pattern, r2 pattern) pair.

    A cell keeps only scopes whose two replicas run different programs,
    unless it has no such scope.  Symmetry folds a scope with identical
    programs to about half the configurations, so a draw between the two
    kinds would let the seed set the cost.  Every candidate of a cell
    has the same reference configuration count.
    """
    cells = []
    for p1, p2 in itertools.product(PATTERNS, PATTERNS):
        cell = [
            {"r1": a, "r2": b}
            for a in entry_programs(entry, p1, 0)
            for b in entry_programs(entry, p2, 1)
        ]
        cells.append([p for p in cell if p["r1"] != p["r2"]] or cell)
    return cells


def sym_candidates(entry: str) -> List[Programs]:
    """sym_3r's candidates for one entry: one update then a read,
    identical on r1-r3."""
    updates = [u for u in _plain_updates(entry) if u[0] != "remove"]
    return [{r: (u, READ) for r in _replicas(3)} for u in updates]


SYM_ENTRIES = ("Counter", "OR-Set", "G-Counter", "G-Set")

#: Element names of the skewed 4-replica OR-Set scopes.
SKEW_VALUES = ("a", "b", "c")


def skew_candidates() -> List[Programs]:
    """skew_4r_spill's candidates: r1 adds and removes ``v``, r2 and r3
    add ``v``, r4 adds another element ``w``.  All are renamings of one
    scope whose unique fingerprints outgrow the store's hot tier."""
    return [
        {"r1": (("add", (v,)), ("remove", (v,))), "r2": (("add", (v,)),),
         "r3": (("add", (v,)),), "r4": (("add", (w,)),)}
        for v, w in itertools.permutations(SKEW_VALUES, 2)
    ]


def mutant_scopes() -> List[Scope]:
    """The mutant catalogue on each base entry's standard programs."""
    return [
        Scope("mutant", name, freeze(standard_programs(entry_by_name(base))))
        for name, _make, base in mutant_catalogue()
    ]


def store_scope(counter: Programs, orset: Programs) -> Scope:
    """The ⊗ts store ``counter:1,orset:1`` over two per-object programs."""
    programs = {}
    for replica in sorted(set(counter) | set(orset)):
        programs[replica] = tuple(
            (op[0], op[1], obj)
            for obj, per_object in (("counter", counter), ("or_set", orset))
            for op in per_object.get(replica, ())
        )
    return Scope("store", STORE_SPEC, programs)


def project(scope: Scope, obj: str) -> Programs:
    """One object's programs of a store scope, as plain 2-tuples."""
    return {
        replica: tuple((op[0], op[1]) for op in ops if op[2] == obj)
        for replica, ops in scope.programs.items()
    }


def freeze(programs) -> Programs:
    return {replica: tuple(tuple(op) for op in ops)
            for replica, ops in programs.items()}


def generate(workload: str, seed: int) -> List[Scope]:
    """The scopes of ``workload`` for ``seed`` (same seed, same scopes)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "registry_2r":
        scopes = [
            Scope("entry", entry, rng.choice(cell))
            for entry in REGISTRY for cell in registry_cells(entry)
        ]
        scopes.extend(mutant_scopes())
        counter = rng.choice(rng.choice(registry_cells("Counter")))
        orset = rng.choice(rng.choice(registry_cells("OR-Set")))
        scopes.append(store_scope(counter, orset))
        return scopes
    if workload in ("sym_3r", "sym_3r_jobs2"):
        # Both workloads draw from the same stream, so one seed gives
        # them identical scopes.
        rng = random.Random(f"sym_3r:{seed}")
        return [Scope("entry", entry, rng.choice(sym_candidates(entry)))
                for entry in SYM_ENTRIES]
    if workload == "skew_4r_spill":
        return [Scope("entry", "OR-Set", rng.choice(skew_candidates()))]
    raise KeyError(workload)


def universe(workload: str) -> List[Scope]:
    """Every scope any seed of ``workload`` can produce, store scopes
    excepted (their reference is the sum of their projections')."""
    if workload == "registry_2r":
        scopes = [
            Scope("entry", entry, programs)
            for entry in REGISTRY for cell in registry_cells(entry)
            for programs in cell
        ]
        return scopes + mutant_scopes()
    if workload in ("sym_3r", "sym_3r_jobs2"):
        return [Scope("entry", entry, programs)
                for entry in SYM_ENTRIES
                for programs in sym_candidates(entry)]
    if workload == "skew_4r_spill":
        return [Scope("entry", "OR-Set", p) for p in skew_candidates()]
    raise KeyError(workload)


def shape(scopes: Sequence[Scope]) -> List[Tuple[str, str, Tuple[int, ...]]]:
    """Kind, name and per-replica program lengths: what a seed keeps."""
    return [
        (s.kind, s.name,
         tuple(len(ops) for _, ops in sorted(s.programs.items())))
        for s in scopes
    ]
