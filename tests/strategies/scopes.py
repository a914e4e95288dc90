"""Hypothesis strategies for exploration scopes.

A scope is a registry entry plus one straight-line program per replica.
Programs come from always-valid alphabets, the rules the benchmark's
scope generator follows (``perfbench/scopes.py``):

* counters draw ``inc``/``dec``; registers, sets and G-Set draw values
  from a small pool, so concurrent operations collide on purpose;
* RGA, RGA-addAt, Wooki and both 2P-Sets add *fresh* element names
  (disjoint per replica) and only remove or anchor on elements their own
  replica added earlier, so no precondition can fail whatever the
  interleaving.

Every replica runs one or two operations, at least one of them an
update.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import strategies as st

from repro.core.sentinels import BEGIN, END, ROOT
from repro.proofs.registry import ALL_ENTRIES, CRDTEntry

Op = Tuple
Programs = Dict[str, List[Op]]

READ: Op = ("read", ())

#: Entries whose update alphabet adds fresh element names.
FRESH = {"RGA", "Wooki", "2P-Set (op)", "2P-Set", "RGA-addAt"}

#: Value pools of the colliding alphabets.
VALUES = {
    "LWW-Register": ("a", "b"), "LWW-Register (SB)": ("a", "b"),
    "Multi-Value Reg.": ("a", "b"),
    "OR-Set": ("a", "b"), "LWW-Element Set": ("a", "b"),
    "G-Set": ("a", "b", "c"),
}


def _plain_updates(entry: str) -> List[Op]:
    if entry in ("Counter", "PN-Counter"):
        return [("inc", ()), ("dec", ())]
    if entry == "G-Counter":
        return [("inc", ())]
    values = VALUES[entry]
    if entry in ("OR-Set", "LWW-Element Set"):
        return ([("add", (v,)) for v in values]
                + [("remove", (v,)) for v in values])
    if entry == "G-Set":
        return [("add", (v,)) for v in values]
    return [("write", (v,)) for v in values]


def _add(entry: str, name: str, anchor: Optional[str], index: int) -> Op:
    """``entry``'s fresh-name insertion; ``anchor`` is an element the
    same replica added earlier, or None for the sequence head."""
    if entry in ("2P-Set (op)", "2P-Set"):
        return ("add", (name,))
    if entry == "RGA":
        return ("addAfter", (anchor if anchor is not None else ROOT, name))
    if entry == "RGA-addAt":
        return ("addAt", (name, index))
    return ("addBetween", (anchor if anchor is not None else BEGIN, name,
                           END))


def _fresh_programs(entry: str, replica_index: int) -> List[List[Op]]:
    first = chr(ord("a") + 2 * replica_index)
    second = chr(ord("a") + 2 * replica_index + 1)
    indexes = (0, 1) if entry == "RGA-addAt" else (0,)
    anchors = (None, first) if entry in ("RGA", "Wooki") else (None,)
    programs: List[List[Op]] = []
    for i in indexes:
        add_first = _add(entry, first, None, i)
        programs += [[add_first], [add_first, READ], [READ, add_first],
                     [add_first, ("remove", (first,))]]
        programs += [[add_first, _add(entry, second, anchor, j)]
                     for anchor in anchors for j in indexes]
    return programs


def replica_programs(entry: str, replica_index: int) -> List[List[Op]]:
    """Every one- or two-operation program a replica of ``entry`` may
    run (at least one update)."""
    if entry in FRESH:
        return _fresh_programs(entry, replica_index)
    updates = _plain_updates(entry)
    return ([[u] for u in updates]
            + [[u, v] for u in updates for v in updates]
            + [[u, READ] for u in updates]
            + [[READ, u] for u in updates])


@st.composite
def scopes(draw, replicas: Tuple[int, ...] = (2, 3),
           max_ops: int = 4) -> Tuple[CRDTEntry, Programs]:
    """``(entry, programs)``: a registry entry over 2–3 replicas whose
    programs hold at most ``max_ops`` operations in total."""
    entry = draw(st.sampled_from(ALL_ENTRIES))
    count = draw(st.sampled_from(replicas))
    programs: Programs = {}
    budget = max_ops
    for index in range(count):
        # Leave one operation for each replica still to draw.
        room = budget - (count - index - 1)
        candidates = [p for p in replica_programs(entry.name, index)
                      if len(p) <= room]
        program = draw(st.sampled_from(candidates))
        programs[f"r{index + 1}"] = program
        budget -= len(program)
    return entry, programs
