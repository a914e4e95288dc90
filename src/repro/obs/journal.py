"""Bounded structured lifecycle journal.

Metrics (:mod:`repro.obs.metrics`) answer "how much happened"; the
journal answers "what happened, and when".  It records discrete
lifecycle events — scope start/end, pool task claims,
spill-tier promotions, DPOR race reversals, budget exhaustion, chaos
crashes and replays — as plain dicts with a **deterministic field
order**: every event starts ``wall, worker, seq, kind`` and then its
extra fields in sorted order, so two dumps of the same run are
byte-identical and diffs stay readable.

The journal is bounded (drop-oldest, with a ``dropped`` counter) so a
week-long soak cannot exhaust memory, and it merges across workers the
same way metrics snapshots do: each worker ships its events in
:meth:`payload`, the coordinator :meth:`absorb`-s them, and
:meth:`merged` orders the union by ``(wall, worker, seq)`` — a total
order that does not depend on which worker's payload arrived first.

Journal events are **work artifacts**: wall times and worker ids vary
run to run, so nothing here participates in ``deterministic_totals``.
"""

import json
import os
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Mapping, Optional

#: Journal dump schema identifier (the ``--journal`` file layout).
JOURNAL_SCHEMA = "repro.journal/1"

#: Default event bound per journal (drop-oldest beyond this).
DEFAULT_LIMIT = 4096

#: The lifecycle event kinds the pipeline emits (informative, not
#: enforced — domains may add their own under a dotted prefix).
EVENT_KINDS = (
    "scope.start",
    "scope.end",
    "steal.claim",
    "spill.promote",
    "dpor.reversal",
    "search.capped",
    "chaos.crash",
    "chaos.replay",
)


class Journal:
    """One process's bounded event log.

    ``worker`` names the emitting process in merged output; it defaults
    to ``pid<os.getpid()>`` so coordinator and workers are always
    distinguishable even when the caller does not label them.
    """

    __slots__ = ("worker", "limit", "dropped", "_seq", "_events")

    def __init__(self, worker: Optional[str] = None,
                 limit: int = DEFAULT_LIMIT) -> None:
        if limit <= 0:
            raise ValueError("journal limit must be positive")
        self.worker = worker if worker is not None else f"pid{os.getpid()}"
        self.limit = limit
        self.dropped = 0
        self._seq = 0
        self._events: deque = deque()

    def __len__(self) -> int:
        return len(self._events)

    def record(self, kind: str, /, **fields: Any) -> Dict[str, Any]:
        """Append one event; extra fields land in sorted order.

        ``kind`` is positional-only so a field may also be named
        ``kind`` — it would silently collide with the event's own kind
        slot, so :meth:`_append` rejects it.
        """
        if "kind" in fields or "wall" in fields or "seq" in fields:
            raise ValueError("kind/wall/seq are reserved event fields")
        self._seq += 1
        event: Dict[str, Any] = {
            "wall": time.time(),
            "worker": self.worker,
            "seq": self._seq,
            "kind": kind,
        }
        for key in sorted(fields):
            event[key] = fields[key]
        self._append(event)
        return event

    def _append(self, event: Mapping[str, Any]) -> None:
        if len(self._events) >= self.limit:
            self._events.popleft()
            self.dropped += 1
        self._events.append(dict(event))

    # -- cross-process protocol ----------------------------------------

    def payload(self) -> Dict[str, Any]:
        """What a worker ships back through the pool pipe."""
        return {
            "worker": self.worker,
            "dropped": self.dropped,
            "events": self.events(),
        }

    def absorb(self, payload: Optional[Mapping[str, Any]]) -> None:
        """Merge one worker's :meth:`payload` into this journal."""
        if payload is None:
            return
        self.dropped += payload.get("dropped", 0)
        for event in payload.get("events", ()):
            self._append(event)

    def events(self) -> List[Dict[str, Any]]:
        """The buffered events in insertion order."""
        return [dict(event) for event in self._events]

    def merged(self) -> List[Dict[str, Any]]:
        """Events in the canonical cross-worker order.

        Keyed ``(wall, worker, seq)``: wall clock first (the only clock
        comparable across processes), worker name to break simultaneous
        ties deterministically, per-worker sequence number last.
        """
        return sorted(
            self.events(),
            key=lambda e: (e.get("wall", 0.0), str(e.get("worker", "")),
                           e.get("seq", 0)),
        )

    # -- dump -----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the merged journal as JSON Lines with a schema header."""
        events = self.merged()
        header = {
            "schema": JOURNAL_SCHEMA,
            "events": len(events),
            "dropped": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for event in events:
                # No sort_keys: the canonical insertion order
                # (wall, worker, seq, kind, sorted extras) is the format.
                handle.write(json.dumps(event) + "\n")


def read_journal(path: str) -> Dict[str, Any]:
    """Load a :meth:`Journal.dump` file back into header + events."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    if not lines or lines[0].get("schema") != JOURNAL_SCHEMA:
        raise ValueError(f"{path}: not a repro journal dump")
    return {"header": lines[0], "events": lines[1:]}


def merge_journals(journals: Iterable[Journal]) -> List[Dict[str, Any]]:
    """Order the union of several journals' events canonically."""
    merged = Journal(worker="merge", limit=10 ** 9)
    for journal in journals:
        merged.absorb(journal.payload())
    return merged.merged()


__all__ = [
    "DEFAULT_LIMIT",
    "EVENT_KINDS",
    "JOURNAL_SCHEMA",
    "Journal",
    "merge_journals",
    "read_journal",
]
