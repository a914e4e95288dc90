"""Phase-attribution profiler for the exploration engine.

``span.seconds`` (tracing) answers "how long did this scope take"; the
phase profiler answers "*where inside the engine* did that time go" —
snapshot/restore work, happens-before maintenance, commutativity
probes, spec replay + RA check, fingerprint/canonicalization — without
a sampling profiler and without touching the hot loop when disabled
(the engine holds ``profile = None`` and the DFS pays one attribute
check, the ``NULL_INSTRUMENTATION`` pattern).

A :class:`PhaseProfiler` is two plain dicts (``seconds`` and ``counts``
per phase) fed by :meth:`add`.  The engine routes its domain calls
through a timing proxy when a profiler is attached; the checker times
its check/convergence work explicitly.  :class:`Instrumentation` folds
the dicts into ``profile.seconds{phase=}`` / ``profile.regions{phase=}``
work counters at payload/artifact time, so cross-worker merging and the
artifact round trip come for free from the metrics layer, and
``repro stats --phases`` renders the result.

Phase totals are **work metrics**: they measure machinery cost and vary
with load, so they never enter ``deterministic_totals``.
"""

import time
from typing import Dict, Optional, Tuple

#: The engine phases, in rendering order.  ``(other)`` is not a phase —
#: the renderer derives it as engine wall minus the attributed sum.
PHASES: Tuple[str, ...] = (
    "snapshot",    # copy-on-write push of the configuration
    "restore",     # pop back to the parent configuration
    "apply",       # executing one transition against the domain
    "hb",          # happens-before vector maintenance (op-based source-DPOR)
    "race",        # race reversal planning + wakeup-tree maintenance
    "commute",     # commutativity/independence probes (sleep sets)
    "fingerprint", # configuration fingerprint + orbit canonicalization
    "check",       # spec replay + RA-linearizability check (Def. 3.5)
    "convergence", # strong-convergence oracle on quiescent configs
)


class PhaseProfiler:
    """Accumulates wall seconds and region counts per phase name."""

    __slots__ = ("seconds", "counts")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def __bool__(self) -> bool:
        return bool(self.counts)

    def add(self, phase: str, seconds: float, regions: int = 1) -> None:
        """Attribute ``seconds`` of wall time to ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + regions

    def phase(self, name: str) -> "_Region":
        """A context manager for coarse (non-hot-loop) regions."""
        return _Region(self, name)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}

    def merge(self, other: "PhaseProfiler") -> None:
        for phase, seconds in other.seconds.items():
            self.add(phase, seconds, other.counts.get(phase, 0))

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()

    def total(self) -> float:
        return sum(self.seconds.values())


class _Region:
    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: PhaseProfiler, name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Region":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler.add(self._name, time.perf_counter() - self._start)


def phase_totals(instruments: Dict[str, dict]) -> Dict[str, float]:
    """Extract ``profile.seconds`` per-phase totals from a snapshot's
    instruments dict (as folded by ``Instrumentation``)."""
    totals: Dict[str, float] = {}
    for dumped in instruments.values():
        if dumped.get("name") != "profile.seconds":
            continue
        phase = dumped.get("labels", {}).get("phase")
        if phase is None:
            continue
        totals[phase] = totals.get(phase, 0.0) + (dumped.get("value") or 0.0)
    return totals


def maybe_profiler(instrumentation) -> Optional[PhaseProfiler]:
    """The handle's profiler, or None for disabled handles."""
    return getattr(instrumentation, "profile", None)


__all__ = [
    "PHASES",
    "PhaseProfiler",
    "maybe_profiler",
    "phase_totals",
]
