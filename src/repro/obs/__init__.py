"""Observability: structured metrics, span tracing, run instrumentation.

The instrumentation substrate of the verification pipeline (see
``docs/observability.md``):

* :mod:`repro.obs.metrics` — process-local counters/gauges/histograms
  with plain-JSON snapshots and a deterministic merge, so parallel
  workers' metrics union exactly like their fingerprint sets.
* :mod:`repro.obs.tracing` — a lightweight span API (wall + CPU time)
  and a JSONL event exporter.
* :mod:`repro.obs.instrument` — the single :class:`Instrumentation`
  handle threaded through the pipeline, no-op by default.
* :mod:`repro.obs.journal` — bounded structured lifecycle journal with
  a deterministic cross-worker merge (``--journal``).
* :mod:`repro.obs.heartbeat` / :mod:`repro.obs.progress` — per-worker
  liveness records and the parent-side live status renderer with stall
  detection (``--progress``).
* :mod:`repro.obs.profile` — phase-attribution timers behind the
  engine's hot loop (``repro stats --phases``).

This package is a leaf: it imports nothing from the rest of ``repro``,
so any layer (core, runtime, proofs, CLI) may depend on it.
"""

from .heartbeat import HEARTBEAT_SCHEMA, HeartbeatEmitter
from .instrument import (
    ARTIFACT_SCHEMA,
    Instrumentation,
    NULL_INSTRUMENTATION,
    read_artifact,
    write_artifact,
)
from .journal import JOURNAL_SCHEMA, Journal, read_journal
from .metrics import (
    DEFAULT_BUCKETS,
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    deterministic_totals,
    instrument_key,
    merge_snapshots,
)
from .profile import PHASES, PhaseProfiler, phase_totals
from .progress import ProgressMonitor
from .tracing import TRACE_SCHEMA, Span, Tracer

__all__ = [
    "ARTIFACT_SCHEMA",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "HEARTBEAT_SCHEMA",
    "HeartbeatEmitter",
    "Histogram",
    "Instrumentation",
    "JOURNAL_SCHEMA",
    "Journal",
    "MetricsRegistry",
    "NULL_INSTRUMENTATION",
    "PHASES",
    "PhaseProfiler",
    "ProgressMonitor",
    "SNAPSHOT_SCHEMA",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "deterministic_totals",
    "instrument_key",
    "merge_snapshots",
    "phase_totals",
    "read_artifact",
    "read_journal",
    "write_artifact",
]
