"""The single instrumentation handle threaded through the pipeline.

Every layer of the verification stack — the exploration engine, the
exhaustive checkers, the parallel fan-out, the CLI — takes one optional
:class:`Instrumentation` object instead of separate metrics/tracing
arguments.  The default is :data:`NULL_INSTRUMENTATION`, whose ``enabled``
flag is False: hot paths pay one attribute check (``if ins.enabled:``)
and spans degrade to a reusable no-op context manager, so the disabled
overhead on ``make bench-explore`` is unmeasurable (see
``docs/observability.md`` for the measurement procedure).

The handle also owns the cross-process protocol: a worker process builds
its own enabled handle, runs, and ships :meth:`worker_payload` (metrics
snapshot + trace events) back through the pool pipe; the coordinator
:meth:`absorb_worker`-s each payload.  Deterministic counters — the ones
a serial run and a ``--jobs N`` run must agree on — are recorded exactly
once per scope by whichever layer owns the *final* merged result (see
:meth:`record_result` and :mod:`repro.proofs.parallel`).
"""

import json
import os
import time
from typing import Any, Dict, Mapping, Optional

from .journal import Journal
from .metrics import MetricsRegistry, deterministic_totals, instrument_key
from .profile import PhaseProfiler
from .tracing import Span, Tracer

#: Artifact schema identifier (the ``--metrics`` file layout).
ARTIFACT_SCHEMA = "repro.metrics.artifact/1"


class _NullSpan:
    """Reusable no-op span for disabled instrumentation."""

    __slots__ = ()
    wall = 0.0
    cpu = 0.0

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _MetricSpan(Span):
    """A tracer span that also feeds the ``span.seconds`` histogram."""

    __slots__ = ("_registry",)

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any],
                 registry: MetricsRegistry) -> None:
        super().__init__(tracer, name, attrs)
        self._registry = registry

    def __exit__(self, exc_type, exc, tb) -> None:
        super().__exit__(exc_type, exc, tb)
        # Label key is ``span`` (not ``name``): label kwargs must not
        # collide with the registry methods' positional parameters.
        self._registry.histogram("span.seconds", span=self.name).observe(
            self.wall
        )


class Instrumentation:
    """Metrics + tracing behind one on/off switch.

    ``trace_checks=True`` additionally emits one trace event per explored
    configuration's check verdict (the per-execution event stream of the
    JSONL exporter) — off by default because exhaustive runs visit
    thousands of configurations.
    """

    __slots__ = ("metrics", "tracer", "trace_checks", "enabled", "journal",
                 "profile")

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 trace_checks: bool = False,
                 journal: Optional[Journal] = None,
                 profile: Optional[PhaseProfiler] = None) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.trace_checks = trace_checks and tracer is not None
        self.journal = journal
        self.profile = profile
        self.enabled = (
            metrics is not None or tracer is not None or journal is not None
        )

    @classmethod
    def on(cls, trace_path: Optional[str] = None,
           trace_checks: bool = False,
           journal: Optional[Journal] = None,
           profile: Optional[PhaseProfiler] = None) -> "Instrumentation":
        """A fully enabled handle (fresh registry + tracer + journal +
        phase profiler — the observatory is on whenever metrics are)."""
        return cls(
            MetricsRegistry(), Tracer(trace_path), trace_checks,
            journal=journal if journal is not None else Journal(),
            profile=profile if profile is not None else PhaseProfiler(),
        )

    # -- spans ----------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A timing context manager; no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        if self.tracer is None:
            tracer = Tracer()  # metrics-only handle: keep the histogram
            return _MetricSpan(tracer, name, attrs, self.metrics)
        if self.metrics is None:
            return self.tracer.span(name, **attrs)
        return _MetricSpan(self.tracer, name, attrs, self.metrics)

    def event(self, type_: str, **attrs: Any) -> None:
        if self.tracer is not None:
            self.tracer.event(type_, **attrs)

    def journal_event(self, kind: str, /, **fields: Any) -> None:
        """Record one lifecycle event; no-op without a journal."""
        if self.journal is not None:
            self.journal.record(kind, **fields)

    def _fold_profile(self) -> None:
        """Fold accumulated phase timings into ``profile.*`` work
        counters (then reset, so repeated folds never double-count).

        Riding on the metrics layer buys the cross-worker merge and the
        artifact round trip without a second protocol.
        """
        profile = self.profile
        if profile is None or self.metrics is None or not profile:
            return
        m = self.metrics
        for phase, seconds in profile.seconds.items():
            m.counter("profile.seconds", phase=phase).inc(seconds)
            m.counter("profile.regions", phase=phase).inc(
                profile.counts.get(phase, 0)
            )
        profile.reset()

    # -- pipeline recording hooks --------------------------------------

    def record_explore(self, stats: Any, kind: str) -> None:
        """Fold one exploration run's :class:`ExploreStats` into metrics.

        All ``explore.*`` instruments are *work* metrics: frontier-split
        workers re-expand subtree-shared states, so their totals may
        exceed a serial run's.
        """
        if self.metrics is None:
            return
        m = self.metrics
        labels = {"kind": kind}
        m.counter("explore.runs", **labels).inc()
        m.counter("explore.configurations", **labels).inc(
            stats.configurations
        )
        m.counter("explore.states_visited", **labels).inc(
            stats.states_visited
        )
        m.counter("explore.states_deduped", **labels).inc(
            stats.states_deduped
        )
        m.counter("explore.branches_pruned", **labels).inc(
            stats.branches_pruned
        )
        m.counter("explore.commute_checks", **labels).inc(
            stats.commute_checks
        )
        m.counter("explore.snapshots", **labels).inc(stats.snapshots)
        m.counter("explore.deepcopies", **labels).inc(stats.deepcopies)
        m.counter("explore.wall_seconds", **labels).inc(stats.wall_time)
        m.gauge("explore.peak_frontier", policy="max", **labels).set(
            stats.peak_frontier
        )
        m.gauge("explore.symmetry.group", policy="max", **labels).set(
            stats.symmetry_group
        )
        m.gauge("explore.symmetry.pinned", policy="max", **labels).set(
            stats.pinned_replicas
        )
        m.gauge("explore.state_fp_cache", policy="max", **labels).set(
            stats.state_fp_cache_peak
        )
        if stats.capped:
            m.counter("explore.capped", **labels).inc()
        if stats.dpor_races:
            m.counter("explore.dpor.races", **labels).inc(stats.dpor_races)
        if stats.dpor_redundant_avoided:
            m.counter("explore.dpor.redundant_avoided", **labels).inc(
                stats.dpor_redundant_avoided
            )
        if stats.dpor_full_expansions:
            m.counter("explore.dpor.full_expansions", **labels).inc(
                stats.dpor_full_expansions
            )
        if stats.dpor_wakeup_branches:
            m.counter("explore.dpor.wakeup_branches", **labels).inc(
                stats.dpor_wakeup_branches
            )
        if stats.dpor_patch_cuts:
            m.counter("explore.dpor.patch_cuts", **labels).inc(
                stats.dpor_patch_cuts
            )
        if stats.pstate_copied:
            m.counter("explore.pstate.nodes_copied", **labels).inc(
                stats.pstate_copied
            )
        if stats.pstate_shared:
            m.counter("explore.pstate.nodes_shared", **labels).inc(
                stats.pstate_shared
            )

    def record_steal(self, stats: Any) -> None:
        """Record one frontier-split pool run's scheduler counters.

        All ``explore.steal.*`` instruments are *work* metrics: the
        frontier depth follows the worker count, and which worker ran
        which task follows timing, so totals differ between pool sizes
        and runs even though the merged verification result does not.
        """
        if self.metrics is None:
            return
        m = self.metrics
        m.gauge("explore.steal.workers", policy="max").set(stats.workers)
        m.counter("explore.steal.tasks").inc(stats.tasks)
        m.gauge("explore.steal.frontier_depth", policy="max").set(
            stats.frontier_depth
        )
        m.counter("explore.steal.idle_seconds").inc(stats.idle_seconds)
        m.counter("explore.steal.wall_seconds").inc(stats.wall_time)

    def record_fp_store(self, stats: Any,
                        entry: Optional[str] = None) -> None:
        """Record one :class:`FingerprintStore`'s counters (work metrics)."""
        if self.metrics is None:
            return
        m = self.metrics
        labels = {"entry": entry} if entry is not None else {}
        m.counter("explore.fp_store.lookups", **labels).inc(stats.lookups)
        m.counter("explore.fp_store.hits", **labels).inc(stats.hits)
        m.counter("explore.fp_store.unique", **labels).inc(stats.unique)
        m.counter("explore.fp_store.evictions", **labels).inc(
            stats.evictions
        )
        m.counter("explore.fp_store.spilled", **labels).inc(stats.spilled)

    def record_check(self, stats: Any, entry: Optional[str] = None) -> None:
        """Fold one :class:`RACheckContext`'s :class:`CheckStats` in."""
        if self.metrics is None:
            return
        m = self.metrics
        labels = {"entry": entry} if entry is not None else {}
        m.counter("check.checks", **labels).inc(stats.checks)
        m.counter("check.verdict_hits", **labels).inc(stats.verdict_hits)
        m.counter("check.unkeyed", **labels).inc(stats.unkeyed)
        m.counter("check.frontier_hits", **labels).inc(stats.frontier_hits)
        m.counter("check.frontier_misses", **labels).inc(
            stats.frontier_misses
        )
        m.counter("check.frontier_unattached", **labels).inc(
            stats.frontier_unattached
        )
        m.gauge("check.frontier_nodes", policy="max", **labels).set(
            stats.frontier_nodes
        )
        for cond, seconds in stats.cond_seconds.items():
            m.counter("check.cond_seconds", cond=cond, **labels).inc(seconds)
        for cond, count in stats.failed_conditions.items():
            m.counter("check.failed", cond=cond, **labels).inc(count)

    def record_result(self, entry: str, result: Any) -> None:
        """Record a scope's *final* outcome (deterministic counters).

        Must be called exactly once per verified scope, on the merged
        result in the parallel pool — never on one session's partial
        result — so serial and ``--jobs N`` totals coincide.
        """
        if self.metrics is None:
            return
        m = self.metrics
        m.counter("verify.scopes", deterministic=True).inc()
        m.counter("verify.configurations", deterministic=True,
                  entry=entry).inc(result.configurations)
        m.gauge("verify.ok", policy="min", deterministic=True,
                entry=entry).set(1 if result.ok else 0)

    def record_compose(self, result: Any) -> None:
        """Record one compositional store verification (deterministic).

        Called once per :func:`repro.proofs.compositional.verify_store`
        run, on the final :class:`StoreResult` — per-object scope results
        flow through :meth:`record_result` as usual, so ``compose.*`` only
        carries the composition layer itself (object count, side-condition
        sweep size, witness-merge failures, verdict).
        """
        if self.metrics is None:
            return
        m = self.metrics
        labels = {"store": result.store, "mode": result.mode}
        m.counter("compose.stores", deterministic=True, **labels).inc()
        m.counter("compose.objects", deterministic=True, **labels).inc(
            len(result.objects)
        )
        m.counter("compose.side_condition_checks", deterministic=True,
                  **labels).inc(result.side_condition_checks)
        m.counter("compose.combine_failures", deterministic=True,
                  **labels).inc(result.combine_failures)
        m.gauge("compose.ok", policy="min", deterministic=True,
                **labels).set(1 if result.ok else 0)

    def record_chaos(self, report: Any) -> None:
        """Record one fault-injection :class:`ChaosReport`.

        Chaos runs are deterministic in ``(entry, seed, plan)`` and have
        no parallel path, so every ``chaos.*`` instrument is reproducible
        run-to-run; ``chaos.ok`` (min-gauge) is the soak verdict.
        """
        if self.metrics is None:
            return
        m = self.metrics
        labels = {"entry": report.entry_name, "plan": report.plan.name}
        m.counter("chaos.runs", **labels).inc()
        m.counter("chaos.operations", **labels).inc(report.operations)
        m.gauge("chaos.ok", policy="min", **labels).set(
            1 if report.ok else 0
        )
        for kind, count in sorted(report.trace.event_counts().items()):
            m.counter("chaos.events", kind=kind, **labels).inc(count)

    def record_verification(self, result: Any) -> None:
        """Record one randomized-harness :class:`VerificationResult`.

        Seeds are fixed, so executions/operations totals are identical
        between the serial and ``--jobs N`` table paths — deterministic.
        """
        if self.metrics is None:
            return
        m = self.metrics
        m.counter("verify.executions", deterministic=True,
                  entry=result.name).inc(result.executions)
        m.counter("verify.operations", deterministic=True,
                  entry=result.name).inc(result.operations)
        m.gauge("verify.ok", policy="min", deterministic=True,
                entry=result.name).set(1 if result.verified else 0)

    # -- cross-process protocol ----------------------------------------

    def worker_payload(self) -> Dict[str, Any]:
        """What a worker ships back: snapshot + events + identity."""
        self._fold_profile()
        return {
            "pid": os.getpid(),
            "metrics": (
                self.metrics.snapshot() if self.metrics is not None else None
            ),
            "events": list(self.tracer.events) if self.tracer else [],
            "journal": (
                self.journal.payload() if self.journal is not None else None
            ),
        }

    def absorb_worker(self, payload: Optional[Mapping[str, Any]]) -> None:
        """Merge one worker payload into this (coordinator) handle."""
        if payload is None or not self.enabled:
            return
        if self.metrics is not None and payload.get("metrics") is not None:
            self.metrics.merge_snapshot(payload["metrics"])
        if self.tracer is not None:
            self.tracer.events.extend(payload.get("events", ()))
        if self.journal is not None:
            self.journal.absorb(payload.get("journal"))

    # -- artifacts ------------------------------------------------------

    def artifact(self, command: str,
                 meta: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """The ``--metrics`` JSON artifact: snapshot + events + context.

        ``counters`` repeats the deterministic totals at the top level —
        the section whose values are guaranteed identical between serial
        and parallel runs of the same scopes.
        """
        self._fold_profile()
        snapshot = (
            self.metrics.snapshot() if self.metrics is not None
            else {"schema": None, "instruments": {}}
        )
        return {
            "schema": ARTIFACT_SCHEMA,
            "command": command,
            "generated_at": time.time(),
            "meta": dict(meta) if meta else {},
            "counters": deterministic_totals(snapshot)
            if snapshot["instruments"] else {},
            "metrics": snapshot,
            "events": list(self.tracer.events) if self.tracer else [],
        }


#: The shared disabled handle — the default everywhere.
NULL_INSTRUMENTATION = Instrumentation()


def write_artifact(path: str, instrumentation: Instrumentation,
                   command: str,
                   meta: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """Serialize :meth:`Instrumentation.artifact` to ``path``.

    ``.jsonl`` paths get the event-stream format (one JSON object per
    line: a header, every instrument, every trace event); anything else
    gets the single-document JSON artifact.
    """
    artifact = instrumentation.artifact(command, meta)
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith(".jsonl"):
            header = {
                k: artifact[k]
                for k in ("schema", "command", "generated_at", "meta")
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for key, dumped in artifact["metrics"]["instruments"].items():
                record = {"type": "instrument", "key": key}
                record.update(dumped)
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            for event in artifact["events"]:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        else:
            handle.write(json.dumps(artifact, indent=2, sort_keys=True))
            handle.write("\n")
    return artifact


def read_artifact(path: str) -> Dict[str, Any]:
    """Load an artifact written by :func:`write_artifact` (either format)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".jsonl"):
        lines = [json.loads(line) for line in text.splitlines() if line]
        header = lines[0] if lines else {}
        instruments = {}
        events = []
        for record in lines[1:]:
            if record.get("type") == "instrument":
                key = record.pop("key")
                record.pop("type")
                instruments[key] = record
            else:
                events.append(record)
        snapshot = {"schema": "repro.metrics/1", "instruments": instruments}
        return {
            "schema": header.get("schema", ARTIFACT_SCHEMA),
            "command": header.get("command", "?"),
            "generated_at": header.get("generated_at"),
            "meta": header.get("meta", {}),
            "counters": deterministic_totals(snapshot),
            "metrics": snapshot,
            "events": events,
        }
    artifact = json.loads(text)
    if artifact.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(
            f"{path}: not a repro metrics artifact "
            f"(schema {artifact.get('schema')!r})"
        )
    return artifact


__all__ = [
    "ARTIFACT_SCHEMA",
    "Instrumentation",
    "NULL_INSTRUMENTATION",
    "instrument_key",
    "read_artifact",
    "write_artifact",
]
