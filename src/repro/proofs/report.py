"""End-to-end verification harness: regenerates the Fig. 12 table.

For every catalogue entry the harness runs a batch of randomized executions
and discharges, on each:

* **Commutativity** (op-based) or **Prop1–Prop6 + fold oracle**
  (state-based) — the per-class proof obligations of Sec. 4 / Appendix D;
* **Refinement** (op-based: Refinement or Refinement_ts along the trace);
* **Convergence** — replicas that saw the same operations agree;
* **RA-linearizability** — the execution-order or timestamp-order candidate
  linearization (per the entry's Fig. 12 class) is a valid
  RA-linearization of the execution's history.

``format_table`` renders the results in the shape of Fig. 12;
``format_exhaustive`` renders exhaustive small-scope results together
with their exploration/cache statistics, and ``format_metrics`` renders
a ``--metrics`` artifact (the ``repro stats`` command).
"""

import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..core.convergence import check_convergence
from ..core.linearization import history_timestamp, ts_sort_key
from ..core.ralin import RACheckContext
from ..obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from ..runtime.schedule import random_op_execution, random_state_execution
from .commutativity import check_commutativity
from .refinement import check_refinement
from .registry import ALL_ENTRIES, FIGURE_12_ENTRIES, CRDTEntry
from .statebased import check_fold_oracle, check_properties


@dataclass
class VerificationResult:
    """Aggregated outcome of the harness for one CRDT."""

    name: str
    kind: str
    lin_class: str
    executions: int = 0
    operations: int = 0
    commutativity_ok: bool = True
    refinement_ok: bool = True
    convergence_ok: bool = True
    ralin_ok: bool = True
    failures: List[str] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        return (
            self.commutativity_ok
            and self.refinement_ok
            and self.convergence_ok
            and self.ralin_ok
        )

    def note(self, message: str) -> None:
        self.failures.append(message)


def verify_op_based(
    entry: CRDTEntry,
    executions: int = 10,
    operations: int = 10,
    base_seed: int = 0,
    instrumentation: Optional[Instrumentation] = None,
) -> VerificationResult:
    """Run the Sec. 4 methodology on randomized op-based executions."""
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    result = VerificationResult(entry.name, entry.kind, entry.lin_class)
    # Specs and rewritings are stateless (linted by lint_spec); build them
    # once per entry and share across runs, with one check context so
    # runs reuse replay frontiers.
    spec = entry.make_spec()
    gamma = entry.make_gamma()
    context = RACheckContext(spec, gamma, entry.lin_class)
    for run in range(executions):
        crdt = entry.make_crdt()
        workload = entry.make_workload()
        system = random_op_execution(
            crdt, workload, operations=operations, seed=base_seed + run
        )
        result.executions += 1
        result.operations += len(system.generation_order)

        violations = check_commutativity(system)
        if violations:
            result.commutativity_ok = False
            result.note(f"run {run}: {violations[0]}")

        refinement = check_refinement(
            system, spec, entry.abs_fn, gamma,
            timestamp_guard=entry.state_timestamps
            if entry.lin_class == "TO" else None,
        )
        if not refinement.ok:
            result.refinement_ok = False
            result.note(f"run {run}: {refinement.violations[0]}")

        converged, offenders = check_convergence(system.replica_views())
        if not converged:
            result.convergence_ok = False
            result.note(f"run {run}: divergent replicas {offenders}")

        outcome = context.check(system.history(), system.generation_order)
        if not outcome.ok:
            result.ralin_ok = False
            result.note(f"run {run}: {outcome.reason}")
        if ins.trace_checks:
            ins.event(
                "check", entry=entry.name, run=run, ok=outcome.ok,
                reason=None if outcome.ok else outcome.reason,
            )
    return result


def verify_state_based(
    entry: CRDTEntry,
    executions: int = 10,
    operations: int = 10,
    base_seed: int = 0,
    instrumentation: Optional[Instrumentation] = None,
) -> VerificationResult:
    """Run the Appendix D methodology on randomized state-based executions."""
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    result = VerificationResult(entry.name, entry.kind, entry.lin_class)
    spec = entry.make_spec()
    gamma = entry.make_gamma()
    context = RACheckContext(spec, gamma, entry.lin_class)
    for run in range(executions):
        crdt = entry.make_crdt()
        workload = entry.make_workload()
        system = random_state_execution(
            crdt, workload, operations=operations, seed=base_seed + run
        )
        result.executions += 1
        result.operations += len(system.generation_order)

        props = check_properties(system)
        if not props.ok:
            result.commutativity_ok = False
            result.note(f"run {run}: {props.violations[0]}")

        history = system.history()
        order = list(system.generation_order)
        if entry.lin_class == "TO":
            position = {label: i for i, label in enumerate(order)}
            order.sort(
                key=lambda l: (
                    ts_sort_key(history_timestamp(history, l)),
                    position[l],
                )
            )
        fold = check_fold_oracle(system, order)
        if not fold.ok:
            result.refinement_ok = False
            result.note(f"run {run}: {fold.violations[0]}")

        converged, offenders = check_convergence(system.replica_views())
        if not converged:
            result.convergence_ok = False
            result.note(f"run {run}: divergent replicas {offenders}")

        outcome = context.check(history, system.generation_order)
        if not outcome.ok:
            result.ralin_ok = False
            result.note(f"run {run}: {outcome.reason}")
        if ins.trace_checks:
            ins.event(
                "check", entry=entry.name, run=run, ok=outcome.ok,
                reason=None if outcome.ok else outcome.reason,
            )
    return result


def verify_entry(
    entry: CRDTEntry,
    executions: int = 10,
    operations: int = 10,
    base_seed: int = 0,
    instrumentation: Optional[Instrumentation] = None,
) -> VerificationResult:
    """Dispatch to the op-based or state-based methodology."""
    if entry.kind == "OB":
        return verify_op_based(entry, executions, operations, base_seed,
                               instrumentation=instrumentation)
    return verify_state_based(entry, executions, operations, base_seed,
                              instrumentation=instrumentation)


def verify_all(
    executions: int = 10,
    operations: int = 10,
    include_extras: bool = True,
) -> List[VerificationResult]:
    entries = ALL_ENTRIES if include_extras else FIGURE_12_ENTRIES
    return [verify_entry(entry, executions, operations) for entry in entries]


def format_markdown(results: List[VerificationResult]) -> str:
    """Render results as a Markdown table (for reports / EXPERIMENTS.md)."""
    lines = [
        "| CRDT | Imp. | Lin. | verified | executions | operations |",
        "|---|---|---|---|---|---|",
    ]
    for res in results:
        lines.append(
            f"| {res.name} | {res.kind} | {res.lin_class} | "
            f"{'yes' if res.verified else '**NO**'} | "
            f"{res.executions} | {res.operations} |"
        )
    return "\n".join(lines)


def format_table(
    results: List[VerificationResult], title: Optional[str] = None
) -> str:
    """Render results in the shape of Fig. 12, plus verification columns."""
    header = (
        f"{'CRDT':<18} {'Imp.':<5} {'Lin.':<5} {'verified':<9} "
        f"{'execs':>6} {'ops':>6}"
    )
    lines = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for res in results:
        lines.append(
            f"{res.name:<18} {res.kind:<5} {res.lin_class:<5} "
            f"{'yes' if res.verified else 'NO':<9} "
            f"{res.executions:>6} {res.operations:>6}"
        )
    return "\n".join(lines)


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:6.1f}%" if whole else f"{'-':>7}"


def format_exhaustive(results: Sequence[Any],
                      title: Optional[str] = None) -> str:
    """Render :class:`~repro.proofs.exhaustive.ExhaustiveResult` rows with
    their exploration and verification-cache statistics.

    Per scope: distinct configurations, states expanded by the engine,
    deduplication and sleep-set prune rates, verdict-memo and
    frontier-trie hit rates, exploration wall time, and the verdict.
    Scopes run with the naive engine (no :class:`ExploreStats`) or with
    caching disabled (no :class:`CheckStats`) render ``-`` for the
    columns they lack.  Recorded failures are listed below the table.
    """
    header = (
        f"{'CRDT':<18} {'configs':>8} {'states':>8} {'dedup':>7} "
        f"{'pruned':>8} {'vhit':>7} {'fhit':>7} {'wall':>8}  verdict"
    )
    lines = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    failures: List[str] = []
    for res in results:
        stats = res.stats
        check = res.check_stats
        if stats is not None:
            states = f"{stats.states_visited:>8}"
            dedup = _pct(stats.states_deduped,
                         stats.states_visited + stats.states_deduped)
            pruned = f"{stats.branches_pruned:>8}"
            wall = f"{stats.wall_time:7.2f}s"
        else:
            states, dedup, pruned, wall = (
                f"{'-':>8}", f"{'-':>7}", f"{'-':>8}", f"{'-':>8}"
            )
        if check is not None:
            vhit = _pct(check.verdict_hits, check.checks)
            fhit = _pct(check.frontier_hits,
                        check.frontier_hits + check.frontier_misses)
        else:
            vhit = fhit = f"{'-':>7}"
        verdict = "ok" if res.ok else "FAIL"
        lines.append(
            f"{res.entry_name:<18} {res.configurations:>8} {states} "
            f"{dedup} {pruned} {vhit} {fhit} {wall}  {verdict}"
        )
        for failure in res.failures:
            failures.append(f"  {res.entry_name}: {failure}")
    if failures:
        lines.append("")
        lines.append("failures:")
        lines.extend(failures)
    return "\n".join(lines)


def format_store(result: Any, title: Optional[str] = None) -> str:
    """Render a :class:`~repro.proofs.compositional.StoreResult`.

    Compositional mode shows one row per object (the per-object
    exhaustive scope) plus the ⊗ts side-condition summary; product mode
    (the non-shared-timestamp escape hatch) shows the whole-store
    exploration instead.
    """
    lines = []
    if title:
        lines.append(title)
    flavour = "⊗ts shared clock" if result.mode == "compositional" \
        else "⊗ independent clocks — whole-store product exploration"
    lines.append(f"store: {result.store} ({flavour})")
    if result.mode == "compositional":
        header = (
            f"{'object':<14} {'entry':<18} {'configs':>8} {'wall':>8}"
            f"  verdict"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for obj in sorted(result.objects):
            res = result.objects[obj]
            wall = f"{res.stats.wall_time:7.2f}s" if res.stats is not None \
                else f"{'-':>8}"
            lines.append(
                f"{obj:<14} {res.entry_name:<18} {res.configurations:>8} "
                f"{wall}  {'ok' if res.ok else 'FAIL'}"
            )
        side = "ok" if result.side_condition_ok else "FAIL"
        lines.append(
            f"side condition: {result.side_condition_checks} product "
            f"configurations swept, {result.combine_failures} combine "
            f"failures — {side}"
        )
        if result.counterexample is not None:
            lines.append(
                f"counterexample: {result.counterexample.describe()}"
            )
    elif result.product is not None:
        res = result.product
        wall = f"{res.stats.wall_time:.2f}s" if res.stats is not None \
            else "-"
        lines.append(
            f"product: {res.configurations} configurations in {wall} — "
            f"{'ok' if res.ok else 'FAIL'}"
        )
    lines.append(
        f"verdict: {'ok' if result.ok else 'FAIL'} ({result.mode}), "
        f"{result.configurations} configurations, "
        f"{result.wall_time:.2f}s"
    )
    if result.failures:
        lines.append("failures:")
        lines.extend(f"  {failure}" for failure in result.failures)
    return "\n".join(lines)


def format_metrics(artifact: Mapping[str, Any]) -> str:
    """Human-readable summary of a ``--metrics`` artifact.

    Renders the artifact in four sections: deterministic counters (the
    values a serial run and a ``--jobs N`` run agree on exactly), work
    counters and gauges (cost — may legitimately exceed serial totals
    under frontier splitting), span timings, and the trace-event count.
    """
    lines = [f"metrics artifact — command: {artifact.get('command', '?')}"]
    generated = artifact.get("generated_at")
    if generated is not None:
        stamp = _time.strftime(
            "%Y-%m-%d %H:%M:%S UTC", _time.gmtime(generated)
        )
        lines.append(f"generated: {stamp}")
    meta = artifact.get("meta") or {}
    if meta:
        inner = "  ".join(f"{k}={meta[k]}" for k in sorted(meta))
        lines.append(f"meta: {inner}")

    # ``.get()`` throughout: artifacts written before a metric family
    # existed (older snapshots) must degrade to ``-`` / absent rows, not
    # crash the stats command.
    instruments = artifact.get("metrics", {}).get("instruments", {})
    deterministic = []
    counters = []
    gauges = []
    histograms = []
    for key in sorted(instruments):
        dumped = instruments[key]
        kind = dumped.get("kind")
        if kind == "histogram":
            histograms.append((key, dumped))
        elif dumped.get("deterministic"):
            deterministic.append((key, dumped))
        elif kind == "counter":
            counters.append((key, dumped))
        else:
            gauges.append((key, dumped))

    def fmt_value(value: Any) -> str:
        if isinstance(value, float) and not value.is_integer():
            return f"{value:.4f}"
        return f"{int(value)}" if value is not None else "-"

    if deterministic:
        lines.append("")
        lines.append("deterministic (serial == --jobs N):")
        for key, dumped in deterministic:
            lines.append(f"  {key:<52} {fmt_value(dumped.get('value')):>12}")

    # Scheduler digest: the parallel-pool and fingerprint-store counters
    # summed across their per-entry label variants, with the derived
    # ratios an operator actually reads (how deep the frontier split
    # went, how long workers waited, how well digest interning
    # deduplicated).
    totals: Dict[str, float] = {}
    for key in instruments:
        name = key.split("{", 1)[0]
        if name.startswith(("explore.steal.", "explore.fp_store.",
                            "explore.dpor.", "explore.pstate.")):
            value = instruments[key].get("value")
            if value is not None:
                totals[name] = totals.get(name, 0.0) + value
    has_explore = any(key.startswith("explore.") for key in instruments)
    if totals or has_explore:
        lines.append("")
        lines.append("scheduler (parallel pool / fingerprint store):")

        def total(name: str) -> float:
            return totals.get(name, 0.0)

        rows = [
            ("workers", total("explore.steal.workers")),
            ("frontier depth", total("explore.steal.frontier_depth")),
            ("frontier tasks", total("explore.steal.tasks")),
            ("idle-wait seconds", total("explore.steal.idle_seconds")),
            ("pool wall seconds", total("explore.steal.wall_seconds")),
            ("fp-store lookups", total("explore.fp_store.lookups")),
            ("fp-store evictions", total("explore.fp_store.evictions")),
            ("fp-store spilled", total("explore.fp_store.spilled")),
            ("dpor races analyzed", total("explore.dpor.races")),
            ("dpor redundant avoided",
             total("explore.dpor.redundant_avoided")),
            ("dpor full expansions", total("explore.dpor.full_expansions")),
            ("dpor wakeup branches", total("explore.dpor.wakeup_branches")),
            ("dpor patch cuts", total("explore.dpor.patch_cuts")),
            ("pstate nodes copied", total("explore.pstate.nodes_copied")),
            ("pstate nodes shared", total("explore.pstate.nodes_shared")),
        ]
        for label, value in rows:
            if value:
                lines.append(f"  {label:<52} {fmt_value(value):>12}")
        lookups = total("explore.fp_store.lookups")
        if lookups:
            ratio = total("explore.fp_store.hits") / lookups
            lines.append(f"  {'fp-store hit ratio':<52} {ratio:>12.4f}")
        copied = total("explore.pstate.nodes_copied")
        shared = total("explore.pstate.nodes_shared")
        if copied or shared:
            # The observable O(delta) claim: how many trie nodes each
            # branch point reused instead of copying.
            ratio = shared / (copied + shared) if copied + shared else 0.0
            lines.append(f"  {'pstate sharing ratio':<52} {ratio:>12.4f}")
        # Metric families this artifact predates (or whose machinery was
        # off) are named explicitly — "(absent)" distinguishes "not
        # recorded" from "recorded zero" when reading old snapshots.
        families = [
            ("parallel pool", "explore.steal."),
            ("fingerprint store", "explore.fp_store."),
            ("source-DPOR", "explore.dpor."),
            ("persistent state", "explore.pstate."),
        ]
        for label, prefix in families:
            if not any(name.startswith(prefix) for name in totals):
                lines.append(f"  {label:<52} {'(absent)':>12}")

    # Composition digest: the compositional-verification counters summed
    # across their per-store label variants (``repro exhaustive --store``).
    compose: Dict[str, float] = {}
    for key in instruments:
        name = key.split("{", 1)[0]
        if name.startswith("compose."):
            value = instruments[key].get("value")
            if value is not None:
                compose[name] = compose.get(name, 0.0) + value
    if compose:
        lines.append("")
        lines.append("composition (per-object proof rule):")
        rows = [
            ("stores verified", compose.get("compose.stores", 0.0)),
            ("objects", compose.get("compose.objects", 0.0)),
            ("side-condition checks",
             compose.get("compose.side_condition_checks", 0.0)),
            ("combine failures",
             compose.get("compose.combine_failures", 0.0)),
        ]
        for label, value in rows:
            lines.append(f"  {label:<52} {fmt_value(value):>12}")
    if counters:
        lines.append("")
        lines.append("work counters:")
        for key, dumped in counters:
            lines.append(f"  {key:<52} {fmt_value(dumped.get('value')):>12}")
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for key, dumped in gauges:
            lines.append(
                f"  {key:<52} {fmt_value(dumped.get('value')):>12} "
                f"({dumped.get('policy', '?')})"
            )
    if histograms:
        lines.append("")
        lines.append("histograms (count / mean / max):")
        for key, dumped in histograms:
            count = dumped.get("count", 0)
            mean = dumped.get("sum", 0.0) / count if count else 0.0
            mx = dumped.get("max") if dumped.get("max") is not None else 0.0
            lines.append(
                f"  {key:<52} {count:>6} / {mean:.4f} / {mx:.4f}"
            )
    events = artifact.get("events", [])
    lines.append("")
    lines.append(f"trace events: {len(events)}")
    return "\n".join(lines)


def format_phases(artifact: Mapping[str, Any]) -> str:
    """Render the phase-attribution profile of a ``--metrics`` artifact.

    The engine folds its :class:`~repro.obs.profile.PhaseProfiler`
    timings into ``profile.seconds{phase=...}`` work counters; this
    breaks the summed exploration wall into those phases plus an
    ``(other)`` row (scheduler overhead, visited-set bookkeeping, the
    DFS loop itself) so the table tiles the engine wall exactly.
    """
    instruments = artifact.get("metrics", {}).get("instruments", {})
    seconds: Dict[str, float] = {}
    regions: Dict[str, float] = {}
    wall = 0.0
    for dumped in instruments.values():
        name = dumped.get("name")
        if name == "explore.wall_seconds":
            wall += dumped.get("value") or 0.0
            continue
        phase = (dumped.get("labels") or {}).get("phase")
        if phase is None:
            continue
        if name == "profile.seconds":
            seconds[phase] = seconds.get(phase, 0.0) + (
                dumped.get("value") or 0.0
            )
        elif name == "profile.regions":
            regions[phase] = regions.get(phase, 0.0) + (
                dumped.get("value") or 0.0
            )
    if not seconds:
        return (
            "no phase profile in this artifact — record one with "
            "`repro exhaustive --metrics PATH` (any exploration command)"
        )
    attributed = sum(seconds.values())
    base = wall if wall > 0 else attributed
    header = f"{'phase':<14} {'seconds':>10} {'share':>8} {'regions':>10}"
    lines = ["phase profile (engine wall attribution):", header,
             "-" * len(header)]
    for phase in sorted(seconds, key=seconds.get, reverse=True):
        share = seconds[phase] / base if base else 0.0
        count = regions.get(phase)
        lines.append(
            f"{phase:<14} {seconds[phase]:>9.4f}s {share:>7.1%} "
            f"{int(count) if count is not None else '-':>10}"
        )
    other = wall - attributed
    if wall > 0:
        lines.append(
            f"{'(other)':<14} {max(other, 0.0):>9.4f}s "
            f"{max(other, 0.0) / base:>7.1%} {'-':>10}"
        )
    lines.append("-" * len(header))
    lines.append(f"{'engine wall':<14} {base:>9.4f}s {1.0:>7.1%}")
    return "\n".join(lines)
