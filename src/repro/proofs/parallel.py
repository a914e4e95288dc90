"""Process-parallel verification fan-out.

By default the within-scope paths here delegate to the frontier-split
pool (:mod:`repro.proofs.steal`); ``steal=False`` selects the static
strategies below.  Two static sharding axes, both
built on :class:`concurrent.futures.ProcessPoolExecutor`:

* **Across registry entries** — :func:`verify_entries_parallel` runs the
  Fig. 12 randomized harness (``verify_entry``) for several catalogue
  entries at once (the ``table --jobs N`` path).
* **Within one scope** — :func:`exhaustive_verify_parallel` splits a
  single exhaustive exploration at the root of its DFS tree (*frontier
  split*): worker ``i`` explores only the subtree under the ``i``-th
  initial transition, with sleep-set seeds reconstructed so the union of
  the subtrees is exactly the serial search (see
  ``_Engine._run_root_branch`` in :mod:`repro.runtime.explore_engine` and
  ``docs/performance.md``).  :func:`verify_scopes_parallel` feeds many
  scopes' branch tasks through one shared pool (the ``exhaustive
  --jobs N`` path), so a scope with few root branches does not leave
  workers idle.

Merging is deterministic: branch results are combined in branch order,
distinct-configuration counts come from the union of the workers'
fingerprint sets (a configuration reachable in two subtrees must be
counted once, exactly as serial deduplication would), additive exploration
counters are summed and wall times are ``max``-ed (workers run
concurrently).

Worker processes reconstruct their :class:`CRDTEntry` by *name* via
:func:`repro.proofs.registry.entry_by_name` — entry factories are lambdas
and do not pickle — so the parallel paths cover registry entries only.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.ralin import CheckStats
from ..obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from ..runtime.explore_engine import ExploreStats
from ..runtime.fp_store import FPStoreStats
from ..runtime.schedule import Program
from ..runtime.symmetry import build_group, rename_transition
from ..runtime.system import DEFAULT_OBJECT
from .exhaustive import (
    ExhaustiveResult,
    exhaustive_verify,
    exhaustive_verify_state,
    standard_programs,
)
from .registry import ALL_ENTRIES, CRDTEntry, entry_by_name
from .report import VerificationResult, verify_entry

#: One work item, picklable: ``(entry name, programs, max_gossips,
#: reduction, symmetry, cache, branch, obs, por)``.  ``max_gossips`` is
#: ``None`` for op-based scopes; ``branch`` is a root branch index for a
#: frontier-split shard, or ``None`` for the whole tree.  ``obs`` is
#: ``None`` (instrumentation off) or the observability envelope built by
#: :func:`_obs_envelope`.  ``por`` picks the reduction flavor the worker
#: engine runs (``"source"`` or ``"sleep"``).
_BranchTask = Tuple[str, Dict[str, Program], Optional[int], Optional[bool],
                    Optional[bool], bool, Optional[int],
                    Optional[Dict[str, Any]], str]


def _obs_envelope(ins: Instrumentation) -> Optional[Dict[str, Any]]:
    """What a task carries so the worker can rebuild instrumentation.

    ``submitted`` is wall-clock (``time.time``), the only clock comparable
    across processes — the worker's first act is to observe
    ``now - submitted`` as ``parallel.queue_wait_seconds``.
    """
    if not ins.enabled:
        return None
    return {"trace": ins.trace_checks, "submitted": time.time()}


def _worker_instrumentation(
    obs: Optional[Dict[str, Any]]
) -> Instrumentation:
    """Worker-side handle: fresh and fully enabled, or the shared no-op."""
    if obs is None:
        return NULL_INSTRUMENTATION
    ins = Instrumentation.on(trace_checks=obs.get("trace", False))
    ins.metrics.histogram("parallel.queue_wait_seconds").observe(
        max(0.0, time.time() - obs["submitted"])
    )
    return ins


def default_jobs() -> int:
    """Worker count when ``--jobs`` is given without a value."""
    return os.cpu_count() or 1


def _worker_count(jobs: int, tasks: int, oversubscribe: bool = False) -> int:
    """Effective pool size: ``jobs``, capped by tasks and physical cores.

    Verification workers are CPU-bound, so running more processes than
    cores never helps — it only adds context-switch and cache-contention
    overhead (measured ~15% on the exhaustive suite).  ``--jobs`` above
    ``os.cpu_count()`` is therefore treated as "use every core";
    ``oversubscribe=True`` lifts the core cap (tests and benches that
    need real multi-process behavior on small machines).  The task cap
    always applies — idle processes would be pure fork overhead — and
    ``tasks == 0`` collapses to 1 so callers can treat the result as a
    pool size unconditionally.
    """
    capped = jobs if oversubscribe else min(jobs, os.cpu_count() or jobs)
    return max(1, min(capped, tasks))


def _require_registered(entry: CRDTEntry) -> None:
    try:
        entry_by_name(entry.name)
    except KeyError:
        raise ValueError(
            f"parallel verification reconstructs entries by name in worker "
            f"processes; {entry.name!r} is not in the registry"
        ) from None


def _root_transitions(
    kind: str, programs: Dict[str, Program], max_gossips: Optional[int]
) -> List[Tuple]:
    """The exploration root's out-edges, in domain order.

    At the root no label has been generated, so the only op-based
    transitions are the first invocations; state-based roots additionally
    offer every ordered gossip pair while budget remains.  Mirrors
    ``_OpDomain.transitions`` / ``_StateDomain.transitions`` over
    ``sorted(programs)`` (the replica order both systems are built with).
    """
    replicas = sorted(programs)
    trans: List[Tuple] = [
        ("inv", r, 0) for r in replicas if programs[r]
    ]
    if kind == "SB" and (max_gossips or 0) > 0:
        for source in replicas:
            for target in replicas:
                if source != target:
                    trans.append(("gos", source, target))
    return trans


def _symmetric_root_reps(
    entry: CRDTEntry,
    transitions: List[Tuple],
    programs: Dict[str, Program],
) -> List[int]:
    """Indices of one root branch per replica-permutation orbit.

    Two root transitions in the same orbit start subtrees whose
    configurations are replica-renamings of each other; with orbit dedup
    active inside every worker, fanning out both would do the second
    subtree's work only to merge it away.  The kept representative is
    always the orbit's *first* branch, so its sleep-set seeds (the earlier
    branches) are preserved exactly as the serial engine builds them.
    """
    extra = (DEFAULT_OBJECT,) if entry.kind == "OB" else ()
    group = build_group(programs, extra_names=extra)
    if not group.enabled:
        return list(range(len(transitions)))
    seen_orbits = set()
    kept = []
    for index, transition in enumerate(transitions):
        orbit = min(
            rename_transition(transition, mapping) for mapping in group.maps
        )
        if orbit not in seen_orbits:
            seen_orbits.add(orbit)
            kept.append(index)
    return kept


def _branch_worker(task: _BranchTask):
    (name, programs, max_gossips, reduction, symmetry, cache, branch, obs,
     por) = task
    ins = _worker_instrumentation(obs)
    entry = entry_by_name(name)
    fingerprints: set = set()
    with ins.span("parallel.task", entry=name, branch=branch):
        if entry.kind == "OB":
            result = exhaustive_verify(
                entry, programs, reduction=reduction, symmetry=symmetry,
                cache=cache, root_branch=branch, fingerprints=fingerprints,
                instrumentation=ins, por=por,
            )
        else:
            result = exhaustive_verify_state(
                entry, programs, max_gossips=max_gossips or 0,
                reduction=reduction, symmetry=symmetry, cache=cache,
                root_branch=branch, fingerprints=fingerprints,
                instrumentation=ins, por=por,
            )
    payload = ins.worker_payload() if obs is not None else None
    if branch is None:
        # Whole-tree task: the result's own count is already the distinct
        # total — no cross-shard dedup needed, so don't ship the (large)
        # fingerprint set back through the pipe.
        return branch, result, None, payload
    return branch, result, fingerprints, payload


def _merge_branches(
    entry_name: str, outcomes: Iterable[Tuple[int, ExhaustiveResult, set]]
) -> ExhaustiveResult:
    merged = ExhaustiveResult(entry_name)
    merged.stats = ExploreStats()
    check_stats = CheckStats()
    saw_check_stats = False
    fingerprints: set = set()
    whole_tree_configurations = 0
    for _, result, branch_fps in sorted(
        outcomes, key=lambda item: item[0] if item[0] is not None else -1
    ):
        if branch_fps is None:
            whole_tree_configurations += result.configurations
        else:
            fingerprints |= branch_fps
        if not result.ok:
            merged.ok = False
        for failure in result.failures:
            if len(merged.failures) < 10:
                merged.failures.append(failure)
        stats = result.stats
        if stats is not None:
            merged.stats.states_visited += stats.states_visited
            merged.stats.states_deduped += stats.states_deduped
            merged.stats.branches_pruned += stats.branches_pruned
            merged.stats.commute_checks += stats.commute_checks
            merged.stats.snapshots += stats.snapshots
            merged.stats.deepcopies += stats.deepcopies
            merged.stats.peak_frontier = max(
                merged.stats.peak_frontier, stats.peak_frontier
            )
            merged.stats.wall_time = max(
                merged.stats.wall_time, stats.wall_time
            )
            merged.stats.capped |= stats.capped
            merged.stats.symmetry_group = max(
                merged.stats.symmetry_group, stats.symmetry_group
            )
            merged.stats.pinned_replicas = max(
                merged.stats.pinned_replicas, stats.pinned_replicas
            )
            merged.stats.state_fp_cache_peak = max(
                merged.stats.state_fp_cache_peak, stats.state_fp_cache_peak
            )
            merged.stats.dpor_races += stats.dpor_races
            merged.stats.dpor_redundant_avoided += (
                stats.dpor_redundant_avoided
            )
            merged.stats.dpor_full_expansions += stats.dpor_full_expansions
            merged.stats.dpor_wakeup_branches += stats.dpor_wakeup_branches
            merged.stats.dpor_patch_cuts += stats.dpor_patch_cuts
            merged.stats.pstate_copied += stats.pstate_copied
            merged.stats.pstate_shared += stats.pstate_shared
        if result.fp_store is not None:
            if merged.fp_store is None:
                merged.fp_store = FPStoreStats()
            merged.fp_store.merge(result.fp_store)
        if result.check_stats is not None:
            saw_check_stats = True
            check_stats.checks += result.check_stats.checks
            check_stats.verdict_hits += result.check_stats.verdict_hits
            check_stats.unkeyed += result.check_stats.unkeyed
            check_stats.frontier_hits += result.check_stats.frontier_hits
            check_stats.frontier_misses += result.check_stats.frontier_misses
            check_stats.frontier_unattached += (
                result.check_stats.frontier_unattached
            )
            check_stats.frontier_nodes = max(
                check_stats.frontier_nodes, result.check_stats.frontier_nodes
            )
            for cond, seconds in result.check_stats.cond_seconds.items():
                check_stats.cond_seconds[cond] = (
                    check_stats.cond_seconds.get(cond, 0.0) + seconds
                )
            for cond, count in result.check_stats.failed_conditions.items():
                check_stats.failed_conditions[cond] = (
                    check_stats.failed_conditions.get(cond, 0) + count
                )
    merged.configurations = len(fingerprints) + whole_tree_configurations
    merged.stats.configurations = merged.configurations
    if saw_check_stats:
        merged.check_stats = check_stats
    return merged


def _absorb_payloads(
    ins: Instrumentation, outcomes: Iterable[Tuple]
) -> List[Tuple[Optional[int], ExhaustiveResult, Optional[set]]]:
    """Fold worker payloads into the coordinator; strip them from outcomes."""
    stripped = []
    for branch, result, fingerprints, payload in outcomes:
        ins.absorb_worker(payload)
        stripped.append((branch, result, fingerprints))
    return stripped


def _record_pool(ins: Instrumentation, tasks: int, workers: int) -> None:
    if ins.metrics is not None:
        ins.metrics.counter("parallel.tasks").inc(tasks)
        ins.metrics.gauge("parallel.workers", policy="max").set(workers)


def _run_branch_tasks(tasks: List[_BranchTask], workers: int) -> List[Tuple]:
    """Map ``_branch_worker`` over ``tasks``, inline when the pool is 1.

    A one-worker pool would serialize the tasks anyway; running them in
    this process skips the fork, pickling, and pipe costs entirely (and
    keeps single-core machines off the multiprocessing machinery).
    """
    if not tasks:
        return []
    if workers <= 1:
        return [_branch_worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_branch_worker, tasks))


def _branch_tasks(
    entry: CRDTEntry,
    programs: Dict[str, Program],
    max_gossips: Optional[int],
    reduction: Optional[bool],
    symmetry: Optional[bool],
    cache: bool,
    obs: Optional[Dict[str, Any]] = None,
    por: str = "source",
) -> List[_BranchTask]:
    _require_registered(entry)
    gossips = max_gossips if entry.kind == "SB" else None
    transitions = _root_transitions(entry.kind, programs, gossips)
    branches = list(range(max(1, len(transitions))))
    if (entry.symmetry if symmetry is None else symmetry) and transitions:
        branches = _symmetric_root_reps(entry, transitions, programs)
    return [
        (entry.name, programs, gossips, reduction, symmetry, cache, branch,
         obs, por)
        for branch in branches
    ]


def exhaustive_verify_parallel(
    entry: CRDTEntry,
    programs: Dict[str, Program],
    jobs: Optional[int] = None,
    max_gossips: int = 3,
    reduction: Optional[bool] = None,
    symmetry: Optional[bool] = None,
    cache: bool = True,
    instrumentation: Optional[Instrumentation] = None,
    steal: bool = True,
    spill: Optional[str] = None,
    max_configurations: Optional[int] = None,
    oversubscribe: bool = False,
    por: str = "source",
) -> ExhaustiveResult:
    """Parallel exhaustive verification of one registry entry.

    Semantically identical to :func:`exhaustive_verify` /
    :func:`exhaustive_verify_state` with the fast engine — same verdict,
    same distinct-configuration count — but explored by ``jobs`` worker
    processes.  ``steal`` picks the scheduler: the pool (default,
    :mod:`repro.proofs.steal`) splits at a sleep-set frontier deep
    enough to keep every worker busy, ``steal=False`` is the static
    root-branch split.
    ``max_gossips`` only applies to state-based entries.  With orbit
    dedup active (``symmetry``), root branches that are replica-renamings
    of an earlier branch are not fanned out at all
    (:func:`_symmetric_root_reps`).

    ``max_configurations`` and ``spill`` require the pool (the shared
    budget and the fingerprint store are its machinery); the
    static path rejects them.  An effective pool of one worker runs the
    serial algorithm inline — no processes are spawned.

    With ``instrumentation`` enabled, each worker builds its own handle
    and ships its metrics/trace payload back; *work* counters are summed
    (shards re-explore shared states, so they may exceed serial totals)
    while the deterministic ``verify.*`` counters are recorded exactly
    once here, on the merged result.
    """
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    if steal:
        from .steal import exhaustive_verify_steal

        return exhaustive_verify_steal(
            entry, programs, jobs=jobs, max_gossips=max_gossips,
            reduction=reduction, symmetry=symmetry, cache=cache,
            max_configurations=max_configurations, spill=spill,
            instrumentation=ins, oversubscribe=oversubscribe, por=por,
        )
    if max_configurations is not None:
        raise ValueError(
            "max_configurations under parallel exploration requires the "
            "frontier-split pool (steal=True)"
        )
    if spill is not None:
        raise ValueError(
            "spill under parallel exploration requires the frontier-split "
            "pool (steal=True)"
        )
    jobs = jobs or default_jobs()
    tasks = _branch_tasks(entry, programs, max_gossips, reduction, symmetry,
                          cache, _obs_envelope(ins), por)
    workers = _worker_count(jobs, len(tasks), oversubscribe)
    _record_pool(ins, len(tasks), workers)
    outcomes = _run_branch_tasks(tasks, workers)
    outcomes = _absorb_payloads(ins, outcomes)
    with ins.span("parallel.merge", entry=entry.name, shards=len(outcomes)):
        merged = _merge_branches(entry.name, outcomes)
    if ins.enabled:
        ins.record_result(entry.name, merged)
    return merged


def verify_scopes_parallel(
    scopes: Sequence[Tuple[CRDTEntry, Dict[str, Program], Optional[int]]],
    jobs: Optional[int] = None,
    reduction: Optional[bool] = None,
    symmetry: Optional[bool] = None,
    cache: bool = True,
    instrumentation: Optional[Instrumentation] = None,
    steal: bool = True,
    spill: Optional[str] = None,
    max_configurations: Optional[int] = None,
    oversubscribe: bool = False,
    por: str = "source",
    progress: Optional[float] = None,
    progress_stream: Optional[Any] = None,
    heartbeat_log: Optional[str] = None,
) -> "Dict[str, ExhaustiveResult]":
    """Run many exhaustive scopes through one shared worker pool.

    ``scopes`` is a sequence of ``(entry, programs, max_gossips)`` triples
    (``max_gossips`` ignored for op-based entries).  All scopes' tasks run
    through a single pool so late scopes keep early workers busy.  Returns
    ``{entry.name: merged result}`` preserving the input order.

    ``steal`` (default on) routes the whole batch through the
    frontier-split pool (:func:`repro.proofs.steal.verify_scopes_steal`),
    which also carries ``max_configurations`` (shared budget) and
    ``spill`` (disk-backed fingerprint store); with ``steal=False`` the
    static strategy below applies and rejects both.  ``progress`` /
    ``progress_stream`` / ``heartbeat_log`` are the live-heartbeat knobs
    of the pool (and its serial fallback); the static strategy
    ignores them.

    Task granularity adapts to the pool: with at least ``jobs`` scopes,
    each scope is one whole-tree task — frontier-splitting would only
    re-explore subtree-shared states and split the per-scope caches across
    workers.  With fewer scopes than workers, scopes are frontier-split
    into root-branch shards so the pool stays saturated.

    Deterministic-counter ownership follows the granularity: a whole-tree
    worker already recorded its scope's ``verify.*`` counters (its result
    *is* the final result), so the coordinator only absorbs its payload; a
    frontier-split scope is recorded here, once, on the merged result.
    """
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    if steal:
        from .steal import verify_scopes_steal

        return verify_scopes_steal(
            scopes, jobs=jobs, reduction=reduction, symmetry=symmetry,
            cache=cache, max_configurations=max_configurations,
            spill=spill, instrumentation=ins, oversubscribe=oversubscribe,
            por=por, progress=progress, progress_stream=progress_stream,
            heartbeat_log=heartbeat_log,
        )
    if max_configurations is not None:
        raise ValueError(
            "max_configurations under parallel exploration requires the "
            "frontier-split pool (steal=True)"
        )
    if spill is not None:
        raise ValueError(
            "spill under parallel exploration requires the frontier-split "
            "pool (steal=True)"
        )
    jobs = jobs or default_jobs()
    obs = _obs_envelope(ins)
    tasks: List[_BranchTask] = []
    split = len(scopes) < jobs
    for entry, programs, max_gossips in scopes:
        if split:
            tasks.extend(
                _branch_tasks(entry, programs, max_gossips, reduction,
                              symmetry, cache, obs, por)
            )
        else:
            _require_registered(entry)
            gossips = max_gossips if entry.kind == "SB" else None
            tasks.append(
                (entry.name, programs, gossips, reduction, symmetry, cache,
                 None, obs, por)
            )
    workers = _worker_count(jobs, len(tasks), oversubscribe)
    _record_pool(ins, len(tasks), workers)
    outcomes = _run_branch_tasks(tasks, workers)
    outcomes = _absorb_payloads(ins, outcomes)
    by_entry: Dict[str, List[Tuple[Optional[int], ExhaustiveResult, set]]] = {}
    for task, outcome in zip(tasks, outcomes):
        by_entry.setdefault(task[0], []).append(outcome)
    order: List[str] = []
    for entry, _, _ in scopes:
        if entry.name not in order:
            order.append(entry.name)
    with ins.span("parallel.merge", scopes=len(order)):
        merged = {
            name: _merge_branches(name, by_entry.get(name, []))
            for name in order
        }
    if ins.enabled and split:
        for name, result in merged.items():
            ins.record_result(name, result)
    return merged


def standard_scopes(
    max_gossips: int = 2,
) -> List[Tuple[CRDTEntry, Dict[str, Program], Optional[int]]]:
    """The standard exhaustive scope suite: every registry entry that has
    standard programs, op-based and state-based alike."""
    scopes = []
    for entry in ALL_ENTRIES:
        try:
            programs = standard_programs(entry)
        except KeyError:
            continue
        scopes.append(
            (entry, programs, max_gossips if entry.kind == "SB" else None)
        )
    return scopes


def _entry_worker(
    task: Tuple[str, int, int, int, Optional[Dict[str, Any]]]
) -> Tuple[VerificationResult, Optional[Dict[str, Any]]]:
    name, executions, operations, base_seed, obs = task
    ins = _worker_instrumentation(obs)
    with ins.span("parallel.entry", entry=name):
        result = verify_entry(entry_by_name(name), executions, operations,
                              base_seed, instrumentation=ins)
    return result, (ins.worker_payload() if obs is not None else None)


def verify_entries_parallel(
    entries: Sequence[CRDTEntry],
    executions: int = 10,
    operations: int = 10,
    jobs: Optional[int] = None,
    instrumentation: Optional[Instrumentation] = None,
) -> List[VerificationResult]:
    """Parallel :func:`repro.proofs.report.verify_entry` over ``entries``.

    Results come back in input order; each worker runs one entry's whole
    randomized batch (seeds are unchanged, so results equal the serial
    harness's).  Worker metrics/trace payloads are absorbed into
    ``instrumentation``; the deterministic ``verify.executions`` /
    ``verify.operations`` counters are left to the caller
    (:meth:`Instrumentation.record_verification` per result), which keeps
    the serial and parallel table paths symmetric.
    """
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    jobs = jobs or default_jobs()
    for entry in entries:
        _require_registered(entry)
    obs = _obs_envelope(ins)
    tasks = [
        (entry.name, executions, operations, 0, obs) for entry in entries
    ]
    workers = _worker_count(jobs, len(tasks))
    _record_pool(ins, len(tasks), workers)
    if workers <= 1:
        outcomes = [_entry_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_entry_worker, tasks))
    results: List[VerificationResult] = []
    for result, payload in outcomes:
        ins.absorb_worker(payload)
        results.append(result)
    return results
