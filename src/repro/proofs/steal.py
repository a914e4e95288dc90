"""Frontier-split parallel exhaustive verification (the ``--jobs N`` pool).

The pool carves the search at a **sleep-set frontier**:

* Per scope, the coordinator runs the sleep-set DFS over the top ``d``
  levels only (``_Engine.run(cap=d)``).  Every node above the cap is
  expanded in full, and its configuration is reported and checked
  here.  A node at depth ``d`` passes the usual
  canonical-fingerprint / sleep-subsumption check and becomes a
  ``(path, sleep)`` task instead of being expanded: a tuple of the
  scope's transition indices and a sleep mask (an int), so a task
  pickles small.  ``d`` deepens from 1 until the frontier holds
  :data:`TASKS_PER_WORKER` tasks per worker, or until no node reaches
  the cap (the coordinator then walked the whole tree).
  ``steal=False`` (``--no-steal``) stops at ``d = 1``: one task per
  root branch, with the coordinator's canonical dedup keeping one
  branch per replica-permutation orbit.
* Workers pull tasks from a shared :class:`multiprocessing.Queue`,
  replay each prefix and run the scope's DFS below it — source-DPOR by
  default.  The prefix runs under ignore frames: the coordinator fully
  expanded every prefix node, so a race reversal landing there is
  already explored or slept.
* Each worker keeps one engine *session* per scope (domain, visited and
  expanded records, verdict caches) across all its tasks, so dedup warms
  up like a serial run's.  Sessions keep raw canonical fingerprints, as
  serial runs do; with ``spill`` they intern them as collision-checked
  digests through a disk-spilling
  :class:`~repro.runtime.fp_store.FingerprintStore`.  Either way the
  deterministic merge unions the coordinator's and the workers'
  fingerprint sets.

Determinism: the merged verdicts, distinct-configuration counts, and
deterministic metrics are identical to the serial engine's — the split
only decides *which process* explores a subtree, never *whether* it is
explored (visited records are per process, so a subtree is at worst
re-explored, never skipped).  The pool runs every scope uncapped: a
configuration two processes reach is checked by both, and the union
counts it once.

Termination uses id accounting rather than queue draining: every task
has an id, every ack names one, and the coordinator sends the stop
sentinels once the acked set equals the set of queued ids.  A worker
that dies aborts the run loudly.
"""

import multiprocessing as mp
import queue
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.ralin import CheckStats
from ..obs.heartbeat import HeartbeatEmitter
from ..obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from ..obs.progress import progress_monitor
from ..runtime.explore_engine import ExploreStats, build_engine
from ..runtime.fp_store import FingerprintStore, FPStoreStats
from ..runtime.schedule import Program
from .exhaustive import (
    ExhaustiveResult,
    _harvest_store,
    _make_visit,
    _system_factory,
    _verify_scope,
)
from .parallel import (
    _obs_envelope,
    _require_registered,
    _worker_count,
    _worker_instrumentation,
    default_jobs,
)
from .registry import CRDTEntry, entry_by_name

#: The coordinator deepens a scope's frontier until it holds this many
#: tasks per worker, so the pool still balances when a few tasks turn
#: out much larger than the rest.
TASKS_PER_WORKER = 4


@dataclass
class StealStats:
    """Scheduler counters for one pool run.

    ``timeline`` holds one ``(task_id, worker_id, scope_index, start,
    end)`` record per executed task, on ``time.perf_counter`` clocks.
    ``tasks`` counts the frontier tasks the coordinator queued (a run
    that ends normally executes every one) and ``frontier_depth`` is the
    deepest cap it chose over the run's scopes.  ``stolen_tasks`` is
    always 0: tasks come only from the coordinator's frontier, never
    from splitting a running task.
    """

    workers: int = 0
    tasks: int = 0
    stolen_tasks: int = 0
    frontier_depth: int = 0
    idle_seconds: float = 0.0
    wall_time: float = 0.0
    timeline: List[Tuple] = field(default_factory=list)


def _take(task_q, stop, idle_box: List[float]):
    """Pull the next task; count the blocking wait as idle time.

    Returns ``None`` on the coordinator's sentinel or when ``stop`` is
    set (error abort).
    """
    try:
        return task_q.get_nowait()
    except queue.Empty:
        pass
    started = time.perf_counter()
    try:
        while not stop.is_set():
            try:
                return task_q.get(timeout=0.02)
            except queue.Empty:
                continue
        return None
    finally:
        idle_box[0] += time.perf_counter() - started


#: One scope's picklable build spec: ``(entry name, programs,
#: max_gossips, symmetry, por)``.
_ScopeSpec = Tuple[str, Dict[str, Program], Optional[int], Optional[bool],
                   str]


class _Session:
    """One process's long-lived engine session for one scope.

    A worker creates it lazily on the first task of the scope and reuses
    it for every later one: the domain, visited/expanded records, the
    ``spill`` fingerprint store and verdict caches all persist, so a
    worker that ends up with many tasks of one scope pays the serial
    run's cache economics.  Local visited records mean a subtree already
    explored by *another* process may be re-explored here — wasted work,
    never missed work — which is why the merge unions fingerprint sets
    instead of summing counts.  The coordinator walks each scope's
    frontier through a session of its own.
    """

    def __init__(self, spec: _ScopeSpec, spill_dir: Optional[str],
                 ins: Instrumentation,
                 heartbeat: Optional[HeartbeatEmitter] = None) -> None:
        name, programs, max_gossips, symmetry, por = spec
        entry = entry_by_name(name)
        self.entry = entry
        self.result = ExhaustiveResult(name)
        self.stats = ExploreStats()
        self.result.stats = self.stats
        visit = _make_visit(entry, self.result, ins)
        self.store: Optional[FingerprintStore] = None
        if spill_dir is not None:
            self.store = FingerprintStore(spill_dir=spill_dir)
        self.kind = "op" if entry.kind == "OB" else "state"
        self.engine = build_engine(
            self.kind, _system_factory(entry, programs), programs, visit,
            max_gossips=max_gossips or 0,
            symmetry=entry.symmetry if symmetry is None else symmetry,
            stats=self.stats,
            store=self.store,
            por=por,
            profile=ins.profile,
            journal=ins.journal,
            heartbeat=heartbeat,
        )

    def run(self, path: Tuple[int, ...], sleep: int) -> None:
        self.engine.run(path=path, sleep=sleep)

    def frontier(self, target: int) -> Tuple[int, List[Tuple]]:
        """``(depth, tasks)``: the shallowest frontier with at least
        ``target`` tasks, or the whole tree walked here (no tasks).
        ``target=1`` stops at depth 1 whenever the root has a child: the
        root-branch split of ``steal=False``.
        """
        depth = 0
        while True:
            depth += 1
            self.engine.run(cap=depth)
            tasks = self.engine.frontier
            if len(tasks) >= target or not tasks:
                return depth, tasks

    def harvest(self, scope_index: int, ins: Instrumentation):
        """Close out the session: ``(scope_index, result, fingerprints)``."""
        fps = set(self.engine.visited_fps)
        if self.store is not None:
            _harvest_store(self.store, self.result, ins)
        if ins.enabled:
            ins.record_explore(self.stats, kind=self.kind)
            ins.record_check(self.result.check_stats, entry=self.entry.name)
        return scope_index, self.result, fps


def _steal_worker_main(worker_id: int, scope_table: List[_ScopeSpec],
                       task_q, ack_q, stop, obs: Optional[Dict[str, Any]],
                       spill_dir: Optional[str],
                       hb_q=None, hb_interval: Optional[float] = None) -> None:
    """One worker process: pull a frontier task, explore below it, ack.

    Exits on the coordinator's ``None`` sentinel (normal) or the
    ``stop`` event (abort); a crash ships an ``("err", ...)`` record so
    the coordinator can fail loudly instead of hanging.  With ``hb_q``
    the worker owns a :class:`HeartbeatEmitter` whose records travel to
    the coordinator's :class:`ProgressMonitor` through that queue.
    """
    ins = _worker_instrumentation(obs)
    emitter: Optional[HeartbeatEmitter] = None
    if hb_q is not None:
        emitter = HeartbeatEmitter(
            worker=f"w{worker_id}", sink=hb_q.put, interval=hb_interval,
            queue_size=task_q.qsize,
        )
    sessions: Dict[int, _Session] = {}
    idle_box = [0.0]
    timeline: List[Tuple] = []
    try:
        while True:
            task = _take(task_q, stop, idle_box)
            if task is None:
                break
            task_id, scope_index, path, sleep = task
            session = sessions.get(scope_index)
            if session is None:
                session = _Session(scope_table[scope_index], spill_dir, ins,
                                   heartbeat=emitter)
                sessions[scope_index] = session
            scope_name = scope_table[scope_index][0]
            label = ":".join(map(str, task_id))
            if emitter is not None:
                emitter.begin_task(f"{scope_name}:{label}",
                                   session.stats, session.store)
            ins.journal_event("steal.claim", worker=worker_id,
                              entry=scope_name, task=label)
            started = time.perf_counter()
            with ins.span("steal.task", worker=worker_id, scope=scope_index):
                session.run(path, sleep)
            timeline.append(
                (task_id, worker_id, scope_index, started,
                 time.perf_counter())
            )
            ack_q.put(("ack", task_id))
        if emitter is not None:
            emitter.emit()  # final beat: every worker reports at least once
        results = [
            sessions[index].harvest(index, ins)
            for index in sorted(sessions)
        ]
        payload = ins.worker_payload() if obs is not None else None
        ack_q.put(("done", worker_id, results, idle_box[0], timeline,
                   payload))
    except BaseException as exc:  # ship the failure; never hang the pool
        ack_q.put(("err", worker_id, f"{type(exc).__name__}: {exc}",
                   traceback.format_exc()))


def _scope_table(
    scopes: Sequence[Tuple[CRDTEntry, Dict[str, Program], Optional[int]]],
    symmetry: Optional[bool],
    por: str = "source",
) -> List[_ScopeSpec]:
    """The picklable build spec of every scope, in input order."""
    table: List[_ScopeSpec] = []
    for entry, programs, max_gossips in scopes:
        _require_registered(entry)
        gossips = max_gossips if entry.kind == "SB" else None
        table.append((entry.name, programs, gossips, symmetry, por))
    return table


def _merge_sessions(
    entry_name: str, outcomes: List[Tuple[int, ExhaustiveResult, Any]]
) -> ExhaustiveResult:
    """One scope's result from its sessions' ``(order key, result,
    fingerprints)`` outcomes: the coordinator's (key -1) and every
    worker's that ran a task of the scope.

    The distinct-configuration count is the size of the union of the
    sessions' fingerprint sets — a configuration reached by two
    processes is counted once, exactly as serial dedup would.  Verdicts
    and failures are combined in key order, and the counters by each
    record's ``merge``: additive counters summed, wall times and peaks
    ``max``-ed (sessions run concurrently).
    """
    merged = ExhaustiveResult(entry_name)
    merged.stats = ExploreStats()
    merged.check_stats = CheckStats()
    fingerprints: set = set()
    for _, result, session_fps in sorted(outcomes, key=lambda item: item[0]):
        fingerprints |= session_fps
        if not result.ok:
            merged.ok = False
        for failure in result.failures:
            if len(merged.failures) < 10:
                merged.failures.append(failure)
        if result.stats is not None:
            merged.stats.merge(result.stats)
        if result.fp_store is not None:
            if merged.fp_store is None:
                merged.fp_store = FPStoreStats()
            merged.fp_store.merge(result.fp_store)
        # Every session checks through a shared context of its own.
        merged.check_stats.merge(result.check_stats)
    merged.configurations = len(fingerprints)
    merged.stats.configurations = merged.configurations
    return merged


def verify_scopes_steal(
    scopes: Sequence[Tuple[CRDTEntry, Dict[str, Program], Optional[int]]],
    jobs: Optional[int] = None,
    symmetry: Optional[bool] = None,
    spill: Optional[str] = None,
    instrumentation: Optional[Instrumentation] = None,
    stats_sink: Optional[Dict[str, Any]] = None,
    por: str = "source",
    progress: Optional[float] = None,
    progress_stream: Optional[Any] = None,
    heartbeat_log: Optional[str] = None,
    steal: bool = True,
) -> List[ExhaustiveResult]:
    """Run many exhaustive scopes through one frontier-split pool.

    ``scopes`` is a sequence of ``(entry, programs, max_gossips)``
    triples (``max_gossips`` ignored for op-based entries).  Returns one
    result per scope, in input order — two scopes of one entry stay two
    results — with verdicts and distinct-configuration counts identical
    to serial.  All scopes' tasks share one pool, so late scopes keep
    early workers busy.  Options:

    * ``jobs`` None or 0 means every core, as ``--jobs 0`` does; more
      than the host's cores means every core (:func:`_worker_count`),
      and one worker runs every scope serially, in this process.
    * ``steal=False`` splits every scope at its root branches only (a
      depth-1 frontier) instead of deepening until each worker has
      :data:`TASKS_PER_WORKER` tasks.
    * ``spill`` puts every session's visited/expanded records behind a
      disk-spilling fingerprint store; without it sessions keep raw
      fingerprints in memory, as serial runs do.
    * ``stats_sink``, when a dict, receives the pool's
      :class:`StealStats` under ``"steal"``.
    * ``progress`` (seconds) turns on live heartbeat rendering: workers
      emit :mod:`repro.obs.heartbeat` records through a side queue and
      the coordinator's :class:`ProgressMonitor` renders the fleet
      status line to ``progress_stream`` (stderr by default).
      ``heartbeat_log`` appends every record to a JSONL artifact, with
      or without rendering.  Both are presentation only — no effect on
      results or deterministic metrics.
    """
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    jobs = jobs or default_jobs()
    workers = _worker_count(jobs)
    scope_table = _scope_table(scopes, symmetry, por)
    monitor = progress_monitor(progress, heartbeat_log, progress_stream)
    if workers <= 1 or not scope_table:
        # Spawning one worker would pay fork, pickle and queue costs to
        # run the serial algorithm, which is the semantics the pool must
        # reproduce: run it here.
        heartbeat = monitor.local_emitter() if monitor is not None else None
        try:
            merged = [
                _verify_scope(
                    entry, programs, max_gossips or 0, engine="fast",
                    symmetry=symmetry, jobs=1, instrumentation=ins,
                    steal=True, spill=spill, por=por, heartbeat=heartbeat,
                )
                for entry, programs, max_gossips in scopes
            ]
        finally:
            if monitor is not None:
                monitor.close()
        if stats_sink is not None:
            stats_sink["steal"] = StealStats(workers=1)
        return merged

    task_q: Any = mp.Queue()
    ack_q: Any = mp.Queue()
    stop = mp.Event()
    obs = _obs_envelope(ins)
    hb_q: Any = mp.Queue() if monitor is not None else None
    started = time.perf_counter()
    for spec in scope_table:
        ins.journal_event("scope.start", entry=spec[0], workers=workers)
    # Workers start first, so their fork overlaps the frontier walks and
    # the first scope's tasks run while later frontiers are computed.
    procs = [
        mp.Process(
            target=_steal_worker_main,
            args=(worker_id, scope_table, task_q, ack_q, stop, obs,
                  spill, hb_q, progress),
            daemon=True,
        )
        for worker_id in range(workers)
    ]
    for proc in procs:
        proc.start()

    coordinator: Dict[int, _Session] = {}
    target = TASKS_PER_WORKER * workers if steal else 1
    frontier_depth = 0
    expected: set = set()
    acked: set = set()
    errors: List[str] = []
    dones: List[Tuple] = []
    done_workers: set = set()
    sent_sentinels = False
    try:
        for scope_index, spec in enumerate(scope_table):
            session = _Session(spec, spill, ins)
            coordinator[scope_index] = session
            with ins.span("steal.frontier", scope=scope_index):
                depth, tasks = session.frontier(target)
            frontier_depth = max(frontier_depth, depth)
            for number, (path, sleep) in enumerate(tasks):
                task_id = (scope_index, number)
                expected.add(task_id)
                task_q.put((task_id, scope_index, path, sleep))
        while len(dones) < len(procs) and not errors:
            if not sent_sentinels and expected == acked:
                for _ in procs:
                    task_q.put(None)
                sent_sentinels = True
            if monitor is not None:
                monitor.drain(hb_q)
                monitor.maybe_render()
            try:
                message = ack_q.get(timeout=1.0)
            except queue.Empty:
                for worker_id, proc in enumerate(procs):
                    if not proc.is_alive() and worker_id not in done_workers:
                        errors.append(
                            f"worker {worker_id} died "
                            f"(exit code {proc.exitcode})"
                        )
                continue
            kind = message[0]
            if kind == "ack":
                acked.add(message[1])
            elif kind == "done":
                dones.append(message)
                done_workers.add(message[1])
            else:  # ("err", worker_id, summary, traceback)
                errors.append(f"worker {message[1]}: {message[2]}\n"
                              f"{message[3]}")
    finally:
        stop.set()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
        if monitor is not None:
            monitor.drain(hb_q)
            monitor.close()
            hb_q.close()
        task_q.close()
        ack_q.close()
    if errors:
        raise RuntimeError(
            "frontier-split exploration failed: " + "; ".join(errors)
        )

    steal_stats = StealStats(
        workers=workers,
        tasks=len(acked),
        frontier_depth=frontier_depth,
        wall_time=time.perf_counter() - started,
    )
    outcomes: List[List[Tuple[int, ExhaustiveResult, Any]]] = [
        [] for _ in scope_table
    ]
    for scope_index, session in coordinator.items():
        _, result, fps = session.harvest(scope_index, ins)
        outcomes[scope_index].append((-1, result, fps))
    for _, worker_id, results, idle_seconds, timeline, payload in dones:
        ins.absorb_worker(payload)
        steal_stats.idle_seconds += idle_seconds
        steal_stats.timeline.extend(timeline)
        for scope_index, result, fps in results:
            outcomes[scope_index].append((worker_id, result, fps))
    with ins.span("steal.merge", scopes=len(scope_table),
                  tasks=steal_stats.tasks):
        merged = [
            _merge_sessions(spec[0], scope_outcomes)
            for spec, scope_outcomes in zip(scope_table, outcomes)
        ]
    if ins.enabled:
        ins.record_steal(steal_stats)
        for result in merged:
            ins.record_result(result.entry_name, result)
            ins.journal_event("scope.end", entry=result.entry_name,
                              ok=result.ok,
                              configurations=result.configurations)
    if stats_sink is not None:
        stats_sink["steal"] = steal_stats
    return merged


def exhaustive_verify_steal(
    entry: CRDTEntry,
    programs: Dict[str, Program],
    jobs: Optional[int] = None,
    max_gossips: int = 3,
    symmetry: Optional[bool] = None,
    spill: Optional[str] = None,
    instrumentation: Optional[Instrumentation] = None,
    stats_sink: Optional[Dict[str, Any]] = None,
    por: str = "source",
    progress: Optional[float] = None,
    progress_stream: Optional[Any] = None,
    heartbeat_log: Optional[str] = None,
    steal: bool = True,
) -> ExhaustiveResult:
    """Frontier-split parallel exhaustive verification of one registry
    entry: the one-scope case of :func:`verify_scopes_steal`, which
    documents the options.

    Semantically identical to :func:`exhaustive_verify` /
    :func:`exhaustive_verify_state` with the fast engine — same verdict,
    same distinct-configuration count — but explored by ``jobs`` worker
    processes.  ``max_gossips`` only applies to state-based entries.  An
    effective pool of one worker runs the serial algorithm inline.
    """
    gossips = max_gossips if entry.kind == "SB" else None
    (result,) = verify_scopes_steal(
        [(entry, programs, gossips)], jobs=jobs, symmetry=symmetry,
        spill=spill, instrumentation=instrumentation,
        stats_sink=stats_sink, por=por,
        progress=progress, progress_stream=progress_stream,
        heartbeat_log=heartbeat_log, steal=steal,
    )
    return result
