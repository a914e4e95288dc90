"""Exhaustive small-scope verification of op-based CRDTs.

Random testing (``verify_entry``) samples executions; this module *covers*
them: for fixed per-replica programs, every interleaving of generators and
causal deliveries is explored (the Sec. 3.3 explorer), and every reachable
quiescent execution is checked —

* its history is RA-linearizable via the entry's EO/TO candidate
  construction, and
* replicas that saw the same operations converged.

Within the chosen scope this is a *proof*: no execution of these programs
violates RA-linearizability.  It is the closest executable analogue of the
paper's per-CRDT Boogie proofs, which quantify over all executions
symbolically.
"""

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.convergence import check_convergence
from ..core.ralin import CheckStats, RACheckContext
from ..obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from ..runtime.explore_engine import ExploreStats
from ..runtime.explore_naive import (
    explore_op_programs_naive,
    explore_state_programs_naive,
)
from ..runtime.fp_store import FingerprintStore, FPStoreStats
from ..runtime.schedule import Program, explore_op_programs
from ..runtime.state_explore import explore_state_programs
from ..runtime.state_system import StateBasedSystem
from ..runtime.system import OpBasedSystem
from .registry import CRDTEntry


@dataclass
class ExhaustiveResult:
    """Outcome of an exhaustive small-scope verification."""

    entry_name: str
    configurations: int = 0
    ok: bool = True
    failures: List[str] = field(default_factory=list)
    #: Exploration counters (dedup hits, prunes, wall time, …); None when
    #: the naive baseline engine ran.
    stats: Optional[ExploreStats] = None
    #: Verification-cache counters (verdict memo, frontier trie) of the
    #: run's shared :class:`RACheckContext`; None for a whole-store
    #: product run, which checks the composed specification instead.
    check_stats: Optional[CheckStats] = None
    #: Fingerprint-store counters when the run spilled (``spill`` set);
    #: None otherwise.
    fp_store: Optional[FPStoreStats] = None

    def record(self, message: str) -> None:
        self.ok = False
        if len(self.failures) < 10:
            self.failures.append(message)


def _make_visit(
    entry: CRDTEntry,
    result: ExhaustiveResult,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
):
    """The per-configuration verification callback.

    One spec, one γ, one frontier trie and one verdict memo are shared
    across every visited configuration (:class:`RACheckContext`);
    ``tests/proofs/test_exhaustive_cache.py`` pins its verdicts against
    fresh :func:`~repro.core.ralin.execution_order_check` /
    :func:`~repro.core.ralin.timestamp_order_check` calls.

    When instrumentation is enabled the check context runs ``timed``
    (per-condition wall time in ``CheckStats.cond_seconds``), failing
    culprits are counted by method, and — with ``trace_checks`` — every
    configuration's check verdict becomes one trace event.
    """
    ins = instrumentation

    def report(system, outcome) -> None:
        trace = getattr(system, "trace", None)  # state-based keeps no trace
        suffix = (
            f"; trace={[(k, r, repr(l)) for k, r, l in trace]}"
            if trace is not None else ""
        )
        result.record(
            f"non-RA-linearizable interleaving: {outcome.reason}{suffix}"
        )
        if ins.enabled and ins.metrics is not None:
            culprit = getattr(outcome, "culprit", None)
            ins.metrics.counter(
                "check.culprit", entry=entry.name,
                method=culprit.method if culprit is not None else "?",
            ).inc()

    def observe(outcome) -> None:
        if ins.trace_checks:
            ins.event(
                "check", entry=entry.name, ok=outcome.ok,
                reason=None if outcome.ok else outcome.reason,
                condition=getattr(outcome, "condition", None),
            )

    context = RACheckContext(
        entry.make_spec(), entry.make_gamma(), entry.lin_class,
        timed=ins.enabled,
    )
    result.check_stats = context.stats

    def check(system) -> None:
        outcome = context.check(system.history(), system.generation_order)
        observe(outcome)
        if not outcome.ok:
            report(system, outcome)

    profile = ins.profile

    def visit(system, returns) -> None:
        if profile is None:
            check(system)
            converged, offenders = check_convergence(system.replica_views())
        else:
            # Spec replay + RA check and the convergence oracle run
            # inside the engine's wall clock, so these two phases tile
            # the same total as the engine-side domain phases.
            start = time.perf_counter()
            check(system)
            mid = time.perf_counter()
            converged, offenders = check_convergence(system.replica_views())
            end = time.perf_counter()
            profile.add("check", mid - start)
            profile.add("convergence", end - mid)
        if not converged:
            result.record(f"divergent replicas {offenders}")

    return visit


def _harvest_store(store: FingerprintStore, result: ExhaustiveResult,
                   ins: Instrumentation) -> None:
    """Attach a finished run's store counters to ``result``, record them,
    and close the store."""
    result.fp_store = store.stats
    if ins.enabled:
        ins.record_fp_store(store.stats, entry=result.entry_name)
        if store.stats.spilled:
            ins.journal_event(
                "spill.promote", entry=result.entry_name,
                spilled=store.stats.spilled,
                evictions=store.stats.evictions,
            )
    store.close()


def _system_factory(
    entry: CRDTEntry, programs: Dict[str, Program]
) -> Callable[[], Any]:
    """The runtime system constructor of one scope: op- or state-based
    by the entry's kind, over the programs' replicas."""
    system_class = OpBasedSystem if entry.kind == "OB" else StateBasedSystem
    replicas = sorted(programs)

    def make_system():
        return system_class(entry.make_crdt(), replicas=replicas)

    return make_system


def _verify_scope(
    entry: CRDTEntry,
    programs: Dict[str, Program],
    max_gossips: Optional[int],
    engine: str,
    symmetry: Optional[bool],
    jobs: int,
    instrumentation: Optional[Instrumentation],
    steal: bool,
    spill: Optional[str],
    por: str,
    heartbeat: Optional[object],
) -> ExhaustiveResult:
    """The one driver behind :func:`exhaustive_verify` and
    :func:`exhaustive_verify_state`; ``max_gossips`` only applies to
    state-based entries.  Every ``jobs`` other than 1 goes through the
    pool, which reads 0 as every core and runs a one-worker pool
    inline."""
    if engine not in ("fast", "naive"):
        raise ValueError(f"unknown engine {engine!r}: use 'fast' or 'naive'")
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    if jobs != 1:
        if engine == "naive":
            raise ValueError("the naive engine runs with jobs=1 only")
        from .steal import exhaustive_verify_steal

        return exhaustive_verify_steal(
            entry, programs, jobs=jobs, max_gossips=max_gossips,
            symmetry=symmetry, instrumentation=ins, steal=steal, spill=spill,
            por=por,
        )
    fast = engine == "fast"
    result = ExhaustiveResult(entry.name)
    visit = _make_visit(entry, result, ins)
    store: Optional[FingerprintStore] = None
    if spill is not None and fast:
        store = FingerprintStore(spill_dir=spill)
    ins.journal_event("scope.start", entry=entry.name, family=entry.kind)
    if heartbeat is not None:
        heartbeat.begin_task(entry.name)
    make_system = _system_factory(entry, programs)
    if entry.kind == "OB":
        explore, explore_naive = explore_op_programs, explore_op_programs_naive
        options = {}
    else:
        explore = explore_state_programs
        explore_naive = explore_state_programs_naive
        options = {"max_gossips": max_gossips}
    with ins.span("exhaustive.scope", entry=entry.name, kind=entry.kind):
        if fast:
            result.stats = ExploreStats()
            result.configurations = explore(
                make_system, programs, visit,
                symmetry=entry.symmetry if symmetry is None else symmetry,
                stats=result.stats,
                instrumentation=ins,
                store=store,
                por=por,
                heartbeat=heartbeat,
                **options,
            )
        else:
            result.configurations = explore_naive(
                make_system, programs, visit, **options
            )
    if heartbeat is not None:
        heartbeat.emit()  # final beat: short scopes get at least one
    if store is not None:
        _harvest_store(store, result, ins)
    if ins.enabled:
        ins.record_check(result.check_stats, entry=entry.name)
        ins.record_result(entry.name, result)
        ins.journal_event(
            "scope.end", entry=entry.name, ok=result.ok,
            configurations=result.configurations,
        )
    return result


def exhaustive_verify(
    entry: CRDTEntry,
    programs: Dict[str, Program],
    engine: str = "fast",
    symmetry: Optional[bool] = None,
    jobs: int = 1,
    instrumentation: Optional[Instrumentation] = None,
    steal: bool = True,
    spill: Optional[str] = None,
    por: str = "source",
    heartbeat: Optional[object] = None,
) -> ExhaustiveResult:
    """Check every interleaving of ``programs`` against the entry's class.

    Only op-based entries are supported here; state-based ones go
    through :func:`exhaustive_verify_state`, which bounds the gossip
    steps.

    ``engine`` selects ``"fast"`` (the default: partial-order reduction
    + dedup + copy-on-write snapshots) or ``"naive"`` (the raw-interleaving
    baseline, for differential testing and benchmarking); both check
    every configuration through one shared :class:`RACheckContext`.
    ``symmetry`` overrides ``CRDTEntry.symmetry`` (replica-orbit dedup —
    with it on, ``configurations`` counts orbits, not raw
    configurations).

    ``jobs > 1`` fans the exploration out over worker processes through
    the frontier-split pool
    (:func:`repro.proofs.steal.exhaustive_verify_steal`), and ``jobs=0``
    uses every core; ``steal=False`` splits there at the root branches
    only.  The pool returns the serial verdict and count.  It does not
    run the naive engine.

    Without ``spill`` the visited/expanded records hold raw canonical
    fingerprints in memory.  ``spill DIR`` interns them as fixed-width
    digests behind a collision-checked :class:`FingerprintStore` and
    spills the records to a scratch sqlite file under ``DIR`` past a
    bounded in-memory tier — the 4-replica-scope memory valve (see
    ``docs/performance.md``).

    ``instrumentation`` threads the observability handle through the
    whole run (scope span, exploration/cache metrics, the deterministic
    ``verify.*`` counters — the pool records those once, on its merged
    result).

    ``por`` selects the partial-order-reduction flavor: ``"source"``
    (the default: source-DPOR — race-driven source sets over the sleep
    sets with wakeup-tree continuations and patch cuts) or ``"sleep"``
    (classic sleep sets, the differential oracle).  Both visit the same
    configuration set; source explores fewer interleavings to get
    there.

    ``heartbeat`` threads a
    :class:`~repro.obs.heartbeat.HeartbeatEmitter` into the engine for
    serial ``--progress`` runs (the parallel pool attaches per-worker
    emitters itself); None keeps the hot loop at one attribute check.
    """
    if entry.kind != "OB":
        raise ValueError(
            f"{entry.name} is state-based; exhaustive exploration covers "
            "op-based entries only"
        )
    return _verify_scope(
        entry, programs, None, engine, symmetry, jobs, instrumentation,
        steal, spill, por, heartbeat,
    )


def exhaustive_verify_state(
    entry: CRDTEntry,
    programs: Dict[str, Program],
    max_gossips: int = 3,
    engine: str = "fast",
    symmetry: Optional[bool] = None,
    jobs: int = 1,
    instrumentation: Optional[Instrumentation] = None,
    steal: bool = True,
    spill: Optional[str] = None,
    por: str = "source",
    heartbeat: Optional[object] = None,
) -> ExhaustiveResult:
    """Bounded exhaustive verification of a state-based entry.

    Explores every interleaving of the programs with up to ``max_gossips``
    gossip steps (see :mod:`repro.runtime.state_explore`) and checks the
    EO/TO candidate linearization plus convergence on each.  ``engine``,
    ``symmetry``, ``jobs``, ``steal``, ``spill``, ``por`` and
    ``instrumentation`` behave as in :func:`exhaustive_verify`.
    """
    if entry.kind != "SB":
        raise ValueError(f"{entry.name} is op-based; use exhaustive_verify")
    return _verify_scope(
        entry, programs, max_gossips, engine, symmetry, jobs,
        instrumentation, steal, spill, por, heartbeat,
    )


def standard_programs(entry: CRDTEntry) -> Dict[str, Program]:
    """A conflict-heavy two-replica program pair per data type."""
    name = entry.name
    if name == "G-Counter":
        return {
            "r1": [("inc", ()), ("read", ())],
            "r2": [("inc", ()), ("read", ())],
        }
    if "Counter" in name:
        return {
            "r1": [("inc", ()), ("read", ()), ("dec", ())],
            "r2": [("inc", ()), ("read", ())],
        }
    if "OR-Set" in name or name == "2P-Set (op)":
        if name == "2P-Set (op)":
            return {
                "r1": [("add", ("a",)), ("read", ())],
                "r2": [("add", ("b",)), ("read", ())],
            }
        return {
            "r1": [("add", ("a",)), ("remove", ("a",)), ("read", ())],
            "r2": [("add", ("a",)), ("read", ())],
        }
    if "LWW-Register" in name or name == "Multi-Value Reg.":
        return {
            "r1": [("write", ("a",)), ("read", ())],
            "r2": [("write", ("b",)), ("read", ())],
        }
    if name == "LWW-Element Set":
        return {
            "r1": [("add", ("a",)), ("remove", ("a",)), ("read", ())],
            "r2": [("add", ("a",)), ("read", ())],
        }
    if name == "2P-Set":
        return {
            "r1": [("add", ("a",)), ("read", ())],
            "r2": [("add", ("b",)), ("read", ())],
        }
    if name == "G-Set":
        return {
            "r1": [("add", ("a",)), ("read", ())],
            "r2": [("add", ("b",)), ("read", ())],
        }
    if name == "RGA":
        from ..core.sentinels import ROOT

        return {
            "r1": [("addAfter", (ROOT, "a")), ("read", ())],
            "r2": [("addAfter", (ROOT, "b")), ("read", ())],
        }
    if name == "RGA-addAt":
        return {
            "r1": [("addAt", ("a", 0)), ("read", ())],
            "r2": [("addAt", ("b", 0)), ("read", ())],
        }
    if name == "Wooki":
        from ..core.sentinels import BEGIN, END

        return {
            "r1": [("addBetween", (BEGIN, "a", END)), ("read", ())],
            "r2": [("addBetween", (BEGIN, "b", END)), ("read", ())],
        }
    raise KeyError(f"no standard programs for {name}")
