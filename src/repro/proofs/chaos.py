"""Chaos soak: every registry CRDT under an explicit, replayable adversary.

A chaos run drives one catalogue entry — op-based through
:class:`~repro.runtime.faults.UnreliableCausalBroadcast`, state-based
through :class:`~repro.runtime.faults.LossyGossipDriver` — against a
:class:`~repro.runtime.faults.FaultPlan`, interleaving workload
invocations with adversarial delivery, then quiesces, closes with a read
at every replica, and checks:

* the entry-appropriate **RA-linearizability** verdict (execution-order
  or timestamp-order candidate, per the entry's Fig. 12 class), and
* the **convergence oracle** (replicas with equal visible sets agree).

Everything the adversary did lands in an
:class:`~repro.runtime.faults.AdversaryTrace` that replays bit-for-bit
from ``(entry, seed, plan, operations)``; :func:`dump_trace` /
:func:`replay_trace` ship failing runs around as JSON.  Metrics flow
through the PR-3 :class:`~repro.obs.Instrumentation` handle as
``chaos.*`` instruments.
"""

import json
import random
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Union,
)

from ..core.convergence import check_convergence
from ..core.errors import PreconditionViolation
from ..core.ralin import RACheckContext
from ..obs import Instrumentation, NULL_INSTRUMENTATION
from ..obs.progress import progress_monitor
from ..runtime.faults import (
    AdversaryTrace,
    CrashSpec,
    FaultPlan,
    LossyGossipDriver,
    PartitionWindow,
    TRACE_SCHEMA,
    UnreliableCausalBroadcast,
)
from ..runtime.state_system import StateBasedSystem
from ..runtime.system import OpBasedSystem
from .registry import ALL_ENTRIES, CRDTEntry, entry_by_name

DEFAULT_REPLICAS = ("r1", "r2", "r3")


def default_plans(replicas: Sequence[str] = DEFAULT_REPLICAS) -> List[FaultPlan]:
    """The standard soak plans: baseline chaos, heavy loss, a partition
    window, and a replica crash+recovery."""
    second = replicas[1] if len(replicas) > 1 else replicas[0]
    rest = tuple(r for r in replicas if r != second)
    return [
        FaultPlan(
            name="baseline",
            drop_probability=0.25,
            duplicate_probability=0.25,
            delay_probability=0.15,
            stale_probability=0.25,
        ),
        FaultPlan(
            name="high-loss",
            drop_probability=0.9,
            duplicate_probability=0.1,
            stale_probability=0.3,
        ),
        FaultPlan(
            name="partition",
            drop_probability=0.1,
            duplicate_probability=0.2,
            stale_probability=0.2,
            partitions=(PartitionWindow(4, 18, ((second,), rest)),),
        ),
        FaultPlan(
            name="crash",
            drop_probability=0.2,
            duplicate_probability=0.2,
            delay_probability=0.1,
            stale_probability=0.2,
            crashes=(CrashSpec(second, at_step=6, recover_step=22),),
        ),
    ]


def plan_by_name(name: str,
                 replicas: Sequence[str] = DEFAULT_REPLICAS) -> FaultPlan:
    for plan in default_plans(replicas):
        if plan.name == name:
            return plan
    raise KeyError(name)


@dataclass
class ChaosReport:
    """Outcome of one chaos run: verdicts plus the replayable trace."""

    entry_name: str
    kind: str
    lin_class: str
    seed: int
    plan: FaultPlan
    operations: int
    ra_ok: bool
    converged: bool
    reason: str
    trace: AdversaryTrace
    network_stats: Any = None
    offenders: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.ra_ok and self.converged


def _drive(
    entry: CRDTEntry,
    driver: Union[UnreliableCausalBroadcast, LossyGossipDriver],
    advance: Callable[[], None],
    move: Callable[[], Any],
    seed: int,
    operations: int,
) -> None:
    """Interleave ``operations`` workload invocations with adversarial
    message moves, then quiesce, read at every replica and quiesce again.

    ``advance`` starts each step (the op-based network also broadcasts
    the effectors generated since the last one) and ``move`` transfers
    one message: an effector delivery or a gossip.
    """
    system, plan, trace = driver.system, driver.plan, driver.trace
    rng = random.Random(f"chaos-ops-{seed}")
    workload = entry.make_workload()
    issued = 0
    stalled = 0
    while issued < operations:
        advance()
        alive = [
            r for r in system.replicas
            if not plan.crashed(driver.step, r)
        ]
        if not alive:
            stalled += 1
            if stalled > 10000:
                raise RuntimeError("every replica is crashed forever")
            continue
        if rng.random() < 0.5:
            move()
            continue
        replica = rng.choice(alive)
        proposal = workload.propose(system.state(replica), rng)
        if proposal is None:
            continue
        method, args = proposal
        try:
            system.invoke(replica, method, args)
        except PreconditionViolation:
            continue
        issued += 1
        trace.record(driver.step, "invoke", replica,
                     len(system.generation_order) - 1)
    driver.run_to_quiescence()
    for replica in system.replicas:
        system.invoke(replica, "read", ())
        trace.record(driver.step, "invoke", replica,
                     len(system.generation_order) - 1)
    driver.run_to_quiescence()


def run_chaos(
    entry: CRDTEntry,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    operations: Optional[int] = None,
    replicas: Sequence[str] = DEFAULT_REPLICAS,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> ChaosReport:
    """One deterministic chaos run over ``entry``; see the module docs.

    The run — workload choices, adversary decisions, verdicts — is a
    pure function of ``(entry, seed, plan, operations, replicas)``.
    """
    if plan is None:
        plan = default_plans(replicas)[0]
    if operations is None:
        operations = entry.chaos_operations
    trace = AdversaryTrace(seed=seed, plan=plan)
    with instrumentation.span("chaos.run", entry=entry.name, plan=plan.name):
        system: Union[OpBasedSystem, StateBasedSystem]
        driver: Union[UnreliableCausalBroadcast, LossyGossipDriver]
        if entry.kind == "OB":
            system = OpBasedSystem(entry.make_crdt(), replicas)
            network = UnreliableCausalBroadcast(
                system, seed=seed, plan=plan, trace=trace
            )

            def advance() -> None:
                network.tick()
                network.broadcast_new()

            driver, move = network, network.deliver_one
        else:
            system = StateBasedSystem(entry.make_crdt(), replicas)
            driver = LossyGossipDriver(
                system, seed=seed, plan=plan, trace=trace
            )
            advance, move = driver.tick, driver.gossip_once
        _drive(entry, driver, advance, move, seed, operations)
        context = RACheckContext(
            entry.make_spec(), entry.make_gamma(), entry.lin_class
        )
        outcome = context.check(system.history(), system.generation_order)
        converged, offenders = check_convergence(system.replica_views())
    report = ChaosReport(
        entry_name=entry.name,
        kind=entry.kind,
        lin_class=entry.lin_class,
        seed=seed,
        plan=plan,
        operations=len(system.generation_order),
        ra_ok=outcome.ok,
        converged=converged,
        reason=outcome.reason if not outcome.ok else (
            f"divergent replicas {offenders}" if not converged else ""
        ),
        trace=trace,
        network_stats=driver.stats,
        offenders=list(offenders),
    )
    for crash in plan.crashes:
        instrumentation.journal_event(
            "chaos.crash", entry=entry.name, plan=plan.name, seed=seed,
            replica=crash.replica, at_step=crash.at_step,
            recover_step=crash.recover_step,
        )
    instrumentation.record_chaos(report)
    return report


def chaos_soak(
    entries: Sequence[CRDTEntry] = ALL_ENTRIES,
    plans: Optional[Sequence[FaultPlan]] = None,
    soak: int = 1,
    base_seed: int = 0,
    operations: Optional[int] = None,
    replicas: Sequence[str] = DEFAULT_REPLICAS,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    progress: Optional[float] = None,
    progress_stream: Optional[Any] = None,
    heartbeat_log: Optional[str] = None,
) -> List[ChaosReport]:
    """Run every (entry, plan, seed) combination: ``soak`` seeds each.

    ``progress`` renders a live heartbeat line after each run (the soak
    is serial, so the soak loop itself is the beat source);
    ``heartbeat_log`` appends the records to a JSONL artifact.  Both are
    presentation only.
    """
    if plans is None:
        plans = default_plans(replicas)
    monitor = progress_monitor(progress, heartbeat_log, progress_stream)
    total = len(entries) * len(plans) * soak
    done = 0
    total_operations = 0
    reports = []
    try:
        for entry in entries:
            for plan in plans:
                for offset in range(soak):
                    report = run_chaos(
                        entry, seed=base_seed + offset, plan=plan,
                        operations=operations, replicas=replicas,
                        instrumentation=instrumentation,
                    )
                    reports.append(report)
                    done += 1
                    total_operations += report.operations
                    if monitor is not None:
                        monitor.ingest({
                            "wall": time.time(),
                            "worker": "soak",
                            "task": f"{entry.name}/{plan.name}"
                                    f"#{base_seed + offset}",
                            "configs": total_operations,
                            "configs_per_sec": None,
                            "frontier": None,
                            "queue": total - done,
                            "dedup_ratio": None,
                            "spill": None,
                        })
    finally:
        if monitor is not None:
            monitor.close()
    return reports


def format_chaos(reports: Sequence[ChaosReport],
                 title: Optional[str] = None) -> str:
    """Render chaos reports as a table, failures listed below."""
    header = (
        f"{'CRDT':<18} {'plan':<10} {'seed':>4} {'ops':>4} {'events':>7} "
        f"{'RA':<4} {'conv':<5} verdict"
    )
    lines = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    failures = []
    for report in reports:
        lines.append(
            f"{report.entry_name:<18} {report.plan.name:<10} "
            f"{report.seed:>4} {report.operations:>4} "
            f"{len(report.trace.events):>7} "
            f"{'ok' if report.ra_ok else 'NO':<4} "
            f"{'ok' if report.converged else 'NO':<5} "
            f"{'ok' if report.ok else 'FAIL'}"
        )
        if not report.ok:
            failures.append(
                f"  {report.entry_name} [{report.plan.name} seed "
                f"{report.seed}]: {report.reason}"
            )
    if failures:
        lines.append("")
        lines.append("failures:")
        lines.extend(failures)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Trace dump / replay
# ----------------------------------------------------------------------


def trace_document(report: ChaosReport) -> Dict[str, Any]:
    """The JSON document a dumped chaos trace ships as."""
    document = {
        "schema": TRACE_SCHEMA,
        "entry": report.entry_name,
        "operations_requested": None,  # filled by dump_trace callers
        "ra_ok": report.ra_ok,
        "converged": report.converged,
        "reason": report.reason,
    }
    document.update(report.trace.to_dict())
    return document


def dump_trace(report: ChaosReport, path: str,
               operations: Optional[int] = None) -> Dict[str, Any]:
    """Write ``report``'s trace (plus verdicts) to ``path`` as JSON.

    ``operations`` is the *requested* operation budget of the run (the
    registry default when None), recorded so :func:`replay_trace` can
    re-run with identical inputs.
    """
    document = trace_document(report)
    document["operations_requested"] = operations
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


@dataclass
class ReplayResult:
    """Outcome of replaying a dumped trace against a fresh run."""

    report: ChaosReport
    trace_matches: bool
    verdict_matches: bool

    @property
    def ok(self) -> bool:
        return self.trace_matches and self.verdict_matches


def replay_trace(
    source: Union[str, Mapping[str, Any]],
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> ReplayResult:
    """Re-run a dumped chaos trace from its ``(seed, plan)`` and compare.

    ``trace_matches`` is the bit-for-bit determinism check (event-stream
    fingerprints agree); ``verdict_matches`` confirms the replay reaches
    the same RA-linearizability + convergence verdicts.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    else:
        document = dict(source)
    if document.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"not a chaos trace (schema {document.get('schema')!r})"
        )
    entry = entry_by_name(document["entry"])
    plan = FaultPlan.from_dict(document["plan"])
    report = run_chaos(
        entry,
        seed=document["seed"],
        plan=plan,
        operations=document.get("operations_requested"),
        instrumentation=instrumentation,
    )
    result = ReplayResult(
        report=report,
        trace_matches=report.trace.fingerprint() == document["fingerprint"],
        verdict_matches=(
            report.ra_ok == document["ra_ok"]
            and report.converged == document["converged"]
        ),
    )
    instrumentation.journal_event(
        "chaos.replay", entry=entry.name, plan=plan.name,
        seed=document["seed"], trace_matches=result.trace_matches,
        verdict_matches=result.verdict_matches,
    )
    return result


__all__ = [
    "ChaosReport",
    "ReplayResult",
    "chaos_soak",
    "default_plans",
    "dump_trace",
    "format_chaos",
    "plan_by_name",
    "replay_trace",
    "run_chaos",
    "trace_document",
]
