"""Compositional per-object verification of multi-object stores (Sec. 5).

A store of N named objects is a composition ``o1 ⊗ts … ⊗ts oN`` (shared
timestamp generator) or ``o1 ⊗ … ⊗ oN`` (independent generators).  The
monolithic route — explore every interleaving of the *product* store and
check each history against the composed specification — multiplies the
per-object state spaces together and is hopeless beyond two small objects.

Theorems 5.3/5.5 justify a decomposition in the style of Nagar &
Jagannathan's parameterized CRDT proofs: under ⊗ts the composed store is
RA-linearizable iff

(a) every *projection* of the history onto one object is RA-linearizable
    w.r.t. that object's specification — discharged here by running the
    existing exhaustive engine per object on the per-object programs; and
(b) the ⊗ts side condition holds: every fresh timestamp dominates the
    timestamps of all operations visible at the issuing replica
    *regardless of object*, which is what lets chosen per-object
    linearizations merge into one global witness
    (:func:`~repro.runtime.composition.combine_per_object`).  When the
    merge fails the offending cycle is exactly the Fig. 9/Fig. 10
    counterexample shape, and it is reported as such.

For stores that opt out of shared timestamps the rule is *unsound*
(Fig. 9/Fig. 10 are per-object linearizable but globally not), so
:func:`verify_store` falls back to the whole-store product exploration —
the same differential oracle the tests pit the compositional verdicts
against.
"""

import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.history import History
from ..core.ralin import execution_order_check, timestamp_order_check
from ..core.rewriting import rewrite_history
from ..core.timestamp import BOTTOM
from ..obs.heartbeat import HeartbeatEmitter
from ..obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from ..obs.progress import progress_monitor
from ..runtime.composition import (
    check_composed_ra_linearizable,
    combine_per_object,
    per_object_rewriting,
)
from ..runtime.explore_engine import ExploreStats
from ..runtime.schedule import explore_op_programs
from ..runtime.system import OpBasedSystem
from .exhaustive import ExhaustiveResult, standard_programs
from .registry import ALL_ENTRIES, CRDTEntry
from .steal import verify_scopes_steal

#: Per-replica store programs: ``(method, args, object_name)`` triples.
StoreProgram = Dict[str, List[Tuple]]

#: Product configurations sampled by the ⊗ts side-condition sweep.
SIDE_CONDITION_LIMIT = 25


# ----------------------------------------------------------------------
# Store specifications
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Store:
    """A named multi-object store: object name → registry entry."""

    objects: Tuple[Tuple[str, CRDTEntry], ...]
    shared_timestamps: bool = True

    @property
    def names(self) -> List[str]:
        return [name for name, _ in self.objects]

    def entry(self, name: str) -> CRDTEntry:
        for obj, entry in self.objects:
            if obj == name:
                return entry
        raise KeyError(name)

    def spec_string(self) -> str:
        """Canonical ``counter:2,or_set:1``-style rendering."""
        counts: Dict[str, int] = {}
        for _, entry in self.objects:
            key = _store_key_canonical(entry.name)
            counts[key] = counts.get(key, 0) + 1
        return ",".join(f"{key}:{count}" for key, count in counts.items())

    def describe(self) -> str:
        op = "⊗ts" if self.shared_timestamps else "⊗"
        return f" {op} ".join(
            f"{name}={entry.name}" for name, entry in self.objects
        )


def _store_key(name: str) -> str:
    """Lax matching key: ``"OR-Set"`` → ``orset`` (accepts ``or_set`` too)."""
    return re.sub(r"[^a-z0-9]+", "", name.lower())


def _store_key_canonical(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def parse_store_spec(
    spec: str, shared_timestamps: bool = True
) -> Store:
    """Parse ``"counter:2,orset:1"`` into a :class:`Store`.

    Each part is ``<entry>[:<count>]`` where ``<entry>`` names an op-based
    registry entry (laxly normalized, so ``orset`` and ``or_set`` both
    match ``OR-Set``).  Objects are named ``counter`` for a single
    instance and ``counter1``, ``counter2``, … for multiples.
    """
    entries = [e for e in ALL_ENTRIES if e.kind == "OB"]
    by_key = {_store_key(e.name): e for e in entries}
    objects: List[Tuple[str, CRDTEntry]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count_str = part.partition(":")
        key = _store_key(name)
        if key not in by_key:
            available = ", ".join(
                _store_key_canonical(e.name) for e in entries
            )
            raise ValueError(
                f"unknown store object {name!r}; available: {available}"
            )
        count = int(count_str) if count_str else 1
        if count < 1:
            raise ValueError(f"object count must be >= 1 in {part!r}")
        entry = by_key[key]
        base = _store_key_canonical(entry.name)
        for index in range(1, count + 1):
            obj = base if count == 1 else f"{base}{index}"
            objects.append((obj, entry))
    if not objects:
        raise ValueError("store spec names no objects")
    return Store(tuple(objects), shared_timestamps=shared_timestamps)


def store_programs(
    store: Store, replicas: Sequence[str] = ("r1", "r2")
) -> StoreProgram:
    """Default conflict-heavy store programs: each object contributes its
    :func:`~repro.proofs.exhaustive.standard_programs` ops, tagged with the
    object name and concatenated per replica."""
    programs: StoreProgram = {r: [] for r in replicas}
    for obj, entry in store.objects:
        per_object = standard_programs(entry)
        for replica in replicas:
            for op in per_object.get(replica, []):
                method, args = op[0], op[1]
                programs[replica].append((method, args, obj))
    return programs


def project_programs(
    programs: StoreProgram, obj: str
) -> Dict[str, List[Tuple]]:
    """Restrict store programs to one object's ops (as 2-tuples)."""
    projected: Dict[str, List[Tuple]] = {}
    for replica, ops in programs.items():
        kept = [
            (op[0], op[1]) for op in ops
            if (op[2] if len(op) > 2 else None) == obj
        ]
        if kept:
            projected[replica] = kept
    return projected


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class CombineCounterexample:
    """A Fig. 9/Fig. 10-shaped failure: per-object linearizations exist
    but cannot merge into one global linearization."""

    labels: List[str]
    per_object_orders: Dict[str, List[str]]

    def describe(self) -> str:
        orders = "; ".join(
            f"{obj}: {' < '.join(order)}"
            for obj, order in sorted(self.per_object_orders.items())
        )
        return (
            "per-object linearizations cannot be combined "
            f"(Fig. 9/Fig. 10 cycle) — {orders}"
        )


@dataclass
class StoreResult:
    """Outcome of a multi-object store verification."""

    store: str
    mode: str                     # "compositional" | "product"
    ok: bool = True
    #: Per-object exhaustive results (compositional mode).
    objects: Dict[str, ExhaustiveResult] = field(default_factory=dict)
    side_condition_ok: bool = True
    #: Product configurations swept by the ⊗ts side-condition check.
    side_condition_checks: int = 0
    combine_failures: int = 0
    counterexample: Optional[CombineCounterexample] = None
    #: The whole-store product result (escape hatch / oracle mode).
    product: Optional[ExhaustiveResult] = None
    failures: List[str] = field(default_factory=list)
    configurations: int = 0
    wall_time: float = 0.0

    def record(self, message: str) -> None:
        self.ok = False
        if len(self.failures) < 10:
            self.failures.append(message)


# ----------------------------------------------------------------------
# Whole-store product exploration (escape hatch + differential oracle)
# ----------------------------------------------------------------------


def _store_ingredients(store: Store):
    specs = {obj: entry.make_spec() for obj, entry in store.objects}
    gammas = {obj: entry.make_gamma() for obj, entry in store.objects}
    return specs, gammas


def product_verify_store(
    store: Store,
    programs: Optional[StoreProgram] = None,
    por: str = "source",
    instrumentation: Optional[Instrumentation] = None,
    heartbeat: Optional[HeartbeatEmitter] = None,
) -> ExhaustiveResult:
    """Explore the whole product store and check every configuration.

    Every final configuration's history is checked against the composed
    specification (``Spec₁ ⊗ … ⊗ Specₙ``) with the per-object rewritings
    applied — the monolithic baseline the compositional rule replaces,
    kept as the escape hatch for non-⊗ts stores and as the differential
    oracle for the test suite.  ``heartbeat`` threads an emitter into
    the exploration, as in :func:`~repro.proofs.exhaustive.exhaustive_verify`.
    """
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    programs = programs if programs is not None else store_programs(store)
    specs, gammas = _store_ingredients(store)
    replicas = tuple(programs)
    result = ExhaustiveResult(entry_name=f"store[{store.spec_string()}]")
    stats = ExploreStats()

    def visit(system: OpBasedSystem, returns) -> None:
        check = check_composed_ra_linearizable(
            system.history(), specs, gammas
        )
        if not check.ok:
            result.record(
                f"product configuration not RA-linearizable: {check.reason}"
            )

    if heartbeat is not None:
        heartbeat.begin_task(result.entry_name)
    started = time.perf_counter()
    result.configurations = explore_op_programs(
        lambda: make_store_system(store, replicas), programs, visit,
        stats=stats, por=por, instrumentation=ins, heartbeat=heartbeat,
    )
    stats.wall_time = time.perf_counter() - started
    result.stats = stats
    if heartbeat is not None:
        heartbeat.emit()  # final beat: short runs get at least one
    return result


# ----------------------------------------------------------------------
# The ⊗ts side condition
# ----------------------------------------------------------------------


def timestamp_dominance_violation(
    history: History,
) -> Optional[Tuple[str, str]]:
    """Find a visible pair violating ⊗ts dominance, if any.

    Under the shared-timestamp discipline a fresh timestamp dominates the
    timestamp of every operation visible at the issuing replica, whatever
    object it belongs to; through the transitive closure that means
    ``a ≺vis b ⇒ ts(a) < ts(b)`` whenever both are real.
    """
    for src, dst in history.closure():
        if src.ts is BOTTOM or dst.ts is BOTTOM:
            continue
        if not src.ts < dst.ts:
            return (repr(src), repr(dst))
    return None


def _witness_merge(
    history: History, generation_order: Sequence, store: Store
) -> Tuple[bool, Optional[CombineCounterexample]]:
    """Try to merge per-object witness linearizations of ``history``.

    Per object, the projection is checked with the entry's *canonical*
    linearization class (EO execution order / TO timestamp order — the
    construction Theorems 5.3/5.5 merge, not an arbitrary search witness,
    which could fail to combine even for sound ⊗ts stores — that free
    choice is exactly Fig. 9's trap); :func:`combine_per_object` then
    merges the witnesses into a global linearization.  ``(True, None)``
    when a projection fails its own check — that failure belongs to
    phase (a), not the side condition.
    """
    specs, gammas = _store_ingredients(store)
    if any(g is not None for g in gammas.values()):
        rewritten = rewrite_history(history, per_object_rewriting(gammas))
    else:
        rewritten = history
    orders: Dict[str, Sequence] = {}
    for obj, entry in store.objects:
        projection = history.project(obj)
        if not projection.labels:
            continue
        per_object_generation = [
            label for label in generation_order if label.obj == obj
        ]
        checker = timestamp_order_check if entry.lin_class == "TO" \
            else execution_order_check
        check = checker(
            projection, specs[obj], per_object_generation,
            gamma=gammas[obj],
        )
        if not check.ok or check.update_order is None:
            return True, None
        orders[obj] = check.update_order
    if combine_per_object(rewritten, orders) is not None:
        return True, None
    return False, CombineCounterexample(
        labels=[
            repr(l)
            for l in sorted(rewritten.labels, key=lambda l: l.uid)
        ],
        per_object_orders={
            obj: [repr(l) for l in order] for obj, order in orders.items()
        },
    )


def check_side_condition(
    store: Store,
    programs: Optional[StoreProgram] = None,
    instrumentation: Optional[Instrumentation] = None,
) -> Tuple[bool, int, int, Optional[CombineCounterexample], List[str]]:
    """Sweep the first :data:`SIDE_CONDITION_LIMIT` product
    configurations for ⊗ts violations.

    Returns ``(ok, checks, combine_failures, counterexample, messages)``.
    Each sampled configuration is checked for (1) timestamp dominance over
    the closed visibility and (2) mergeability of the per-object witness
    linearizations.  For a store built by :func:`make_store_system` the
    sweep is a sanity check — ⊗ts guarantees both by construction — but it
    is what catches mislabelled stores (independent clocks passed off as
    shared) before the unsound per-object shortcut is trusted.
    """
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    programs = programs if programs is not None else store_programs(store)
    replicas = tuple(programs)
    checks = 0
    combine_failures = 0
    counterexample: Optional[CombineCounterexample] = None
    messages: List[str] = []

    def visit(system: OpBasedSystem, returns) -> None:
        nonlocal checks, combine_failures, counterexample
        checks += 1
        history = system.history()
        violation = timestamp_dominance_violation(history)
        if violation is not None and len(messages) < 10:
            messages.append(
                "⊗ts dominance violated: "
                f"{violation[0]} visible to {violation[1]}"
            )
        merged_ok, cex = _witness_merge(
            history, list(system.generation_order), store
        )
        if not merged_ok:
            combine_failures += 1
            if counterexample is None:
                counterexample = cex
            if len(messages) < 10 and cex is not None:
                messages.append(cex.describe())

    with ins.span("compose.side_condition", store=store.spec_string(),
                  limit=SIDE_CONDITION_LIMIT):
        # Sleep sets: the sample is the first configurations in the full
        # sleep-set DFS order.
        explore_op_programs(
            lambda: make_store_system(store, replicas), programs, visit,
            max_configurations=SIDE_CONDITION_LIMIT, instrumentation=ins,
            por="sleep",
        )
    return (not messages, checks, combine_failures, counterexample,
            messages)


# ----------------------------------------------------------------------
# The compositional proof rule
# ----------------------------------------------------------------------


def _object_groups(
    store: Store, programs: StoreProgram
) -> List[Tuple[CRDTEntry, Dict[str, List[Tuple]], List[str]]]:
    """Group objects by (entry, projected programs): identical objects
    share one per-object verification."""
    groups: Dict[Tuple, Tuple[CRDTEntry, Dict, List[str]]] = {}
    for obj, entry in store.objects:
        projected = project_programs(programs, obj)
        key = (
            entry.name,
            tuple(sorted(
                (replica, tuple(ops)) for replica, ops in projected.items()
            )),
        )
        if key in groups:
            groups[key][2].append(obj)
        else:
            groups[key] = (entry, projected, [obj])
    return list(groups.values())


def _verify_per_object(
    store: Store,
    programs: StoreProgram,
    ins: Instrumentation = NULL_INSTRUMENTATION,
    **pool: Any,
) -> StoreResult:
    """Phases (a) and (b) of the compositional rule, whatever the clocks;
    ``pool`` holds phase (a)'s :func:`verify_scopes_steal` options.

    The rule is sound only under ⊗ts, so :func:`verify_store` calls this
    for ⊗ts stores alone; the ⊗ boundary test calls it directly on a ⊗
    store to show the side condition flagging the unsoundness.
    """
    result = StoreResult(store=store.spec_string(), mode="compositional")
    # Phase (a): per-object exhaustive verification on projections, one
    # scope of one batch per object group.
    groups = _object_groups(store, programs)
    group_results = verify_scopes_steal(
        [(entry, projected, None) for entry, projected, _ in groups],
        instrumentation=ins, **pool,
    )
    for (entry, projected, names), obj_result in zip(groups, group_results):
        for obj in names:
            result.objects[obj] = obj_result
        result.configurations += obj_result.configurations
        if not obj_result.ok:
            for message in obj_result.failures:
                result.record(f"object {names[0]} ({entry.name}): {message}")

    # Phase (b): the ⊗ts side condition on a bounded product sample.
    ok, checks, combine_failures, counterexample, messages = \
        check_side_condition(store, programs, instrumentation=ins)
    result.side_condition_ok = ok
    result.side_condition_checks = checks
    result.combine_failures = combine_failures
    result.counterexample = counterexample
    if not ok:
        for message in messages:
            result.record(f"side condition: {message}")
    return result


def verify_store(
    store: Store,
    programs: Optional[StoreProgram] = None,
    jobs: int = 1,
    symmetry: Optional[bool] = None,
    steal: bool = True,
    spill: Optional[str] = None,
    por: str = "source",
    instrumentation: Optional[Instrumentation] = None,
    progress: Optional[float] = None,
    heartbeat_log: Optional[str] = None,
) -> StoreResult:
    """Verify a multi-object store with the compositional proof rule.

    ⊗ts stores are verified per object (phase a) plus the side-condition
    sweep (phase b): the existing exhaustive engine runs on each object's
    projected programs — one scope per object group of one
    :func:`~repro.proofs.steal.verify_scopes_steal` batch, which reaches
    the work pool when ``jobs > 1`` or ``jobs=0`` (every core) and
    takes the heartbeat options at every ``jobs`` value — and the first
    :data:`SIDE_CONDITION_LIMIT` product configurations are checked for
    timestamp dominance and witness mergeability.  Stores with
    independent generators (⊗) opt out of the rule's soundness premise,
    so they take the escape hatch (phase c): serial whole-store product
    exploration via :func:`product_verify_store`, which takes ``por``
    and the heartbeat options.
    """
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    programs = programs if programs is not None else store_programs(store)
    started = time.perf_counter()
    if store.shared_timestamps:
        result = _verify_per_object(
            store, programs, ins, jobs=jobs, symmetry=symmetry, steal=steal,
            spill=spill, por=por, progress=progress,
            heartbeat_log=heartbeat_log,
        )
    else:
        result = StoreResult(store=store.spec_string(), mode="product")
        monitor = progress_monitor(progress, heartbeat_log)
        try:
            product = product_verify_store(
                store, programs, por=por, instrumentation=ins,
                heartbeat=(monitor.local_emitter()
                           if monitor is not None else None),
            )
        finally:
            if monitor is not None:
                monitor.close()
        result.product = product
        result.configurations = product.configurations
        if not product.ok:
            for message in product.failures:
                result.record(message)
    result.wall_time = time.perf_counter() - started
    if ins.enabled:
        ins.record_compose(result)
    return result


def composed_table_entry(
    store_spec: str = "counter:1,orset:1",
    instrumentation: Optional[Instrumentation] = None,
) -> "VerificationResult":
    """The composed row of the Fig. 12 table (``repro table``).

    Verifies a small fixed ⊗ts store with the compositional rule and
    renders the outcome in the table's row shape: ``executions`` counts
    explored configurations (per-object plus the side-condition sweep)
    and ``operations`` the store program length.
    """
    from .report import VerificationResult

    store = parse_store_spec(store_spec)
    programs = store_programs(store)
    result = verify_store(
        store, programs, instrumentation=instrumentation
    )
    return VerificationResult(
        name="Composed ⊗ts store",
        kind="OB",
        lin_class="⊗ts",
        executions=result.configurations + result.side_condition_checks,
        operations=sum(len(ops) for ops in programs.values()),
        ralin_ok=result.ok,
        failures=list(result.failures),
    )


def make_store_system(
    store: Store, replicas: Sequence[str] = ("r1", "r2", "r3")
) -> OpBasedSystem:
    """Instantiate the runtime system for a parsed store."""
    return OpBasedSystem(
        {obj: entry.make_crdt() for obj, entry in store.objects},
        replicas=replicas,
        shared_timestamps=store.shared_timestamps,
    )
