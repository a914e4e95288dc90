"""The fast exploration engine behind the exhaustive small-scope checkers.

The naive explorers (:mod:`repro.runtime.explore_naive`) enumerate raw
interleavings and branch by deep-copying the whole system — cost explodes
factorially in the number of operations and deliveries.  This engine ports
both :func:`explore_op_programs` and :func:`explore_state_programs` onto a
single DFS core with four stacked optimizations:

1. **Commutativity-based sleep sets (DPOR).**  The paper's Commutativity
   property (Fig. 11, checked by :mod:`repro.proofs.commutativity`) proves
   that concurrent effectors commute, which is exactly the soundness
   condition for partial-order reduction: of two independent transitions,
   only one order per Mazurkiewicz trace needs exploring.  Actions at
   *distinct* replicas are independent structurally (they touch disjoint
   replica-local data); same-replica delivery pairs are declared
   independent only after a **dynamic commutativity probe** — the two
   effectors are applied in both orders to the replica's current state and
   compared — so a CRDT whose commutativity fails (e.g. a mutant) is
   automatically explored without reduction on exactly the branches where
   it matters.

2. **Visited-configuration deduplication.**  Each configuration gets a
   canonical fingerprint — program counters, per-replica CRDT state
   fingerprints (the :meth:`~repro.crdts.base.OpBasedCRDT.fingerprint`
   hook, default ``freeze``-based), label data in generation order,
   seen-sets and visibility over *logical* label ids, return values, and
   logical clocks.  Converging branches (e.g. delivery diamonds) are
   explored once.  Fingerprints are exact: two configurations merge only
   when observably equal, so deduplication is sound for arbitrary (even
   broken) CRDTs.

3. **Copy-on-write branching.**  Instead of ``copy.deepcopy`` per branch,
   the engine uses the O(#replicas) ``snapshot``/``restore`` protocol of
   :class:`~repro.runtime.system.OpBasedSystem` and
   :class:`~repro.runtime.state_system.StateBasedSystem`: immutable CRDT
   states and frozenset seen-sets are shared by reference, the append-only
   logs are rewound by truncation.  CRDTs with mutable states opt out via
   ``snapshot_safe = False`` and get the deepcopy fallback.

4. **Replica-symmetry reduction** (``symmetry=True``, off by default at
   this layer).  Replicas running identical programs are interchangeable;
   the fingerprint is mapped to the lexicographically least image under
   the permutation group of the symmetric replicas
   (:mod:`repro.runtime.symmetry`), so an orbit of configurations is
   explored once.  Replicas distinguished by asymmetric programs are
   pinned.  Sleep sets are translated into the same canonical frame
   before the subsumption check, keeping reductions 1 and 4 composable.

Fingerprints are computed *incrementally*: each replica-indexed component
(counter, returns, seen-set, clocks, state fingerprints) lives in a
per-replica part that ``apply`` dirties and ``push``/``pop`` save and
restore, so the per-node cost is proportional to the step's delta rather
than the whole configuration.

Correctness is guarded by a differential oracle (see
``tests/runtime/test_explore_engine.py`` and
``tests/runtime/test_explore_symmetry.py``): on every registry entry's
standard programs the engine visits the same *set* of final
configurations — same histories up to label-identity equivalence — as the
naive explorer, and with symmetry on its visits are a system of orbit
representatives partitioning the naive configuration set.

The engine reports an :class:`ExploreStats` record (configurations,
dedup hits, sleep-set prunes, peak DFS frontier, wall time) that
:class:`repro.proofs.exhaustive.ExhaustiveResult` surfaces.
"""

import copy
import time
from dataclasses import dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import PreconditionViolation
from ..obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from .state_system import StateBasedSystem
from .symmetry import (
    SymmetryReducer,
    build_group,
    canon_key,
)
from .system import OpBasedSystem

#: Per-state fingerprint caches are cleared past this many entries; the
#: peak size is reported via ``ExploreStats.state_fp_cache_peak`` and the
#: ``explore.state_fp_cache`` gauge.
_STATE_FP_CACHE_LIMIT = 1 << 13

#: A straight-line per-replica program: ``(method, args)`` steps, or
#: ``(method, args, obj)`` when the system hosts several objects.
Program = List[Tuple[Any, ...]]

#: A transition: ``("inv", replica, program index)``,
#: ``("del", replica, logical label id)`` or ``("gos", source, target)``.
Transition = Tuple[Any, ...]

#: A logical label id ``(origin replica, per-origin sequence number)`` —
#: stable across branches, unlike ``Label.uid`` which is freshly drawn on
#: every re-execution of the same program step.
Lid = Tuple[str, int]

#: Shared empty sleep set — the overwhelmingly common child sleep in the
#: source-DPOR loop, interned to skip per-step frozenset construction.
_EMPTY_SLEEP: FrozenSet[Transition] = frozenset()

#: A wakeup (sub)tree: ordered transitions to child subtrees; ``None``
#: is the empty tree.  A source-DPOR frame's backtrack dict maps each
#: candidate to the pending subtree that should guide the child's
#: schedule, or to ``None`` when no continuation is pending.
WakeupTree = Optional[Dict[Transition, Any]]

#: Source-DPOR: maximum size of the recorded-sleep difference a
#: re-converged state may patch-explore instead of re-walking its whole
#: subtree.  Larger differences fall back to a full re-exploration — a
#: patch of n branches costs n subtree entries, so past a few branches
#: the full walk's dedup is the better bet.
_PATCH_LIMIT = 4


@dataclass
class ExploreStats:
    """Counters describing one exploration run."""

    #: Final configurations reported to ``visit`` (distinct under dedup).
    configurations: int = 0
    #: Interior + final configurations expanded by the DFS.
    states_visited: int = 0
    #: Subtrees skipped because their fingerprint was already explored.
    states_deduped: int = 0
    #: Transitions skipped by the sleep-set reduction.
    branches_pruned: int = 0
    #: Dynamic effector/merge commutativity probes performed.
    commute_checks: int = 0
    #: Snapshot tokens taken (copy-on-write branching).
    snapshots: int = 0
    #: Whole-system deepcopies (fallback for ``snapshot_safe=False``).
    deepcopies: int = 0
    #: Maximum DFS stack depth (outstanding snapshots).
    peak_frontier: int = 0
    #: Wall-clock seconds spent exploring.
    wall_time: float = 0.0
    #: True when ``max_configurations`` stopped the search.
    capped: bool = False
    #: Order of the replica-permutation group used for orbit dedup
    #: (1 = symmetry off or fully pinned).
    symmetry_group: int = 1
    #: Replicas pinned by asymmetric programs (or by the data-collision
    #: guard) when symmetry was requested.
    pinned_replicas: int = 0
    #: Peak entry count of the per-state fingerprint cache.
    state_fp_cache_peak: int = 0
    #: Source-DPOR only: reversible races detected along executions.
    dpor_races: int = 0
    #: Source-DPOR only: enabled transitions never scheduled because no
    #: race required them — the interleavings sleep sets alone would
    #: still have explored.
    dpor_redundant_avoided: int = 0
    #: Source-DPOR only: frames conservatively re-expanded to the full
    #: enabled set (a race candidate failing its precondition at apply
    #: time, or a disabled initial demanded by residual replay).
    dpor_full_expansions: int = 0
    #: Source-DPOR only: race reversals grafted into a frame's wakeup
    #: tree with a non-empty pending continuation.
    dpor_wakeup_branches: int = 0
    #: Source-DPOR only: re-converged states cut by exploring just the
    #: recorded-sleep difference instead of the whole subtree.
    dpor_patch_cuts: int = 0
    #: Always 0.  The counters of a retired structural-sharing snapshot
    #: container, kept only for readers that still sum them (the
    #: perfbench layer trace).
    pstate_copied: int = 0
    pstate_shared: int = 0

    #: Fields merged by ``max``: peaks, the wall clock of sessions that
    #: run concurrently, and the group every session of a scope shares.
    _MERGE_MAX = frozenset({
        "peak_frontier", "wall_time", "symmetry_group", "pinned_replicas",
        "state_fp_cache_peak",
    })

    @property
    def dedup_ratio(self) -> float:
        """Fraction of expansions avoided by deduplication."""
        total = self.states_visited + self.states_deduped
        return self.states_deduped / total if total else 0.0

    def merge(self, other: "ExploreStats") -> None:
        """Fold another session's counters in (cross-worker aggregation):
        the :attr:`_MERGE_MAX` fields by ``max``, ``capped`` by ``or``
        and every other field summed, so a new counter reaches pool
        results without a change to the pool."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name in self._MERGE_MAX:
                merged = max(mine, theirs)
            elif f.name == "capped":
                merged = mine or theirs
            else:
                merged = mine + theirs
            setattr(self, f.name, merged)


class _SearchCapped(Exception):
    """Raised internally to stop the whole search at the exact cap."""


def _logical_ids(generation_order: Sequence) -> Dict[int, Lid]:
    """Map ``Label.uid`` to the branch-stable ``(origin, seq)`` id.

    Each replica executes its program in order, so the k-th label generated
    at a replica denotes the same program step in every branch.
    """
    lids: Dict[int, Lid] = {}
    per_origin: Dict[Any, int] = {}
    for label in generation_order:
        seq = per_origin.get(label.origin, 0)
        per_origin[label.origin] = seq + 1
        lids[label.uid] = (label.origin, seq)
    return lids


# ----------------------------------------------------------------------
# Domains: the op-based and state-based semantics behind a common DFS
# ----------------------------------------------------------------------


class _Domain:
    """The bookkeeping both semantics share, over one live system.

    A domain mirrors the configuration the DFS stands on: program
    counters and returns, logical label ids, lid-valued seen-sets and
    visibility, and the incremental fingerprint parts.  It branches by
    :meth:`push`/:meth:`pop` tokens.  Subclasses supply the semantics:
    the propagation transitions (causal delivery in :class:`_OpDomain`,
    gossip in :class:`_StateDomain`) and their ``apply`` arm, the
    independence relation with its commutativity probe, the source-DPOR
    relations, the replica-indexed fingerprint part and the replica-free
    fingerprint component.
    """

    #: Name of the one semantics-specific field the push/pop token
    #: carries; its value is never mutated in place, so the token holds
    #: it by reference.
    _TAIL: str

    #: Whether any transition needs forcing (see ``must_schedule``);
    #: False lets the engine skip the per-node seeding scan entirely.
    forces_schedule = False

    def __init__(
        self,
        system: Any,
        programs: Dict[str, Program],
        stats: ExploreStats,
        symmetry: bool,
        extra_names: Tuple[str, ...] = (),
    ) -> None:
        self.system = system
        self.programs = programs
        self.replicas = list(programs)
        self.stats = stats
        self.use_snapshots = system.snapshot_safe
        self.counters: Dict[str, int] = {r: 0 for r in programs}
        self.returns: Dict[str, List[Any]] = {r: [] for r in programs}
        # Incremental logical-id maps (see _logical_ids): extended on each
        # invoke, saved/restored with the DFS tokens.  transitions() and
        # fingerprint() are called several times per DFS node, so the maps
        # must not be rebuilt from the whole generation order every time.
        # ``_lid_to_label`` is insertion-ordered: its keys are the lids in
        # generation order.
        self._lids: Dict[int, Lid] = {}
        self._per_origin: Dict[Any, int] = {}
        self._lid_to_label: Dict[Lid, Any] = {}
        #: Label content keyed by logical id, maintained with the lid maps
        #: so fingerprint() does not re-collect the whole order per DFS
        #: node.  A *set*, not a sequence: the generation order of
        #: concurrent operations is not observable in the configuration
        #: (the lid pins each label to its program step, and visibility
        #: carries the causal structure), and an order-insensitive label
        #: component is what lets permuted-interleaving orbit members —
        #: and plain interleaving variants — deduplicate.
        self._labels_data: FrozenSet[Tuple] = frozenset()
        self._sync_lids()
        # Lid-valued mirrors of the system's seen-sets and visibility,
        # updated alongside apply() (the system's update discipline is
        # small: invoke adds vis edges from the origin's seen labels plus
        # the label itself; propagation only adds to seen).  fingerprint()
        # then reads them directly instead of re-translating every label
        # per DFS node.  The naive-vs-engine differential oracle guards
        # the mirrors: a divergence changes the deduplicated visit set.
        lids = self._lids
        self._seen_lids: Dict[str, FrozenSet[Lid]] = {
            r: frozenset(lids[l.uid] for l in system._seen[r])
            for r in self.replicas
        }
        self._vis_lids: FrozenSet[Tuple[Lid, Lid]] = frozenset(
            (lids[a.uid], lids[b.uid]) for a, b in system._vis
        )
        # Per-state fingerprint cache: id(state) -> (state, fingerprint).
        # Holding the state reference pins the id against reuse.
        self._state_fps: Dict[int, Tuple[Any, Any]] = {}
        # Incremental fingerprint parts: one entry of replica-indexed
        # components per replica, None = dirty (recomputed lazily by
        # fingerprint()).  apply() dirties only the touched replica;
        # push()/pop() save and restore the table, so the per-node
        # fingerprint cost is O(delta), not O(configuration).  With
        # symmetry on, entries hold the part's *image vector* (its byte
        # images under every group element) instead of the raw part; the
        # replica-free component is imaged lazily by the reducer.
        self._parts: Dict[str, Optional[Tuple]] = {
            r: None for r in self.replicas
        }
        self.sym: Optional[SymmetryReducer] = None
        if symmetry and len(self.replicas) > 1:
            group = build_group(programs, extra_names=extra_names)
            stats.symmetry_group = group.order
            stats.pinned_replicas = len(group.pinned)
            if group.enabled:
                self.sym = SymmetryReducer(self.replicas, group)

    def _sync_lids(self) -> None:
        """Extend the lid maps with labels generated since the last sync."""
        order = self.system.generation_order
        for label in order[len(self._lids):]:
            seq = self._per_origin.get(label.origin, 0)
            self._per_origin[label.origin] = seq + 1
            lid = (label.origin, seq)
            self._lids[label.uid] = lid
            self._lid_to_label[lid] = label
            self._labels_data |= {
                (lid, label.obj, label.method, label.args,
                 label.ret, label.ts),
            }

    def _invoke(self, replica: str, index: int) -> Any:
        """The ``inv`` arm of ``apply``: run step ``index`` of
        ``replica``'s program and extend the lid maps and mirrors.

        Returns the new label, or None when the step's precondition
        fails in this configuration.
        """
        try:
            label = self.system.invoke(replica, *self.programs[replica][index])
        except PreconditionViolation:
            return None  # this interleaving cannot run the op yet
        self.counters[replica] += 1
        self.returns[replica].append(label.ret)
        self._sync_lids()
        lid = self._lids[label.uid]
        seen = self._seen_lids[replica]
        self._vis_lids |= {(prior, lid) for prior in seen}
        self._seen_lids[replica] = seen | {lid}
        self._parts[replica] = None
        return label

    # -- branching ------------------------------------------------------

    def push(self) -> Tuple:
        if self.use_snapshots:
            self.stats.snapshots += 1
            system_token: Any = self.system.snapshot()
        else:
            self.stats.deepcopies += 1
            system_token = copy.deepcopy(self.system)
        return (
            system_token,
            dict(self.counters),
            {r: list(v) for r, v in self.returns.items()},
            dict(self._lids),
            dict(self._per_origin),
            dict(self._lid_to_label),
            self._labels_data,
            dict(self._seen_lids),
            self._vis_lids,
            dict(self._parts),
            getattr(self, self._TAIL),
        )

    def pop(self, token: Tuple) -> None:
        (system_token, counters, returns, lids, per_origin, lid_to_label,
         labels_data, seen_lids, vis_lids, parts, tail) = token
        if self.use_snapshots:
            self.system.restore(system_token)
            self._lid_to_label = dict(lid_to_label)
        else:
            # The deepcopy fallback replaces every label object, so the
            # lids are resolved against the fresh copy (uids survive it).
            self.stats.deepcopies += 1
            self.system = copy.deepcopy(system_token)
            self._lid_to_label = {
                lids[label.uid]: label
                for label in self.system.generation_order
            }
        self._lids = dict(lids)
        self._per_origin = dict(per_origin)
        self._labels_data = labels_data
        self._seen_lids = dict(seen_lids)
        self._vis_lids = vis_lids
        # Part entries are immutable values: restoring the shallow copy
        # re-marks exactly the replicas that were dirty at push time.
        self._parts = dict(parts)
        self.counters = dict(counters)
        self.returns = {r: list(v) for r, v in returns.items()}
        setattr(self, self._TAIL, tail)

    # -- fingerprinting -------------------------------------------------

    def _state_fp(self, crdt, state) -> Any:
        cache = self._state_fps
        cached = cache.get(id(state))
        if cached is not None and cached[0] is state:
            return cached[1]
        fp = crdt.fingerprint(state)
        if len(cache) >= _STATE_FP_CACHE_LIMIT:
            cache.clear()
        cache[id(state)] = (state, fp)
        if len(cache) > self.stats.state_fp_cache_peak:
            self.stats.state_fp_cache_peak = len(cache)
        return fp

    def fingerprint(self) -> Any:
        parts = self._parts
        sym = self.sym
        if sym is None:
            for replica in self.replicas:
                if parts[replica] is None:
                    parts[replica] = self._compute_part(replica)
            return tuple(parts[r] for r in self.replicas), self._glob()
        for replica in self.replicas:
            if parts[replica] is None:
                parts[replica] = sym.part_fragments(
                    self._compute_part(replica)
                )
        return sym.canonical(parts, self._glob())

    def canon_sleep(self, sleep: FrozenSet[Transition]) -> Any:
        """Translate a sleep set into the frame of the latest fingerprint.

        With symmetry on, the fingerprint is the image of the
        configuration under the minimizing permutation π*; sleep sets
        recorded against it must live in the same frame, so subsumption
        compares schedules of the *canonical* configuration, not of
        whichever orbit member happened to arrive.
        """
        sym = self.sym
        if sym is None or not sleep:
            return sleep
        return sym.rename_transitions(sleep)

    def uncanon_transitions(
        self, transitions: FrozenSet[Transition]
    ) -> FrozenSet[Transition]:
        """Inverse of :meth:`canon_sleep` under the latest fingerprint."""
        sym = self.sym
        if sym is None or not transitions:
            return transitions
        return sym.unrename_transitions(transitions)

    def visit_args(self) -> Tuple[Any, Dict[str, List[Any]]]:
        return self.system, self.returns


class _OpDomain(_Domain):
    """Op-based semantics: invoke / causal-delivery transitions."""

    _TAIL = "_causal_lids"

    def __init__(
        self,
        system: OpBasedSystem,
        programs: Dict[str, Program],
        stats: ExploreStats,
        symmetry: bool = False,
    ) -> None:
        super().__init__(system, programs, stats, symmetry,
                         extra_names=tuple(system.objects))
        lids = self._lids
        #: Each label's causal predecessors, as lids.  Replaced, never
        #: mutated, by apply(), so push/pop tokens share it.
        self._causal_lids: Dict[Lid, FrozenSet[Lid]] = {
            lids[label.uid]: frozenset(lids[p.uid] for p in preds)
            for label, preds in system._causal_preds.items()
        }
        # The object and generator tables never change shape mid-search.
        self._obj_names = sorted(system.objects)
        self._gen_names = sorted(system._generators)

    # -- transitions ----------------------------------------------------

    def transitions(self) -> List[Transition]:
        trans: List[Transition] = []
        for replica in self.replicas:
            if self.counters[replica] < len(self.programs[replica]):
                trans.append(("inv", replica, self.counters[replica]))
        # Causal delivery over the lid mirrors (same condition as
        # ``system.deliverable``; apply() passes ``prechecked=True`` so
        # the system does not re-derive it — the naive differential
        # oracle pins the mirrors against mis-scheduling).
        causal = self._causal_lids
        for replica in self.replicas:
            seen = self._seen_lids[replica]
            for lid in self._lid_to_label:
                if lid not in seen and causal[lid] <= seen:
                    trans.append(("del", replica, lid))
        return trans

    def should_visit(self, transitions: List[Transition]) -> bool:
        return not transitions  # quiescent: programs run out, all delivered

    def apply(self, transition: Transition) -> bool:
        kind, replica, payload = transition
        if kind == "inv":
            label = self._invoke(replica, payload)
            if label is None:
                return False
            lids = self._lids
            causal = dict(self._causal_lids)
            causal[lids[label.uid]] = frozenset(
                lids[p.uid] for p in self.system._causal_preds[label]
            )
            self._causal_lids = causal
            return True
        label = self._lid_to_label[payload]
        # prechecked: transitions() established deliverability from the
        # lid mirrors at this exact configuration.
        self.system.deliver(replica, label, prechecked=True)
        self._seen_lids[replica] = self._seen_lids[replica] | {payload}
        self._parts[replica] = None
        return True

    # -- independence (the DPOR relation) -------------------------------

    def independent(self, a: Transition, b: Transition) -> bool:
        if a[1] != b[1]:
            # Distinct replicas touch disjoint replica-local data: their
            # states, seen-sets, and logical clocks are per-replica, and
            # visibility/effector tables only ever grow commutatively.
            return True
        if a[0] == "del" and b[0] == "del":
            first = self._lid_to_label.get(a[2])
            second = self._lid_to_label.get(b[2])
            if first is None or second is None:
                return False
            if first.obj != second.obj:
                return True  # different objects: disjoint state components
            return self._effectors_commute(a[1], first, second)
        # Invoke vs. anything at the same replica reads/writes that
        # replica's state, seen-set, and clock: dependent.
        return False

    def _effectors_commute(self, replica: str, first, second) -> bool:
        """Probe Commutativity (Fig. 11) on the replica's current state.

        Queries carry no effector and trivially commute; otherwise apply
        the two effectors in both orders and compare.  This keeps the
        reduction sound per-branch even for CRDTs that fail the global
        Commutativity property (the mutants): the non-commuting pair is
        simply not treated as independent.
        """
        eff1 = self.system.effector_of(first)
        eff2 = self.system.effector_of(second)
        if eff1 is None or eff2 is None:
            return True
        crdt = self.system.objects[first.obj]
        state = self.system.state(replica, first.obj)
        self.stats.commute_checks += 1
        one_two = crdt.apply_effector(crdt.apply_effector(state, eff1), eff2)
        two_one = crdt.apply_effector(crdt.apply_effector(state, eff2), eff1)
        return one_two == two_one

    # -- happens-before / races (the source-DPOR relations) -------------

    def race_reversible(self, a: Transition, b: Transition) -> bool:
        """Whether the race ``a`` before ``b`` has an executable reversal.

        Program order (two invocations at one replica), the creation edge
        (an invocation before a delivery of its own label), and causal
        delivery (a delivery before a same-replica delivery of a causal
        successor) are *enforced* orders — the reversed execution does not
        exist, so no backtrack point is needed.
        """
        if a[0] == "inv":
            if b[0] == "inv":
                return False  # program order at one replica
            if b[2] == (a[1], a[2]):
                return False  # creation: b delivers a's label
            return True
        if b[0] == "del" and a[0] == "del" and a[1] == b[1]:
            # Same-replica deliveries: irreversible when a's label is a
            # causal predecessor of b's (b was not deliverable before a).
            preds = self._causal_lids.get(b[2])
            if preds is not None and a[2] in preds:
                return False
        return True

    def must_schedule(self, transition: Transition) -> bool:
        """Whether a node must schedule ``transition`` unconditionally.

        Race reversals only ever request events that *occur* in explored
        executions, which covers a transition iff every maximal execution
        eventually takes it.  Op-based transitions all qualify —
        invocations run their programs out and deliveries stay enabled
        until taken, so leaves are exactly the quiescent configurations —
        hence nothing needs forced scheduling.
        """
        return False

    def residual_transitions(self) -> List[Transition]:
        """Every event that can still occur from this configuration.

        Dedup cuts replay these against the open frames in place of the
        pruned subtree's actual events.  Under quiescence the two sets
        coincide exactly: every maximal execution below this node runs
        all remaining invocations and drains every delivery, so the
        residual alphabet *is* the subtree footprint — no recording, no
        canonical-frame renaming, O(remaining work) to enumerate.
        """
        res: List[Transition] = []
        for replica in self.replicas:
            for i in range(
                self.counters[replica], len(self.programs[replica])
            ):
                res.append(("inv", replica, i))
        for target in self.replicas:
            seen = self._seen_lids[target]
            for replica in self.replicas:
                if replica == target:
                    continue  # origins see their own labels immediately
                done = self.counters[replica]
                for i in range(len(self.programs[replica])):
                    if i >= done or (replica, i) not in seen:
                        res.append(("del", target, (replica, i)))
        return res

    # Incremental happens-before masks: the engine notes each path event
    # once, and ``hb_dep_mask`` answers "which path indices is this event
    # hb-dependent on" as a bitmask in O(1) dict lookups instead of an
    # O(path) relation loop per event.

    def hb_reset(self) -> None:
        self._hb_replica_masks: Dict[str, int] = {}
        self._hb_mk_bit: Dict[Lid, int] = {}

    def hb_note(self, transition: Transition, index: int) -> None:
        bit = 1 << index
        masks = self._hb_replica_masks
        masks[transition[1]] = masks.get(transition[1], 0) | bit
        if transition[0] == "inv":
            self._hb_mk_bit[(transition[1], transition[2])] = bit

    def hb_unnote(self, transition: Transition, index: int) -> None:
        self._hb_replica_masks[transition[1]] &= ~(1 << index)
        if transition[0] == "inv":
            self._hb_mk_bit.pop((transition[1], transition[2]), None)

    def hb_dep_mask(self, transition: Transition, length: int) -> int:
        """Path indices (of the first ``length``) ``transition`` depends on.

        This is the *coarse* structural dependence source-DPOR computes
        races over; it may be coarser than :meth:`independent` (which
        additionally probes dynamic effector commutation) — a coarser
        happens-before merges fewer executions into one trace class,
        which only means more races are considered, never fewer, so
        mixing the two stays sound.

        Op-based events touch replica-local data (state, seen-set,
        clock), so two events are dependent iff they share a replica —
        plus the creation edge: a delivery depends on the invocation that
        generated its label (the k-th invocation at replica ``r`` has
        logical id ``(r, k)``, which is exactly ``("inv", r, k)``'s
        payload).
        """
        mask = self._hb_replica_masks.get(transition[1], 0)
        if transition[0] == "del":
            # The creation edge: the inv that generated this label.
            mask |= self._hb_mk_bit.get(transition[2], 0)
        return mask

    # -- fingerprinting -------------------------------------------------

    def _compute_part(self, replica: str) -> Tuple:
        """The replica-indexed fingerprint components of one replica."""
        system = self.system
        states = system._states
        objects = system.objects
        generators = system._generators
        state_fp = self._state_fp
        return (
            self.counters[replica],
            tuple(self.returns[replica]),
            self._seen_lids[replica],
            tuple(
                generators[name].clock(replica) for name in self._gen_names
            ),
            tuple(
                state_fp(objects[name], states[(replica, name)])
                for name in self._obj_names
            ),
        )

    def _glob(self) -> Tuple:
        """The replica-free fingerprint component."""
        return self._labels_data, self._vis_lids


class _StateDomain(_Domain):
    """State-based semantics: invoke / bounded-gossip transitions."""

    _TAIL = "budget"

    def __init__(
        self,
        system: StateBasedSystem,
        programs: Dict[str, Program],
        max_gossips: int,
        stats: ExploreStats,
        symmetry: bool = False,
    ) -> None:
        super().__init__(system, programs, stats, symmetry)
        self.budget = max_gossips

    # -- transitions ----------------------------------------------------

    def transitions(self) -> List[Transition]:
        trans: List[Transition] = []
        for replica in self.replicas:
            if self.counters[replica] < len(self.programs[replica]):
                trans.append(("inv", replica, self.counters[replica]))
        if self.budget > 0:
            for source in self.replicas:
                for target in self.replicas:
                    if source != target:
                        trans.append(("gos", source, target))
        return trans

    def should_visit(self, transitions: List[Transition]) -> bool:
        return all(
            self.counters[r] == len(p) for r, p in self.programs.items()
        )

    def apply(self, transition: Transition) -> bool:
        kind, first, second = transition
        if kind == "inv":
            return self._invoke(first, second) is not None
        self.system.gossip(first, second)
        self._seen_lids[second] = self._seen_lids[second] | self._seen_lids[first]
        self.budget -= 1
        # Gossip mutates only the target replica (the source is read) —
        # plus the global budget, which lives in the glob component.
        self._parts[second] = None
        return True

    # -- independence ---------------------------------------------------

    def independent(self, a: Transition, b: Transition) -> bool:
        if a[0] == "gos" and b[0] == "gos":
            if self.budget < 2:
                return False  # taking one disables the other
            # Writers are the targets; sources are only read.
            if a[2] == b[2]:
                # Same merge target: sound iff the two source snapshots
                # merge commutatively into the target's current state
                # (lattice joins do; mutants may not — probe dynamically).
                if b[1] == a[2] or a[1] == b[2]:
                    return False
                return self._merges_commute(a[1], b[1], a[2])
            if a[2] in (b[1], b[2]) or b[2] in (a[1], a[2]):
                return False  # one's write is the other's read/write
            return True
        if a[0] == "inv" and b[0] == "inv":
            return a[1] != b[1]
        inv, gos = (a, b) if a[0] == "inv" else (b, a)
        return inv[1] not in (gos[1], gos[2])

    def _merges_commute(self, source1: str, source2: str, target: str) -> bool:
        crdt = self.system.crdt
        base = self.system.state(target)
        one = self.system.state(source1)
        two = self.system.state(source2)
        self.stats.commute_checks += 1
        return crdt.merge(crdt.merge(base, one), two) == crdt.merge(
            crdt.merge(base, two), one
        )

    # -- happens-before / races (the source-DPOR relations) -------------

    def race_reversible(self, a: Transition, b: Transition) -> bool:
        """See :meth:`_OpDomain.race_reversible`.

        Only program order is enforced here: gossips are enabled whenever
        budget remains (it is never smaller earlier in the execution), so
        every non-program-order race has an executable reversal.
        """
        return not (a[0] == "inv" and b[0] == "inv" and a[1] == b[1])

    def must_schedule(self, transition: Transition) -> bool:
        """Gossips are *alternatives*, not mandatory events: they drain a
        shared budget, so a maximal execution that spends it on one
        gossip never contains the others — no explored execution need
        mention ``gos(2→1)``, and the race mechanism (which only reverses
        events that occur) would silently drop its configurations.  Every
        enabled gossip is therefore force-seeded into each node's source
        set; the reduction prunes invocation interleavings only.
        """
        return transition[0] == "gos"

    #: Gossips need forcing — the engine runs the per-node seeding scan.
    forces_schedule = True

    def residual_transitions(self) -> List[Transition]:
        """See :meth:`_OpDomain.residual_transitions`.

        Remaining invocations occur in every maximal execution below
        this node; gossips are alternatives (budget-bounded), so the
        residual alphabet over-approximates any one subtree's footprint
        — extra replayed races cost work, never soundness, and gossip
        reversals are almost always already covered (every open frame
        force-seeds its enabled gossips via :meth:`must_schedule`).
        """
        res: List[Transition] = []
        for replica in self.replicas:
            for i in range(
                self.counters[replica], len(self.programs[replica])
            ):
                res.append(("inv", replica, i))
        if self.budget > 0:
            for source in self.replicas:
                for target in self.replicas:
                    if source != target:
                        res.append(("gos", source, target))
        return res

    # Incremental happens-before masks — see :class:`_OpDomain`.

    def hb_reset(self) -> None:
        self._hb_replica_masks: Dict[str, int] = {}
        self._hb_gos_mask = 0

    def hb_note(self, transition: Transition, index: int) -> None:
        bit = 1 << index
        if transition[0] == "gos":
            self._hb_gos_mask |= bit
        else:
            masks = self._hb_replica_masks
            masks[transition[1]] = masks.get(transition[1], 0) | bit

    def hb_unnote(self, transition: Transition, index: int) -> None:
        if transition[0] == "gos":
            self._hb_gos_mask &= ~(1 << index)
        else:
            self._hb_replica_masks[transition[1]] &= ~(1 << index)

    def hb_dep_mask(self, transition: Transition, length: int) -> int:
        """Structural dependence for the state-based semantics.

        Two invocations depend iff they share a replica; gossips are
        declared dependent on *everything* — deliberately coarser than
        :meth:`independent`.  The state-based visit hook fires on
        interior configurations too (program-complete nodes with
        leftover gossip budget), and source-DPOR only preserves maximal
        executions per trace class; making every gossip an ordering
        barrier forces each explored linearization to pass through
        every visitable interior configuration of its class
        (invocation-only commutations never change a program-complete
        prefix's configuration set), so the visited set stays exactly
        the sleep-set engine's.  The reduction then prunes invocation
        interleavings between gossips.
        """
        if transition[0] == "gos":
            return (1 << length) - 1  # the global ordering barrier
        return (
            self._hb_replica_masks.get(transition[1], 0)
            | self._hb_gos_mask
        )

    # -- fingerprinting -------------------------------------------------

    def _compute_part(self, replica: str) -> Tuple:
        """The replica-indexed fingerprint components of one replica."""
        system = self.system
        return (
            self.counters[replica],
            tuple(self.returns[replica]),
            self._seen_lids[replica],
            system._generator.clock(replica),
            self._state_fp(system.crdt, system._states[replica]),
        )

    def _glob(self) -> Tuple:
        """The replica-free fingerprint component.

        The message/event logs are excluded deliberately: exploration
        never re-reads old messages (gossip snapshots afresh), and the
        visit callbacks observe history/states only.
        """
        return self._labels_data, self._vis_lids, self.budget


# ----------------------------------------------------------------------
# The DFS core: sleep sets / source sets + dedup over a domain
# ----------------------------------------------------------------------


class _Frame:
    """Per-node scheduling state of the source-DPOR search.

    ``mode`` distinguishes how race reversals landing here are handled:

    * ``"real"`` — a live node of this engine's DFS: reversals join the
      node's ``backtrack`` set and its candidate loop explores them.
    * ``"ignore"`` — a node some sleep-set walk expanded in full: a
      replayed prefix node of a frontier task.  Every enabled
      transition there is either explored (as a sibling task) or
      slept, so any reversal is already covered.  :data:`_IGNORE_FRAME`
      is the one shared instance.
    """

    __slots__ = (
        "mode", "enabled", "enabled_set", "sleep", "backtrack", "tried",
        "done", "race_added", "progressed",
    )

    def __init__(
        self,
        mode: str,
        enabled: List[Transition],
        sleep: FrozenSet[Transition],
    ) -> None:
        self.mode = mode
        self.enabled = enabled
        #: Lazily materialized by :meth:`is_enabled` — most frames never
        #: receive a race reversal, so the set would be wasted work.
        self.enabled_set = None
        self.sleep = sleep
        #: Insertion-ordered candidate set (dict keys): the source set.
        self.backtrack: Dict[Transition, None] = {}
        self.tried: set = set()
        self.done: List[Transition] = []
        self.race_added: set = set()
        self.progressed = False

    def next_candidate(self) -> Optional[Transition]:
        for transition in self.backtrack:
            if transition not in self.tried:
                return transition
        return None

    def is_enabled(self, transition: Transition) -> bool:
        enabled_set = self.enabled_set
        if enabled_set is None:
            enabled_set = self.enabled_set = set(self.enabled)
        return transition in enabled_set


#: Ignore frames are never consulted beyond their mode, so one instance
#: serves every fully expanded prefix node.
_IGNORE_FRAME = _Frame("ignore", [], _EMPTY_SLEEP)


class _ProfiledDomain:
    """Phase-timing proxy around an exploration domain.

    Installed only when a :class:`~repro.obs.profile.PhaseProfiler` is
    attached, so the unprofiled hot loop stays on plain domain calls
    (its only profiling branch is one ``is None`` check per race walk,
    which times the ``race`` phase — pure engine work with no domain
    calls inside, so the domain phases never double-count it).  The
    proxy times the domain calls that dominate engine wall — snapshot
    push/pop, transition application, independence (commutativity)
    probes, happens-before maintenance, fingerprint/canonicalization —
    and forwards everything else untouched.  Per-call ``perf_counter``
    pairs are real overhead; that cost is the price of attribution and
    is only ever paid on profiled runs.
    """

    #: The timed domain calls and the phase each one is charged to.
    PHASES = {
        "push": "snapshot",
        "pop": "restore",
        "apply": "apply",
        "independent": "commute",
        "race_reversible": "commute",
        "fingerprint": "fingerprint",
        "canon_sleep": "fingerprint",
        "uncanon_transitions": "fingerprint",
        "hb_dep_mask": "hb",
        "hb_note": "hb",
        "hb_unnote": "hb",
        "residual_transitions": "hb",
    }

    def __init__(self, domain, profile) -> None:
        self._domain = domain
        for name, phase in self.PHASES.items():
            setattr(self, name, _timed(getattr(domain, name), profile, phase))

    def __getattr__(self, name):
        return getattr(self._domain, name)


def _timed(method: Callable, profile, phase: str) -> Callable:
    """``method``, adding the wall time of each call to ``phase``."""

    def timed(*args):
        start = time.perf_counter()
        result = method(*args)
        profile.add(phase, time.perf_counter() - start)
        return result

    return timed


class _Engine:
    """Depth-first search with sleep sets (or source-DPOR) and
    fingerprint deduplication."""

    def __init__(
        self,
        domain,
        visit: Callable[[Any, Dict[str, List[Any]]], None],
        max_configurations: Optional[int],
        stats: ExploreStats,
        store: Optional[Any] = None,
        por: str = "source",
        profile: Optional[Any] = None,
        journal: Optional[Any] = None,
        heartbeat: Optional[Any] = None,
    ) -> None:
        #: Observatory hooks (``docs/observability.md``): each is None
        #: when off, so the hot paths pay one attribute check apiece.
        self.profile = profile
        self.journal = journal
        self.heartbeat = heartbeat
        if profile is not None:
            domain = _ProfiledDomain(domain, profile)
        self.domain = domain
        self.visit = visit
        self.max_configurations = max_configurations
        self.stats = stats
        #: The ``--spill`` :class:`~repro.runtime.fp_store.FingerprintStore`,
        #: or None: when set, the visited/expanded records are keyed by its
        #: collision-checked digests and spill to its sqlite tier; without
        #: it they hold raw fingerprints in a plain set and dict.
        self.store = store
        #: Transitions from the root to the current node.
        self._path: List[Transition] = []
        #: Frontier walks only (:meth:`run` with ``cap``): nodes at this
        #: path length become tasks in :attr:`frontier` instead of being
        #: expanded.
        self._cap: Optional[int] = None
        #: The ``(path, sleep)`` tasks of the last frontier walk.
        self.frontier: List[Tuple[Tuple[Transition, ...],
                                  FrozenSet[Transition]]] = []
        #: Fingerprints of configurations already reported to ``visit``;
        #: the pool's merge unions the per-session sets to count distinct
        #: configurations globally.
        self.visited_fps: Any = (
            store.visited_set() if store is not None else set()
        )
        #: fingerprint -> sleep sets the subtree was explored under.  A new
        #: arrival is subsumed if some recorded sleep set is contained in
        #: the current one (then every schedule allowed now was allowed —
        #: and explored — before).
        self._expanded: Any = (
            store.expanded_map() if store is not None else {}
        )
        if por not in ("sleep", "source"):
            raise ValueError(f"unknown por mode {por!r}")
        #: Partial-order reduction flavor: source-DPOR (sleep sets +
        #: race-driven source sets with wakeup-tree continuations and
        #: patch cuts) or classic sleep sets, the differential oracle.
        self.por = por
        #: Source-DPOR frame stack, aligned with ``_path`` (frame i is
        #: the node reached by ``_path[:i]``).
        self._frames: List[_Frame] = []
        #: Happens-before predecessor bitmask per path event.
        self._hb: List[int] = []
        if self.por != "sleep":
            domain.hb_reset()
        if heartbeat is not None:
            heartbeat.watch(stats, store)

    def _fingerprint(self) -> Any:
        fp = self.domain.fingerprint()
        if self.store is not None:
            return self.store.intern(fp)
        return fp

    def run(
        self,
        path: Optional[Sequence[Transition]] = None,
        sleep: FrozenSet[Transition] = frozenset(),
        cap: Optional[int] = None,
    ) -> ExploreStats:
        """Explore the whole tree, a frontier task, or the frontier
        itself.

        ``path`` replays a transition sequence from the root and runs the
        DFS below it under ``sleep`` — the pool's task unit.  ``cap``
        instead runs the sleep-set walk over the top ``cap`` levels only
        (see :meth:`_run_frontier`) and leaves the nodes at that depth in
        :attr:`frontier`.  Wall time *accumulates* so an engine reused
        across tasks reports its total exploration time.
        """
        started = time.perf_counter()
        try:
            if cap is not None:
                self._run_frontier(cap)
            elif path is not None:
                self._run_path(path, sleep)
            elif self.por != "sleep":
                self._run_source_root()
            else:
                self._dfs(frozenset(), 1)
        except _SearchCapped:
            self.stats.capped = True
            if self.journal is not None:
                self.journal.record(
                    "budget.exhausted",
                    configurations=self.stats.configurations,
                )
        self.stats.wall_time += time.perf_counter() - started
        return self.stats

    def _reset_stacks(self) -> None:
        """Clear the per-unit search stacks (they do not survive a cap)."""
        self._path = []
        self._frames = []
        self._hb = []
        if self.por != "sleep":
            self.domain.hb_reset()

    def _run_source_root(self) -> None:
        try:
            self._dfs_source(frozenset(), 1)
        finally:
            self._reset_stacks()

    def _run_frontier(self, cap: int) -> None:
        """Sleep-set walk of the top ``cap`` levels: the pool's split.

        Every node above the cap is expanded in full (every enabled
        transition outside its sleep set), and its configuration is
        reported as usual.  A node at path length ``cap`` passes the
        usual fingerprint / sleep-subsumption check and then becomes a
        ``(path, sleep)`` task in :attr:`frontier` instead of being
        expanded.  Source-DPOR below a task replays the prefix under
        ignore frames: each prefix node was fully expanded here, so any
        reversal landing on it is already explored or slept.

        The expanded table starts empty on every call, so a deeper walk
        re-expands the same top levels, while the visited set persists,
        so a configuration above the cap is reported once however many
        walks reach it.
        """
        self._cap = cap
        self.frontier = []
        self._expanded = {}
        try:
            self._dfs(frozenset(), 1)
        finally:
            self._cap = None
            self._path = []

    def _run_path(
        self,
        path: Sequence[Transition],
        sleep: FrozenSet[Transition],
    ) -> None:
        """Replay ``path`` from the root, then DFS under ``sleep``.

        The path was produced by a walk that successfully applied every
        transition on it, and apply() failures are deterministic in the
        configuration, so a replay failure means the task is corrupt —
        raise rather than silently dropping a subtree.  Under source-DPOR
        each prefix node gets an ignore frame (see :meth:`_run_frontier`)
        and its event's happens-before mask, so races below the task
        land on the right frames.
        """
        domain = self.domain
        source = self.por != "sleep"
        token = domain.push()
        try:
            for transition in path:
                if not domain.apply(transition):
                    raise RuntimeError(
                        f"frontier task failed to replay at {transition!r}"
                    )
                if source:
                    _, hb_mask = self._analyze_event(transition)
                    domain.hb_note(transition, len(self._path))
                    self._frames.append(_IGNORE_FRAME)
                    self._hb.append(hb_mask)
                self._path.append(transition)
            if source:
                self._dfs_source(frozenset(sleep), len(path) + 1)
            else:
                self._dfs(frozenset(sleep), len(path) + 1)
        finally:
            # Restore the root even when capped mid-subtree, so a worker
            # session stays reusable for its next task.
            self._reset_stacks()
            domain.pop(token)

    def _report(self, fingerprint: Any) -> None:
        if fingerprint in self.visited_fps:
            return
        self.visited_fps.add(fingerprint)
        self.stats.configurations += 1
        self.visit(*self.domain.visit_args())
        if (
            self.max_configurations is not None
            and self.stats.configurations >= self.max_configurations
        ):
            raise _SearchCapped

    def _dfs(self, sleep: FrozenSet[Transition], depth: int) -> None:
        domain, stats = self.domain, self.stats
        stats.states_visited += 1
        if self.heartbeat is not None:
            self.heartbeat.tick(depth)
        if depth > stats.peak_frontier:
            stats.peak_frontier = depth
        transitions = domain.transitions()
        fingerprint = self._fingerprint()
        if domain.should_visit(transitions):
            self._report(fingerprint)
        if not transitions:
            return
        # Sleep sets are compared in the canonical frame: under symmetry,
        # orbit members arriving with differently-named schedules must
        # subsume each other iff their canonical images do (canon_sleep
        # is the identity with symmetry off).
        sleep_key = domain.canon_sleep(sleep)
        # One setdefault = one hash of the (large, nested) fingerprint
        # tuple; a get-then-setdefault pair would hash it twice.
        recorded_sets = self._expanded.setdefault(fingerprint, [])
        for recorded in recorded_sets:
            if recorded <= sleep_key:
                stats.states_deduped += 1
                return
        recorded_sets.append(sleep_key)
        cap = self._cap
        if cap is not None and depth > cap:
            self.frontier.append((tuple(self._path), sleep))
            return
        token = domain.push()
        done: List[Transition] = []
        for transition in transitions:
            if transition in sleep:
                stats.branches_pruned += 1
                continue
            # Sleep-set inheritance is decided *before* the step runs, on
            # the state the independence probe sees.
            child_sleep = frozenset(
                other
                for other in sleep.union(done)
                if domain.independent(other, transition)
            )
            if not domain.apply(transition):
                continue
            self._path.append(transition)
            self._dfs(child_sleep, depth + 1)
            self._path.pop()
            domain.pop(token)
            done.append(transition)

    # -- source-DPOR ----------------------------------------------------

    def _dfs_source(
        self,
        sleep: FrozenSet[Transition],
        depth: int,
        guide: WakeupTree = None,
    ) -> None:
        """The source-DPOR node loop.

        Unlike :meth:`_dfs`, which schedules *every* enabled transition
        outside the sleep set, this loop schedules only the node's
        **source set**: the first non-slept transition, plus whatever race
        reversals detected along deeper executions add to the node's
        backtrack set (lazily, while the node is still on the stack).
        Enabled transitions never demanded by a race are provably
        redundant — their interleavings reach already-covered
        Mazurkiewicz traces — and are counted in
        ``dpor_redundant_avoided`` instead of explored.

        The backtrack dict carries a **wakeup tree**: each candidate
        maps to the pending continuation (the rest of the reversal
        sequence ``v·t`` grafted by :meth:`_reverse_race`), and
        ``guide`` is this node's own pending subtree handed down by the
        parent.  Guided nodes seed their schedule from the guide's root
        transitions instead of the default first-non-slept pick, so a
        demanded reversal is replayed verbatim rather than re-discovered
        through fresh races, and sibling expansions that unguided
        rediscovery would force never start.  Guidance is advisory: a
        guide root that is slept or disabled here is dropped (its trace
        class is covered by the branch that slept it, or rediscovered
        through races), which keeps the source-set coverage argument
        untouched.
        """
        domain, stats = self.domain, self.stats
        stats.states_visited += 1
        if self.heartbeat is not None:
            self.heartbeat.tick(depth)
        if depth > stats.peak_frontier:
            stats.peak_frontier = depth
        transitions = domain.transitions()
        fingerprint = self._fingerprint()
        if domain.should_visit(transitions):
            self._report(fingerprint)
        if not transitions:
            return
        patch: Optional[FrozenSet[Transition]] = None
        sleep_key = domain.canon_sleep(sleep)
        recorded_sets = self._expanded.setdefault(fingerprint, [])
        patch_base = None
        patch_missing = None
        for recorded in recorded_sets:
            if recorded <= sleep_key:
                stats.states_deduped += 1
                # The subtree below an equivalent node is not run again —
                # but its events can still race with *this* path's
                # prefix, so replay the residual alphabet against the
                # open frames.
                self._replay_residual()
                return
            missing = recorded - sleep_key
            if patch_missing is None or len(missing) < len(patch_missing):
                patch_base, patch_missing = recorded, missing
        if patch_missing is not None and len(patch_missing) <= _PATCH_LIMIT:
            # Partial cut at a re-converged state: a prior visit with
            # recorded sleep R covered every execution from here not
            # starting in R; this arrival (sleep S, R ⊄ S) only owes the
            # executions starting in R \ S.  Explore exactly those
            # branches — races they demand land on the live frames as
            # usual — replay the residual alphabet for the covered
            # remainder, and record R ∩ S: the union of both visits
            # covers everything not starting in the intersection, so the
            # records weaken monotonically and later arrivals full-cut.
            # ``R \ S`` lives in the canonical frame; pull it back
            # through the latest minimizing permutation before
            # scheduling.
            stats.dpor_patch_cuts += 1
            patch = domain.uncanon_transitions(patch_missing)
            self._replay_residual()
            recorded_sets.append(patch_base & sleep_key)
        else:
            recorded_sets.append(sleep_key)
        frame = _Frame("real", transitions, sleep)
        self._frames.append(frame)
        token = domain.push()
        try:
            if patch is not None:
                # Patch node: schedule only the owed difference (plus
                # whatever races add while it runs).  A pending guide is
                # dropped — its demanded class either starts in the
                # patch (explored here) or not in the prior record's
                # sleep (covered by the recorded visit, whose races the
                # residual replay just re-demanded).  Scheduled in
                # ``transitions`` order: iterating the frozenset would
                # make the walk depend on string hashing.
                for candidate in transitions:
                    if candidate in patch:
                        frame.backtrack[candidate] = None
            else:
                seeded = False
                if guide:
                    for candidate, subtree in guide.items():
                        if candidate in sleep or not frame.is_enabled(
                            candidate
                        ):
                            continue
                        frame.backtrack[candidate] = subtree
                        seeded = True
                if not seeded:
                    for transition in transitions:
                        if transition not in sleep:
                            frame.backtrack[transition] = None
                            break
            if patch is None and domain.forces_schedule:
                for transition in transitions:
                    if (
                        transition not in sleep
                        and domain.must_schedule(transition)
                    ):
                        # setdefault: a guided candidate keeps its
                        # pending continuation.
                        frame.backtrack.setdefault(transition, None)
            while True:
                transition = frame.next_candidate()
                if transition is None:
                    if not frame.progressed and patch is None:
                        # Every candidate failed its precondition; seed
                        # the next untried enabled transition, exactly as
                        # the serial loop skips a failed apply().
                        seeded = False
                        for candidate in transitions:
                            if (
                                candidate not in sleep
                                and candidate not in frame.tried
                            ):
                                frame.backtrack[candidate] = None
                                seeded = True
                                break
                        if seeded:
                            continue
                    break
                frame.tried.add(transition)
                if frame.done:
                    base = frame.sleep.union(frame.done)
                elif frame.sleep:
                    base = frame.sleep
                else:
                    base = None
                if base:
                    child_sleep = frozenset(
                        other
                        for other in base
                        if domain.independent(other, transition)
                    )
                else:
                    child_sleep = _EMPTY_SLEEP
                if not domain.apply(transition):
                    if transition in frame.race_added:
                        # A race demanded this reversal but the
                        # transition is disabled here after all; cover
                        # the reversal by scheduling everything.
                        self._full_expand(frame)
                    continue
                self._record_event(transition)
                self._dfs_source(
                    child_sleep, depth + 1, frame.backtrack.get(transition)
                )
                self._path.pop()
                self._hb.pop()
                domain.hb_unnote(transition, len(self._path))
                domain.pop(token)
                frame.done.append(transition)
                frame.progressed = True
        finally:
            self._frames.pop()
        for transition in transitions:
            if transition in sleep:
                stats.branches_pruned += 1
            elif transition not in frame.tried:
                stats.dpor_redundant_avoided += 1

    def _analyze_event(self, transition: Transition) -> Tuple[int, int]:
        """Happens-before masks of ``transition`` as the next path event.

        Returns ``(adjacent, hb_mask)``: the bitmask of path indices the
        event is *hb-adjacent* to (dependent and not already ordered
        through a later dependent event — the race candidates), and the
        full happens-before predecessor mask to push onto ``_hb``.
        """
        hb = self._hb
        dep = self.domain.hb_dep_mask(transition, len(self._path))
        covered = 0
        mask = dep
        while mask:
            low = mask & -mask
            mask ^= low
            covered |= hb[low.bit_length() - 1]
        return dep & ~covered, dep | covered

    def _record_event(self, transition: Transition) -> None:
        """Append ``transition`` to the path, processing its races."""
        adjacent, hb_mask = self._analyze_event(transition)
        domain, path = self.domain, self._path
        k = len(path)
        mask = adjacent
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            if self._frames[j].mode == "ignore":
                continue
            if not domain.race_reversible(path[j], transition):
                continue
            self.stats.dpor_races += 1
            self._reverse_race(j, k, transition, hb_mask)
        domain.hb_note(transition, k)
        path.append(transition)
        self._hb.append(hb_mask)

    def _race_plan(
        self, j: int, k: int, transition: Transition, hb_mask: int
    ) -> Optional[Tuple[Transition, WakeupTree]]:
        """Walk the initials of ``v = notdep(path[j], E) · transition``.

        Returns ``None`` when some initial already covers the reversal,
        else ``(first, continuation)``: the sequence's first event and
        the wakeup subtree encoding the rest of ``v·t`` in path order, so
        the branch replays the demanded schedule instead of
        rediscovering it race by race.
        """
        profile = self.profile
        start = time.perf_counter() if profile is not None else 0.0
        frame = self._frames[j]
        path, hb = self._path, self._hb
        sleep = frame.sleep
        backtrack, tried = frame.backtrack, frame.tried
        first: Optional[Transition] = None
        covered = False
        v_mask = 0
        chain: List[Transition] = []
        dep_tail: List[Transition] = []
        for m in range(j + 1, k):
            hbm = hb[m]
            if (hbm >> j) & 1:
                # Depends on path[j]: not part of v — but part of the
                # wakeup spine's tail (see below).
                dep_tail.append(path[m])
                continue
            w = path[m]
            if not (hbm & v_mask):
                # The source-set condition for an initial: a slept one is
                # covered by the branch that slept it, a scheduled or run
                # one by this node itself.
                if w in sleep or w in backtrack or w in tried:
                    covered = True
                    break
                if first is None:
                    first = w
            v_mask |= 1 << m
            chain.append(w)
        if not covered and not (hb_mask & v_mask):
            if (
                transition in sleep
                or transition in backtrack
                or transition in tried
            ):
                covered = True
            elif first is None:
                first = transition
        if first is None:  # pragma: no cover - v always has an initial
            covered = True
        plan: Optional[Tuple[Transition, WakeupTree]] = None
        if not covered:
            # The wakeup spine is the *whole* trace permutation
            # v·t·path[j]·(events dependent on path[j], in path order):
            # after the reversed pair runs, the tail re-executes the
            # remainder of the original fragment, so the branch converges
            # onto recorded configurations and is dedup-cut within a step
            # or two instead of wandering to a sleep-blocked dead end.
            # The spine respects happens-before everywhere except the
            # deliberately reversed (path[j], t) pair, and sleep
            # inheritance cooperates: path[j] is slept (from ``done``)
            # across v and woken exactly when the dependent t executes.
            cont: WakeupTree = None
            chain.append(transition)
            chain.append(path[j])
            chain.extend(dep_tail)
            if chain[0] == first:
                for w in reversed(chain[1:]):
                    cont = {w: cont}
            plan = (first, cont)
        if profile is not None:
            profile.add("race", time.perf_counter() - start)
        return plan

    def _reverse_race(
        self, j: int, k: int, transition: Transition, hb_mask: int
    ) -> None:
        """Reverse the race ``path[j]`` ↔ ``transition`` at frame ``j``.

        :meth:`_race_plan` walks the initials of the reversal sequence
        ``v·t`` and short-circuits when one already covers it, which in
        the common case is the immediately following event.  Otherwise
        the first initial is grafted into the frame's backtrack (wakeup)
        store through this single insertion point.  A demanded initial
        that is not enabled at frame ``j`` (only possible via
        :meth:`_replay_residual`'s positional over-approximation)
        degrades the frame to the full sleep-set schedule, counted in
        ``dpor_full_expansions``; races from real executions always
        have enabled initials.
        """
        plan = self._race_plan(j, k, transition, hb_mask)
        if plan is None:
            return
        first, cont = plan
        frame = self._frames[j]
        if self.journal is not None:
            self.journal.record("dpor.reversal", frame=j, depth=k)
        if not frame.is_enabled(first):
            self._full_expand(frame)
            return
        if cont is not None:
            self.stats.dpor_wakeup_branches += 1
        frame.backtrack[first] = cont
        frame.race_added.add(first)

    def _full_expand(self, frame: _Frame) -> None:
        """Degrade a frame to the sleep-set schedule (every non-slept
        enabled transition), the conservative fallback when precise race
        coverage is unavailable: a race candidate failing its
        *precondition* at apply time, or a disabled initial demanded by
        residual replay."""
        self.stats.dpor_full_expansions += 1
        for transition in frame.enabled:
            if (
                transition not in frame.sleep
                and transition not in frame.tried
                and transition not in frame.backtrack
            ):
                # Deliberately not race_added: if a fallback candidate
                # fails to apply it is skipped, as in the sleep engine.
                frame.backtrack[transition] = None

    def _replay_residual(self) -> None:
        """Re-run race detection for a dedup-cut subtree.

        The subtree below this node is not executed again — but its
        events can race with the *current* path prefix, which differs
        from the one an equivalent subtree was first explored under.  The
        domain's residual alphabet (every event that can still occur from
        here) stands in for the subtree: each residual transition is
        analyzed against the live frames exactly as if it ran next.
        Under quiescence the residual alphabet equals the footprint of
        every maximal execution below this node, and it is computed from
        the *live* configuration — so nothing is recorded, no canonical-
        frame renaming is needed, and whether the equivalent subtree was
        itself cut short (capped) is irrelevant.  Positional
        information is over-approximated (a deep subtree event is
        analyzed as if it ran immediately) — extra backtrack points cost
        work, never soundness.
        """
        domain, path = self.domain, self._path
        k = len(path)
        for u in domain.residual_transitions():
            adjacent, hb_mask = self._analyze_event(u)
            mask = adjacent
            while mask:
                low = mask & -mask
                mask ^= low
                j = low.bit_length() - 1
                if self._frames[j].mode == "ignore":
                    continue
                if not domain.race_reversible(path[j], u):
                    continue
                self.stats.dpor_races += 1
                self._reverse_race(j, k, u, hb_mask)


# ----------------------------------------------------------------------
# Session factory (the pool workers' entry point)
# ----------------------------------------------------------------------


def build_engine(
    kind: str,
    make_system: Callable[[], Any],
    programs: Dict[str, Program],
    visit: Callable[[Any, Dict[str, List[Any]]], None],
    max_gossips: int = 3,
    max_configurations: Optional[int] = None,
    stats: Optional[ExploreStats] = None,
    store: Optional[Any] = None,
    symmetry: bool = False,
    por: str = "source",
    profile: Optional[Any] = None,
    journal: Optional[Any] = None,
    heartbeat: Optional[Any] = None,
) -> _Engine:
    """Build a reusable exploration engine for ``kind`` (``op``/``state``).

    Unlike :func:`explore_op_programs`/:func:`explore_state_programs`,
    which run one exploration and return, the engine handle persists its
    domain, visited/expanded records, and statistics across multiple
    :meth:`_Engine.run` calls — the pool's workers run many frontier
    tasks of the same scope through one session, so dedup and
    verdict caches warm up exactly like a serial run's.
    """
    stats = stats if stats is not None else ExploreStats()
    if kind == "op":
        domain: _Domain = _OpDomain(
            make_system(), programs, stats, symmetry=symmetry,
        )
    elif kind == "state":
        domain = _StateDomain(
            make_system(), programs, max_gossips, stats, symmetry=symmetry,
        )
    else:  # pragma: no cover - caller bug
        raise ValueError(f"unknown exploration kind {kind!r}")
    return _Engine(
        domain, visit, max_configurations, stats, store=store, por=por,
        profile=profile, journal=journal, heartbeat=heartbeat,
    )


# ----------------------------------------------------------------------
# Public entry points (signatures of the historical explorers)
# ----------------------------------------------------------------------


def _explore(
    kind: str,
    make_system: Callable[[], Any],
    programs: Dict[str, Program],
    visit: Callable[[Any, Dict[str, List[Any]]], None],
    stats: Optional[ExploreStats],
    instrumentation: Optional[Instrumentation],
    span_fields: Dict[str, Any],
    **options: Any,
) -> int:
    """One whole run of a ``kind`` engine inside an ``explore.<kind>``
    span: the body of both public explorers."""
    stats = stats if stats is not None else ExploreStats()
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    engine = build_engine(
        kind, make_system, programs, visit, stats=stats,
        profile=ins.profile, journal=ins.journal, **options,
    )
    with ins.span(f"explore.{kind}", replicas=len(programs),
                  **span_fields) as span:
        engine.run()
        span.set(configurations=stats.configurations,
                 states_visited=stats.states_visited)
    if ins.enabled:
        ins.record_explore(stats, kind=kind)
    return stats.configurations


def explore_op_programs(
    make_system: Callable[[], OpBasedSystem],
    programs: Dict[str, Program],
    visit: Callable[[OpBasedSystem, Dict[str, List[Any]]], None],
    max_configurations: Optional[int] = None,
    stats: Optional[ExploreStats] = None,
    instrumentation: Optional[Instrumentation] = None,
    symmetry: bool = False,
    store: Optional[Any] = None,
    por: str = "source",
    heartbeat: Optional[Any] = None,
) -> int:
    """Run per-replica ``programs`` under every op-based interleaving.

    ``visit(system, returns)`` is called once per *distinct* quiescent
    configuration — every program run out, every effector delivered —
    deduplicated by canonical fingerprint; the system object passed to
    ``visit`` is reused by the engine afterwards, so callbacks must
    extract what they need rather than keep a reference.  Returns the
    number of configurations visited.

    ``symmetry=True`` dedups on orbit representatives under replica
    permutation (see :mod:`repro.runtime.symmetry`): ``visit`` then fires
    once per orbit and ``max_configurations`` caps the *orbit* count.
    ``stats`` may be a caller-provided :class:`ExploreStats` to fill in.

    ``instrumentation`` wraps the run in an ``explore.op`` span and folds
    the final :class:`ExploreStats` into metrics; the DFS hot path is
    untouched, so disabled instrumentation costs one attribute check.
    """
    return _explore(
        "op", make_system, programs, visit, stats, instrumentation,
        dict(symmetry=symmetry, por=por),
        max_configurations=max_configurations,
        symmetry=symmetry, store=store, por=por, heartbeat=heartbeat,
    )


def explore_state_programs(
    make_system: Callable[[], StateBasedSystem],
    programs: Dict[str, Program],
    visit: Callable[[StateBasedSystem, Dict[str, List[Any]]], None],
    max_gossips: int = 3,
    max_configurations: Optional[int] = None,
    stats: Optional[ExploreStats] = None,
    instrumentation: Optional[Instrumentation] = None,
    symmetry: bool = False,
    store: Optional[Any] = None,
    por: str = "source",
    heartbeat: Optional[Any] = None,
) -> int:
    """Run ``programs`` under every bounded state-based interleaving.

    Same knobs (``symmetry`` included) and instrumentation hook as
    :func:`explore_op_programs`; ``visit`` fires on every configuration
    whose programs have finished, including ones with leftover gossip
    budget (partial propagation).
    """
    return _explore(
        "state", make_system, programs, visit, stats, instrumentation,
        dict(max_gossips=max_gossips, symmetry=symmetry, por=por),
        max_gossips=max_gossips, max_configurations=max_configurations,
        symmetry=symmetry, store=store, por=por, heartbeat=heartbeat,
    )


# ----------------------------------------------------------------------
# Canonical configuration keys (the differential-oracle equivalence)
# ----------------------------------------------------------------------


def _config_key(
    system: Any, returns: Dict[str, List[Any]], states: Tuple
) -> Tuple:
    lids = _logical_ids(system.generation_order)
    labels = frozenset(
        (lids[l.uid], l.obj, l.method, l.args, l.ret, l.ts)
        for l in system.generation_order
    )
    vis = frozenset((lids[a.uid], lids[b.uid]) for a, b in system._vis)
    seen = tuple(
        (r, frozenset(lids[l.uid] for l in system._seen[r]))
        for r in system.replicas
    )
    rets = tuple(sorted((r, tuple(v)) for r, v in returns.items()))
    return (labels, vis, seen, states, rets)


def op_config_key(
    system: OpBasedSystem, returns: Dict[str, List[Any]]
) -> Tuple:
    """A hashable key identifying a final configuration up to equivalence.

    Labels are named by logical id (origin, per-origin sequence number), so
    two executions that perform the same operations with the same returns,
    timestamps, visibility, seen-sets, and replica states — regardless of
    ``Label.uid`` draws or the order interleavings were enumerated in —
    get equal keys.  Used by the naive-vs-engine differential tests.
    """
    return _config_key(system, returns, tuple(
        (r, name, crdt.fingerprint(system._states[(r, name)]))
        for r in system.replicas
        for name, crdt in sorted(system.objects.items())
    ))


def state_config_key(
    system: StateBasedSystem, returns: Dict[str, List[Any]]
) -> Tuple:
    """State-based analogue of :func:`op_config_key`."""
    return _config_key(system, returns, tuple(
        (r, system.crdt.fingerprint(system._states[r]))
        for r in system.replicas
    ))


# ----------------------------------------------------------------------
# Orbit keys (the symmetry-differential-oracle equivalence)
# ----------------------------------------------------------------------


def _orbit_key(config_key: Tuple, group: Any) -> Tuple:
    labels, vis, seen, states, rets = config_key
    # The per-replica components are tuples *ordered by replica name*;
    # renaming inside an ordered tuple would not reorder the slots, so
    # turn them into sets first (entries stay unique — each is keyed by
    # its replica name) and let canon_key sort them after renaming.
    key = (labels, vis, frozenset(seen), frozenset(states), frozenset(rets))
    return min(canon_key(key, mapping) for mapping in group.maps)


def op_orbit_key(
    system: OpBasedSystem,
    returns: Dict[str, List[Any]],
    programs: Dict[str, Program],
) -> Tuple:
    """The canonical orbit key of a final configuration.

    Two final configurations get equal orbit keys iff their
    :func:`op_config_key` keys are images of each other under a
    permutation of the symmetric replicas of ``programs`` (identity
    included) — the same group the engine dedups over with
    ``symmetry=True``, applied to the *order-insensitive* config key (the
    engine's internal fingerprint additionally distinguishes generation
    order, which the sleep-set reduction deliberately prunes).  The
    symmetry-differential tests group the naive explorer's configurations
    by this key — a partition — and check the fast engine visited a
    representative of every part and nothing outside.
    """
    return _orbit_key(
        op_config_key(system, returns),
        build_group(programs, extra_names=tuple(system.objects)),
    )


def state_orbit_key(
    system: StateBasedSystem,
    returns: Dict[str, List[Any]],
    programs: Dict[str, Program],
) -> Tuple:
    """State-based analogue of :func:`op_orbit_key` (over
    :func:`state_config_key`, which already collapses leftover-budget
    duplicates identically on the naive and engine sides)."""
    return _orbit_key(state_config_key(system, returns), build_group(programs))
