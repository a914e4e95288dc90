"""The fast exploration engine behind the exhaustive small-scope checkers.

The naive explorers (:mod:`repro.runtime.explore_naive`) enumerate raw
interleavings and branch by deep-copying the whole system — cost explodes
factorially in the number of operations and deliveries.  This engine ports
both :func:`explore_op_programs` and :func:`explore_state_programs` onto a
single DFS core with three stacked optimizations:

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
   it matters.  ``reduction=False`` switches sleep sets off entirely.

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
   the engine uses the O(|configuration|) ``snapshot``/``restore``
   protocol of :class:`~repro.runtime.system.OpBasedSystem` and
   :class:`~repro.runtime.state_system.StateBasedSystem`, which shares the
   immutable CRDT states between snapshots.  CRDTs with mutable states opt
   out via ``snapshot_safe = False`` and get the deepcopy fallback.

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
from collections import OrderedDict
from dataclasses import dataclass, field
from hashlib import blake2b
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
from . import pstate
from .fp_store import stable_encode
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

#: Entry bound of the deferred-reversal dedup LRU (see
#: :class:`_DigestLRU`): long steal sessions previously grew
#: ``_deferred_seen`` without limit.
_DEFERRED_SEEN_LIMIT = 1 << 14

#: A wakeup (sub)tree: ordered transitions to child subtrees; ``None``
#: is the empty tree.  A frame's backtrack dict maps each candidate to
#: the pending subtree that should guide the child's schedule
#: (``por="optimal"``) or to ``None`` (``por="source"``).
WakeupTree = Optional[Dict[Transition, Any]]

#: Optimal DPOR: maximum size of the recorded-sleep difference a
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
    #: Work-stealing only: nodes whose unexplored siblings were offloaded
    #: back onto the shared task queue.
    steal_splits: int = 0
    #: Work-stealing only: subtree tasks spawned by those splits.
    steal_spawned: int = 0
    #: Source-DPOR only: reversible races detected along executions.
    dpor_races: int = 0
    #: Source-DPOR only: enabled transitions never scheduled because no
    #: race required them — the interleavings sleep sets alone would
    #: still have explored.
    dpor_redundant_avoided: int = 0
    #: Source-DPOR only: race reversals at stolen-prefix nodes, re-run
    #: locally as deferred subtree tasks.
    dpor_deferred: int = 0
    #: Source-DPOR only: frames conservatively re-expanded to the full
    #: enabled set (missing footprint or disabled race candidate).
    dpor_full_expansions: int = 0
    #: Optimal DPOR only: race reversals grafted into a frame's wakeup
    #: tree with a non-empty pending continuation.
    dpor_wakeup_branches: int = 0
    #: Optimal DPOR only: frames re-expanded because a race candidate
    #: failed its precondition at apply time — the narrow residue of the
    #: source engine's full expansions (never counted there).
    dpor_wakeup_fallbacks: int = 0
    #: Optimal DPOR only: disabled residual demands dropped because the
    #: vacuity walk proved the demanded event ordered after the race
    #: frame's transition in every execution.
    dpor_vacuity_drops: int = 0
    #: Source/optimal DPOR: peak entry count of the deferred-reversal
    #: dedup LRU (bounded; evictions cost re-runs, never coverage).
    dpor_deferred_seen: int = 0
    #: Optimal DPOR only: re-converged states cut by exploring just the
    #: recorded-sleep difference instead of the whole subtree.
    dpor_patch_cuts: int = 0
    #: Persistent-snapshot mode: hash-trie nodes allocated (path copies).
    pstate_copied: int = 0
    #: Persistent-snapshot mode: child pointers reused by those copies —
    #: structure shared instead of duplicated.
    pstate_shared: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Fraction of expansions avoided by deduplication."""
        total = self.states_visited + self.states_deduped
        return self.states_deduped / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "configurations": self.configurations,
            "states_visited": self.states_visited,
            "states_deduped": self.states_deduped,
            "branches_pruned": self.branches_pruned,
            "commute_checks": self.commute_checks,
            "snapshots": self.snapshots,
            "deepcopies": self.deepcopies,
            "peak_frontier": self.peak_frontier,
            "wall_time": self.wall_time,
            "capped": self.capped,
            "dedup_ratio": self.dedup_ratio,
            "symmetry_group": self.symmetry_group,
            "pinned_replicas": self.pinned_replicas,
            "state_fp_cache_peak": self.state_fp_cache_peak,
            "steal_splits": self.steal_splits,
            "steal_spawned": self.steal_spawned,
            "dpor_races": self.dpor_races,
            "dpor_redundant_avoided": self.dpor_redundant_avoided,
            "dpor_deferred": self.dpor_deferred,
            "dpor_full_expansions": self.dpor_full_expansions,
            "dpor_wakeup_branches": self.dpor_wakeup_branches,
            "dpor_wakeup_fallbacks": self.dpor_wakeup_fallbacks,
            "dpor_vacuity_drops": self.dpor_vacuity_drops,
            "dpor_deferred_seen": self.dpor_deferred_seen,
            "dpor_patch_cuts": self.dpor_patch_cuts,
            "pstate_copied": self.pstate_copied,
            "pstate_shared": self.pstate_shared,
        }


class _SearchCapped(Exception):
    """Raised internally to stop the whole search at the exact cap."""


class _DigestLRU:
    """Bounded dedup of deferred race-reversal tasks.

    Keys — ``(prefix, transition)`` pairs — are collapsed to 16-byte
    :func:`~repro.runtime.fp_store.stable_encode` digests so a long
    steal session holds a fixed 16 bytes per remembered task instead of
    an unbounded set of transition tuples.  Eviction at the LRU bound
    only costs a duplicate subtree task (deferred tasks are idempotent
    under the merged fingerprint union), never coverage.
    """

    __slots__ = ("_entries", "_limit", "peak")

    def __init__(self, limit: int = _DEFERRED_SEEN_LIMIT) -> None:
        self._entries: OrderedDict = OrderedDict()
        self._limit = limit
        self.peak = 0

    def seen(self, key: Any) -> bool:
        """Record ``key``; True when it was already present."""
        digest = blake2b(stable_encode(key), digest_size=16).digest()
        entries = self._entries
        if digest in entries:
            entries.move_to_end(digest)
            return True
        entries[digest] = None
        if len(entries) > self._limit:
            entries.popitem(last=False)
        elif len(entries) > self.peak:
            self.peak = len(entries)
        return False


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


class _OpDomain:
    """Op-based semantics: invoke / causal-delivery transitions."""

    def __init__(
        self,
        system: OpBasedSystem,
        programs: Dict[str, Program],
        require_quiescence: bool,
        reduction: bool,
        stats: ExploreStats,
        symmetry: bool = False,
    ) -> None:
        self.system = system
        self.programs = programs
        self.replicas = list(programs)
        self.require_quiescence = require_quiescence
        self.reduction = reduction
        self.stats = stats
        self.use_snapshots = system.snapshot_safe
        self.counters: Dict[str, int] = {r: 0 for r in programs}
        self.returns: Dict[str, List[Any]] = {r: [] for r in programs}
        # Incremental logical-id maps (see _logical_ids): extended on each
        # invoke, saved/restored with the DFS tokens.  transitions() and
        # fingerprint() are called several times per DFS node, so the maps
        # must not be rebuilt from the whole generation order every time.
        self._lids: Dict[int, Lid] = {}
        self._per_origin: Dict[Any, int] = {}
        self._lid_to_label: Dict[Lid, Any] = {}
        self._lid_order: List[Lid] = []
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
        # the label itself; deliver only adds to seen).  fingerprint()
        # then reads them directly instead of re-translating every label
        # per DFS node.  The naive-vs-engine differential oracle guards
        # the mirrors: a divergence changes the deduplicated visit set.
        self._rebuild_mirrors()
        # Per-state fingerprint cache: id(state) -> (state, fingerprint).
        # Holding the state reference pins the id against reuse.
        self._state_fps: Dict[int, Tuple[Any, Any]] = {}
        # The object and generator tables never change shape mid-search.
        self._objs = sorted(system.objects.items())
        self._gen_names = sorted(system._generators)
        self._state_keys = [
            ((r, name), crdt)
            for r in self.replicas for name, crdt in self._objs
        ]
        # Incremental fingerprint parts: one entry of replica-indexed
        # components per replica, None = dirty (recomputed lazily by
        # fingerprint()).  apply() dirties only the touched replica;
        # push()/pop() save and restore the table, so the per-node
        # fingerprint cost is O(delta), not O(configuration).  With
        # symmetry on, entries hold the part's *fragment vector* (its
        # canonical images under every group element) instead of the raw
        # part; _glob_frags is the analogous vector of the replica-free
        # component, dirtied only when labels/visibility change.
        self._parts: Dict[str, Optional[Tuple]] = {
            r: None for r in self.replicas
        }
        self._glob_frags: Optional[Tuple] = None
        self.sym: Optional[SymmetryReducer] = None
        if symmetry and len(self.replicas) > 1:
            group = build_group(programs, extra_names=tuple(system.objects))
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
            self._lid_order.append(lid)
            self._labels_data |= {
                (lid, label.obj, label.method, label.args,
                 label.ret, label.ts),
            }

    def _rebuild_mirrors(self) -> None:
        lids = self._lids
        self._seen_lids: Dict[str, FrozenSet[Lid]] = {
            r: frozenset(lids[l.uid] for l in self.system._seen[r])
            for r in self.replicas
        }
        self._vis_lids: FrozenSet[Tuple[Lid, Lid]] = frozenset(
            (lids[a.uid], lids[b.uid]) for a, b in self.system._vis
        )
        self._causal_lids: Dict[Lid, FrozenSet[Lid]] = {
            lids[label.uid]: frozenset(lids[p.uid] for p in preds)
            for label, preds in self.system._causal_preds.items()
        }

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
            for lid in self._lid_order:
                if lid not in seen and causal[lid] <= seen:
                    trans.append(("del", replica, lid))
        return trans

    def should_visit(self, transitions: List[Transition]) -> bool:
        if not transitions:
            return True
        if self.require_quiescence:
            return False
        return all(
            self.counters[r] == len(p) for r, p in self.programs.items()
        )

    def apply(self, transition: Transition) -> bool:
        kind, replica, payload = transition
        if kind == "inv":
            step_spec = self.programs[replica][payload]
            method, args = step_spec[0], step_spec[1]
            obj = step_spec[2] if len(step_spec) > 2 else None
            try:
                label = self.system.invoke(replica, method, args, obj=obj)
            except PreconditionViolation:
                return False  # this interleaving cannot run the op yet
            self.counters[replica] += 1
            self.returns[replica].append(label.ret)
            self._sync_lids()
            lid = self._lids[label.uid]
            seen = self._seen_lids[replica]
            self._vis_lids |= {(prior, lid) for prior in seen}
            self._seen_lids[replica] = seen | {lid}
            lids = self._lids
            self._causal_lids[lid] = frozenset(
                lids[p.uid] for p in self.system._causal_preds[label]
            )
            self._parts[replica] = None
            self._glob_frags = None
            return True
        label = self._lid_to_label[payload]
        # prechecked: transitions() established deliverability from the
        # lid mirrors at this exact configuration.
        self.system.deliver(replica, label, prechecked=True)
        self._seen_lids[replica] = self._seen_lids[replica] | {payload}
        self._parts[replica] = None
        return True

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
            tuple(self._lid_order),
            dict(self._causal_lids),
            self._labels_data,
            dict(self._seen_lids),
            self._vis_lids,
            dict(self._parts),
            self._glob_frags,
        )

    def pop(self, token: Tuple) -> None:
        (system_token, counters, returns, lids, per_origin, lid_to_label,
         lid_order, causal_lids, labels_data, seen_lids, vis_lids,
         parts, glob_frags) = token
        # Part entries are immutable values: restoring the shallow copy
        # re-marks exactly the replicas that were dirty at push time.
        self._parts = dict(parts)
        self._glob_frags = glob_frags
        if self.use_snapshots:
            self.system.restore(system_token)
            self._lids = dict(lids)
            self._per_origin = dict(per_origin)
            self._lid_to_label = dict(lid_to_label)
            self._lid_order = list(lid_order)
            self._causal_lids = dict(causal_lids)
            self._labels_data = labels_data
            self._seen_lids = dict(seen_lids)
            self._vis_lids = vis_lids
        else:
            # The deepcopy fallback replaces every label object, so the
            # lid resolution maps must be rebuilt from the fresh copy.
            self.stats.deepcopies += 1
            self.system = copy.deepcopy(system_token)
            self._lids = {}
            self._per_origin = {}
            self._lid_to_label = {}
            self._lid_order = []
            self._labels_data = frozenset()
            self._sync_lids()
            self._rebuild_mirrors()
            self._objs = sorted(self.system.objects.items())
            self._state_keys = [
                ((r, name), crdt)
                for r in self.replicas for name, crdt in self._objs
            ]
        self.counters = dict(counters)
        self.returns = {r: list(v) for r, v in returns.items()}

    # -- independence (the DPOR relation) -------------------------------

    def independent(self, a: Transition, b: Transition) -> bool:
        if not self.reduction:
            return False
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

    def hb_dependent(self, a: Transition, b: Transition) -> bool:
        """Structural dependence of a later event ``b`` on an earlier ``a``.

        This is the *coarse* relation source-DPOR computes races over; it
        may be coarser than :meth:`independent` (which additionally probes
        dynamic effector commutation) — a coarser happens-before merges
        fewer executions into one trace class, which only means more races
        are considered, never fewer, so mixing the two stays sound.

        Op-based events touch replica-local data (state, seen-set, clock),
        so two events are dependent iff they share a replica — plus the
        creation edge: a delivery depends on the invocation that generated
        its label (the k-th invocation at replica ``r`` has logical id
        ``(r, k)``, which is exactly ``("inv", r, k)``'s payload).

        With ``require_quiescence=False`` the visit hook observes interior
        configurations, where commuting adjacent events is not
        prefix-preserving; the engine demotes ``por="source"`` to the
        sleep path outright in that mode, and this relation answering
        "everything is dependent" is defense-in-depth should a caller
        reach the source machinery anyway.
        """
        if not self.require_quiescence:
            return True
        if a[1] == b[1]:
            return True
        if a[0] == "inv" and b[0] == "del" and b[2] == (a[1], a[2]):
            return True
        if b[0] == "inv" and a[0] == "del" and a[2] == (b[1], b[2]):
            return True  # symmetric guard; cannot occur in program order
        return False

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

    #: No transition ever needs forcing (see :meth:`must_schedule`): the
    #: engine skips the per-node seeding scan entirely.
    forces_schedule = False

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
    # O(path) relation loop per event.  Must stay equivalent to
    # :meth:`hb_dependent`; the differential suite pins the pair.

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
        if not self.require_quiescence:
            return (1 << length) - 1
        mask = self._hb_replica_masks.get(transition[1], 0)
        if transition[0] == "del":
            # The creation edge: the inv that generated this label.
            mask |= self._hb_mk_bit.get(transition[2], 0)
        return mask

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

    def _compute_part(self, replica: str) -> Tuple:
        """The replica-indexed fingerprint components of one replica."""
        system = self.system
        states = system._states
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
                state_fp(crdt, states[(replica, name)])
                for name, crdt in self._objs
            ),
        )

    def fingerprint(self) -> Any:
        parts = self._parts
        sym = self.sym
        if sym is None:
            for replica in self.replicas:
                if parts[replica] is None:
                    parts[replica] = self._compute_part(replica)
            return (
                tuple(parts[r] for r in self.replicas),
                (self._labels_data, self._vis_lids),
            )
        for replica in self.replicas:
            if parts[replica] is None:
                parts[replica] = sym.part_fragments(
                    self._compute_part(replica)
                )
        if self._glob_frags is None:
            self._glob_frags = sym.glob_fragments(
                (self._labels_data, self._vis_lids)
            )
        return sym.canonical(parts, self._glob_frags)

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


class _StateDomain:
    """State-based semantics: invoke / bounded-gossip transitions."""

    def __init__(
        self,
        system: StateBasedSystem,
        programs: Dict[str, Program],
        max_gossips: int,
        reduction: bool,
        stats: ExploreStats,
        symmetry: bool = False,
    ) -> None:
        self.system = system
        self.programs = programs
        self.replicas = list(programs)
        self.budget = max_gossips
        self.reduction = reduction
        self.stats = stats
        self.use_snapshots = system.snapshot_safe
        self.counters: Dict[str, int] = {r: 0 for r in programs}
        self.returns: Dict[str, List[Any]] = {r: [] for r in programs}
        self._lids: Dict[int, Lid] = {}
        self._per_origin: Dict[Any, int] = {}
        self._labels_data: FrozenSet[Tuple] = frozenset()
        self._sync_lids()
        self._rebuild_mirrors()
        self._state_fps: Dict[int, Tuple[Any, Any]] = {}
        # Incremental fingerprint parts — same discipline as _OpDomain.
        self._parts: Dict[str, Optional[Tuple]] = {
            r: None for r in self.replicas
        }
        self._glob_frags: Optional[Tuple] = None
        self.sym: Optional[SymmetryReducer] = None
        if symmetry and len(self.replicas) > 1:
            group = build_group(programs)
            stats.symmetry_group = group.order
            stats.pinned_replicas = len(group.pinned)
            if group.enabled:
                self.sym = SymmetryReducer(self.replicas, group)

    def _sync_lids(self) -> None:
        """Extend the lid map with labels generated since the last sync."""
        order = self.system.generation_order
        for label in order[len(self._lids):]:
            seq = self._per_origin.get(label.origin, 0)
            self._per_origin[label.origin] = seq + 1
            lid = (label.origin, seq)
            self._lids[label.uid] = lid
            self._labels_data |= {
                (lid, label.method, label.args, label.ret, label.ts),
            }

    def _rebuild_mirrors(self) -> None:
        """Recompute the lid-based seen/vis mirrors from the system."""
        lids = self._lids
        self._seen_lids: Dict[str, FrozenSet[Lid]] = {
            r: frozenset(lids[l.uid] for l in self.system._seen[r])
            for r in self.replicas
        }
        self._vis_lids: FrozenSet[Tuple[Lid, Lid]] = frozenset(
            (lids[a.uid], lids[b.uid]) for a, b in self.system._vis
        )

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
            method, args = self.programs[first][second]
            try:
                label = self.system.invoke(first, method, args)
            except PreconditionViolation:
                return False
            self.counters[first] += 1
            self.returns[first].append(label.ret)
            self._sync_lids()
            lid = self._lids[label.uid]
            seen = self._seen_lids[first]
            self._vis_lids |= {(prior, lid) for prior in seen}
            self._seen_lids[first] = seen | {lid}
            self._parts[first] = None
            self._glob_frags = None
            return True
        self.system.gossip(first, second)
        self._seen_lids[second] = self._seen_lids[second] | self._seen_lids[first]
        self.budget -= 1
        # Gossip mutates only the target replica (the source is read) —
        # plus the global budget, which lives in the glob component.
        self._parts[second] = None
        self._glob_frags = None
        return True

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
            self.budget,
            dict(self._lids),
            dict(self._per_origin),
            self._labels_data,
            dict(self._seen_lids),
            self._vis_lids,
            dict(self._parts),
            self._glob_frags,
        )

    def pop(self, token: Tuple) -> None:
        (system_token, counters, returns, budget, lids, per_origin,
         labels_data, seen_lids, vis_lids, parts, glob_frags) = token
        self._parts = dict(parts)
        self._glob_frags = glob_frags
        if self.use_snapshots:
            self.system.restore(system_token)
            self._lids = dict(lids)
            self._per_origin = dict(per_origin)
            self._labels_data = labels_data
            self._seen_lids = dict(seen_lids)
            self._vis_lids = vis_lids
        else:
            self.stats.deepcopies += 1
            self.system = copy.deepcopy(system_token)
            self._lids = {}
            self._per_origin = {}
            self._labels_data = frozenset()
            self._sync_lids()
            self._rebuild_mirrors()
        self.counters = dict(counters)
        self.returns = {r: list(v) for r, v in returns.items()}
        self.budget = budget

    # -- independence ---------------------------------------------------

    def _replicas_of(self, transition: Transition) -> Tuple[str, ...]:
        if transition[0] == "inv":
            return (transition[1],)
        return (transition[1], transition[2])

    def independent(self, a: Transition, b: Transition) -> bool:
        if not self.reduction:
            return False
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

    def hb_dependent(self, a: Transition, b: Transition) -> bool:
        """Structural dependence for the state-based semantics.

        Gossips are declared dependent on *everything* — deliberately
        coarser than :meth:`independent`.  The state-based visit hook
        fires on interior configurations too (program-complete nodes with
        leftover gossip budget), and source-DPOR only preserves maximal
        executions per trace class; making every gossip an ordering
        barrier forces each explored linearization to pass through every
        visitable interior configuration of its class (invocation-only
        commutations never change a program-complete prefix's
        configuration set), so the visited set stays exactly the sleep-set
        engine's.  The reduction then prunes invocation interleavings
        between gossips — and the persistent snapshots carry the rest.
        """
        if a[0] == "gos" or b[0] == "gos":
            return True
        return a[1] == b[1]

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
        if transition[0] == "gos":
            return (1 << length) - 1  # the global ordering barrier
        return (
            self._hb_replica_masks.get(transition[1], 0)
            | self._hb_gos_mask
        )

    # -- fingerprinting -------------------------------------------------

    def _state_fp(self, state) -> Any:
        cache = self._state_fps
        cached = cache.get(id(state))
        if cached is not None and cached[0] is state:
            return cached[1]
        fp = self.system.crdt.fingerprint(state)
        if len(cache) >= _STATE_FP_CACHE_LIMIT:
            cache.clear()
        cache[id(state)] = (state, fp)
        if len(cache) > self.stats.state_fp_cache_peak:
            self.stats.state_fp_cache_peak = len(cache)
        return fp

    def _compute_part(self, replica: str) -> Tuple:
        """The replica-indexed fingerprint components of one replica."""
        system = self.system
        return (
            self.counters[replica],
            tuple(self.returns[replica]),
            self._seen_lids[replica],
            system._generator.clock(replica),
            self._state_fp(system._states[replica]),
        )

    def fingerprint(self) -> Any:
        parts = self._parts
        sym = self.sym
        # The message/event logs are excluded deliberately: exploration
        # never re-reads old messages (gossip snapshots afresh), and the
        # visit callbacks observe history/states only.
        if sym is None:
            for replica in self.replicas:
                if parts[replica] is None:
                    parts[replica] = self._compute_part(replica)
            return (
                tuple(parts[r] for r in self.replicas),
                (self._labels_data, self._vis_lids, self.budget),
            )
        for replica in self.replicas:
            if parts[replica] is None:
                parts[replica] = sym.part_fragments(
                    self._compute_part(replica)
                )
        if self._glob_frags is None:
            self._glob_frags = sym.glob_fragments(
                (self._labels_data, self._vis_lids, self.budget)
            )
        return sym.canonical(parts, self._glob_frags)

    def canon_sleep(self, sleep: FrozenSet[Transition]) -> Any:
        """See :meth:`_OpDomain.canon_sleep`."""
        sym = self.sym
        if sym is None or not sleep:
            return sleep
        return sym.rename_transitions(sleep)

    def uncanon_transitions(
        self, transitions: FrozenSet[Transition]
    ) -> FrozenSet[Transition]:
        """See :meth:`_OpDomain.uncanon_transitions`."""
        sym = self.sym
        if sym is None or not transitions:
            return transitions
        return sym.unrename_transitions(transitions)

    def visit_args(self) -> Tuple[Any, Dict[str, List[Any]]]:
        return self.system, self.returns


# ----------------------------------------------------------------------
# The DFS core: sleep sets / source sets + dedup over a domain
# ----------------------------------------------------------------------


class _Frame:
    """Per-node scheduling state of the source-DPOR search.

    ``mode`` distinguishes how race reversals landing here are handled:

    * ``"real"`` — a live node of this engine's DFS: reversals join the
      node's ``backtrack`` set and its candidate loop explores them.
    * ``"defer"`` — a replayed prefix node of a stolen subtree task: the
      node's sibling loop ran (or runs) on another worker, so reversals
      become fresh subtree tasks on this engine's deferred queue.
    * ``"ignore"`` — the root node of a static root-branch split: every
      root transition is seeded as its own branch task, so any reversal
      is already covered.
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

    __slots__ = ("_domain", "_profile")

    def __init__(self, domain, profile) -> None:
        self._domain = domain
        self._profile = profile

    def __getattr__(self, name):
        return getattr(self._domain, name)

    def push(self):
        start = time.perf_counter()
        token = self._domain.push()
        self._profile.add("snapshot", time.perf_counter() - start)
        return token

    def pop(self, token) -> None:
        start = time.perf_counter()
        self._domain.pop(token)
        self._profile.add("restore", time.perf_counter() - start)

    def apply(self, transition) -> bool:
        start = time.perf_counter()
        ok = self._domain.apply(transition)
        self._profile.add("apply", time.perf_counter() - start)
        return ok

    def independent(self, a, b) -> bool:
        start = time.perf_counter()
        result = self._domain.independent(a, b)
        self._profile.add("commute", time.perf_counter() - start)
        return result

    def race_reversible(self, a, b) -> bool:
        start = time.perf_counter()
        result = self._domain.race_reversible(a, b)
        self._profile.add("commute", time.perf_counter() - start)
        return result

    def fingerprint(self):
        start = time.perf_counter()
        fp = self._domain.fingerprint()
        self._profile.add("fingerprint", time.perf_counter() - start)
        return fp

    def canon_sleep(self, sleep):
        start = time.perf_counter()
        result = self._domain.canon_sleep(sleep)
        self._profile.add("fingerprint", time.perf_counter() - start)
        return result

    def uncanon_transitions(self, transitions):
        start = time.perf_counter()
        result = self._domain.uncanon_transitions(transitions)
        self._profile.add("fingerprint", time.perf_counter() - start)
        return result

    def hb_dep_mask(self, transition, index):
        start = time.perf_counter()
        mask = self._domain.hb_dep_mask(transition, index)
        self._profile.add("hb", time.perf_counter() - start)
        return mask

    def hb_note(self, transition, index) -> None:
        start = time.perf_counter()
        self._domain.hb_note(transition, index)
        self._profile.add("hb", time.perf_counter() - start)

    def hb_unnote(self, transition, index) -> None:
        start = time.perf_counter()
        self._domain.hb_unnote(transition, index)
        self._profile.add("hb", time.perf_counter() - start)

    def residual_transitions(self):
        start = time.perf_counter()
        result = self._domain.residual_transitions()
        self._profile.add("hb", time.perf_counter() - start)
        return result


class _Engine:
    """Depth-first search with sleep sets (or source-DPOR) and
    fingerprint deduplication."""

    def __init__(
        self,
        domain,
        visit: Callable[[Any, Dict[str, List[Any]]], None],
        max_configurations: Optional[int],
        dedup: bool,
        stats: ExploreStats,
        fingerprints: Optional[set] = None,
        store: Optional[Any] = None,
        scheduler: Optional[Any] = None,
        budget: Optional[Any] = None,
        por: str = "sleep",
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
        self.dedup = dedup
        self.stats = stats
        #: The ``--spill`` :class:`~repro.runtime.fp_store.FingerprintStore`,
        #: or None: when set, the visited/expanded records are keyed by its
        #: collision-checked digests and spill to its sqlite tier; without
        #: it they hold raw fingerprints in a plain set and dict.
        self.store = store
        #: Optional work-stealing hook (``should_split(depth)`` /
        #: ``offload(path, sleep)``); when set, the engine tracks the
        #: transition path from the root so unexplored siblings can be
        #: handed off as replayable subtree tasks.
        self.scheduler = scheduler
        #: Optional cross-worker configuration budget (``claim(fp)`` /
        #: ``exhausted()``) implementing an exact shared
        #: ``max_configurations`` cutoff under parallel exploration.
        self.budget = budget
        self._path: List[Transition] = []
        #: Fingerprints of configurations already reported to ``visit``.
        #: A caller-provided set is used in place (and thus observable
        #: afterwards) — the parallel frontier-split merge unions the
        #: per-branch sets to count distinct configurations globally.
        if fingerprints is None:
            fingerprints = store.visited_set() if store is not None else set()
        self._visited_fps: Any = fingerprints
        #: fingerprint -> sleep sets the subtree was explored under.  A new
        #: arrival is subsumed if some recorded sleep set is contained in
        #: the current one (then every schedule allowed now was allowed —
        #: and explored — before).
        self._expanded: Any = (
            store.expanded_map() if store is not None else {}
        )
        if por not in ("sleep", "source", "optimal"):
            raise ValueError(f"unknown por mode {por!r}")
        if por != "sleep" and not getattr(domain, "reduction", True):
            # reduction=False means "explore every interleaving" (the
            # per-entry escape hatch / naive parity mode); the sleep path
            # with empty sleep sets is exactly that.
            por = "sleep"
        if por != "sleep" and not getattr(
            domain, "require_quiescence", True
        ):
            # Non-quiescent op exploration visits *interior*
            # configurations, which source-DPOR's maximal-execution
            # guarantee does not preserve (two trace-equivalent
            # executions pass through different interiors).  Fall back
            # to sleep sets, which visit every non-pruned node.
            por = "sleep"
        #: Partial-order reduction flavor: classic sleep sets,
        #: source-DPOR (sleep sets + race-driven source sets), or
        #: optimal DPOR (source sets + wakeup-tree continuations).
        self.por = por
        self._optimal = por == "optimal"
        #: Source-DPOR frame stack, aligned with ``_path`` (frame i is
        #: the node reached by ``_path[:i]``).
        self._frames: List[_Frame] = []
        #: Happens-before predecessor bitmask per path event.
        self._hb: List[int] = []
        #: Race reversals landing on defer-mode (stolen-prefix) frames,
        #: run locally as (path, sleep, frame-sleeps, guide) subtree
        #: tasks.
        self._deferred: List[Tuple] = []
        self._deferred_seen = _DigestLRU()
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
        root_branch: Optional[int] = None,
        path: Optional[Sequence[Transition]] = None,
        sleep: FrozenSet[Transition] = frozenset(),
        frames: Optional[Sequence[FrozenSet[Transition]]] = None,
        guide: WakeupTree = None,
    ) -> ExploreStats:
        """Explore the whole tree, one root branch, or a stolen subtree.

        ``path`` replays a transition sequence from the root and runs the
        DFS below it under ``sleep`` — the work-stealing task unit.
        ``frames`` (source-DPOR tasks only) carries the per-prefix-node
        sleep sets, so race reversals landing on the replayed prefix can
        be re-run with the right schedule filters.  ``guide`` (optimal
        DPOR) is the pending wakeup subtree at the task's branch point:
        the stolen prefix replays the identical schedule the victim
        would have run.  Wall time *accumulates* so an engine reused
        across stolen tasks reports its total exploration time.

        Source-DPOR reversals that land on replayed prefix nodes are
        queued and drained here, after the primary unit: they never go
        back through the work-stealing queue (the ack protocol only
        accounts for victim-offloaded tasks), and exploring them locally
        at worst duplicates work another worker also covers — the merged
        fingerprint union is unchanged.
        """
        started = time.perf_counter()
        pstate_mark = pstate.STATS.snapshot()
        try:
            if path is not None:
                self._run_path(path, sleep, frames, guide=guide)
            elif root_branch is None:
                if self.por != "sleep":
                    self._run_source_root()
                else:
                    self._dfs(frozenset(), 1)
            else:
                self._run_root_branch(root_branch)
            while self._deferred:
                (task_path, task_sleep, task_frames,
                 task_guide) = self._deferred.pop()
                self._run_path(
                    task_path, task_sleep, task_frames,
                    race_task=True, guide=task_guide,
                )
        except _SearchCapped:
            self.stats.capped = True
            if self.journal is not None:
                self.journal.record(
                    "budget.exhausted",
                    configurations=self.stats.configurations,
                )
        copied, shared = pstate.STATS.snapshot()
        self.stats.pstate_copied += copied - pstate_mark[0]
        self.stats.pstate_shared += shared - pstate_mark[1]
        if self._deferred_seen.peak > self.stats.dpor_deferred_seen:
            self.stats.dpor_deferred_seen = self._deferred_seen.peak
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

    def _run_path(
        self,
        path: Sequence[Transition],
        sleep: FrozenSet[Transition],
        frames: Optional[Sequence[FrozenSet[Transition]]] = None,
        race_task: bool = False,
        guide: WakeupTree = None,
    ) -> None:
        """Replay ``path`` from the root, then DFS under ``sleep``.

        The path was produced by a worker that successfully applied every
        transition on it, and apply() failures are deterministic in the
        configuration, so a replay failure means the task is corrupt —
        raise rather than silently dropping a subtree.  The one exception
        is the *last* transition of a deferred race task (``race_task``):
        a race candidate is enabled structurally but may still fail its
        precondition at the branch point, in which case the reversal is
        covered by fully re-expanding that node instead.
        """
        domain = self.domain
        token = domain.push()
        try:
            if self.por != "sleep":
                last = len(path) - 1
                for index, transition in enumerate(path):
                    frame_sleep = (
                        frames[index]
                        if frames is not None and index < len(frames)
                        else frozenset()
                    )
                    self._frames.append(_Frame(
                        "defer", domain.transitions(), frame_sleep,
                    ))
                    if not domain.apply(transition):
                        if race_task and index == last:
                            self._full_expand_defer(index)
                            return
                        raise RuntimeError(
                            "stolen subtree failed to replay at "
                            f"{transition!r}"
                        )
                    if index == last:
                        # The victim offloaded or deferred this transition
                        # without executing it, so its races with the
                        # prefix are still unprocessed; on the defer
                        # frames their reversals become local tasks.
                        self._record_event(transition)
                    else:
                        # Record happens-before only: races *among*
                        # prefix events were processed by the victim when
                        # it first executed them.
                        _, hb_mask = self._analyze_event(transition)
                        domain.hb_note(transition, len(self._path))
                        self._path.append(transition)
                        self._hb.append(hb_mask)
                self._dfs_source(frozenset(sleep), len(path) + 1, guide)
            else:
                for transition in path:
                    if not domain.apply(transition):
                        raise RuntimeError(
                            "stolen subtree failed to replay at "
                            f"{transition!r}"
                        )
                self._path = list(path)
                self._dfs(frozenset(sleep), len(path) + 1)
        finally:
            # Restore the root even when capped mid-subtree, so a worker
            # session stays reusable for its next task.
            self._reset_stacks()
            domain.pop(token)

    def _run_root_branch(self, branch: int) -> None:
        """Explore only the subtree under the ``branch``-th root transition.

        This is the frontier-split unit of the parallel verifier: worker
        ``i`` reconstructs exactly the state the serial DFS has when it
        descends into root child ``i`` — the earlier root transitions that
        ran (and were fully explored) become sleep-set seeds when
        independent of this branch's transition — and then runs the
        ordinary DFS below it.  Branch 0 additionally owns the root
        configuration itself, so across workers it is reported once.
        A ``branch`` beyond the root's out-degree is a no-op.

        Under source-DPOR the root node gets an ``"ignore"`` frame: every
        root transition is statically seeded as a branch of its own (the
        orbit filter only drops transitions covered by a symmetric
        representative), so the full root expansion subsumes any source
        set a race reversal could request.
        """
        domain, stats = self.domain, self.stats
        transitions = domain.transitions()
        fingerprint = self.dedup and self._fingerprint()
        if branch == 0:
            stats.states_visited += 1
            stats.peak_frontier = max(stats.peak_frontier, 1)
            if domain.should_visit(transitions):
                self._report(fingerprint)
        if branch >= len(transitions):
            return
        if self.dedup:
            # Serial DFS records the root under the empty sleep set; keep
            # that so deeper re-arrivals at the root configuration are
            # subsumed here exactly as they are serially.
            self._expanded.setdefault(fingerprint, []).append(frozenset())
        target = transitions[branch]
        token = domain.push()
        done: List[Transition] = []
        for transition in transitions[:branch]:
            # Serial order: these ran (and were explored) before `target`.
            # Test-apply to find out which ones actually ran — a failed
            # apply() is skipped by the serial loop too.
            if domain.apply(transition):
                domain.pop(token)
                done.append(transition)
        child_sleep = frozenset(
            other for other in done if domain.independent(other, target)
        )
        if domain.apply(target):
            if self.por != "sleep":
                self._frames.append(_Frame("ignore", transitions,
                                           frozenset()))
                try:
                    domain.hb_note(target, 0)
                    self._path.append(target)
                    self._hb.append(0)
                    self._dfs_source(child_sleep, 2)
                finally:
                    self._reset_stacks()
                    domain.pop(token)
            else:
                self._path = [target]
                try:
                    self._dfs(child_sleep, 2)
                finally:
                    self._path = []
                    domain.pop(token)

    def _report(self, fingerprint: Any) -> None:
        if self.dedup:
            if fingerprint in self._visited_fps:
                return
            if self.budget is not None:
                # claim() is three-valued: 1 = newly claimed (count and
                # check it here), 0 = another worker already counted it
                # (keep it in our visited set — the merged union then
                # still counts it exactly once), -1 = the shared cap was
                # reached before this configuration (do NOT record it:
                # nobody counted it, so it must not survive the union).
                claim = self.budget.claim(fingerprint)
                if claim < 0:
                    raise _SearchCapped
                self._visited_fps.add(fingerprint)
                if claim == 0:
                    return
            else:
                self._visited_fps.add(fingerprint)
        self.stats.configurations += 1
        self.visit(*self.domain.visit_args())
        if (
            self.max_configurations is not None
            and self.stats.configurations >= self.max_configurations
        ):
            raise _SearchCapped
        if self.budget is not None and self.budget.exhausted():
            raise _SearchCapped

    def _dfs(self, sleep: FrozenSet[Transition], depth: int) -> None:
        domain, stats = self.domain, self.stats
        stats.states_visited += 1
        if self.heartbeat is not None:
            self.heartbeat.tick(depth)
        if depth > stats.peak_frontier:
            stats.peak_frontier = depth
        if self.budget is not None and self.budget.exhausted():
            raise _SearchCapped
        transitions = domain.transitions()
        fingerprint = self.dedup and self._fingerprint()
        if domain.should_visit(transitions):
            self._report(fingerprint)
        if not transitions:
            return
        if self.dedup:
            # Sleep sets are compared in the canonical frame: under
            # symmetry, orbit members arriving with differently-named
            # schedules must subsume each other iff their canonical
            # images do (canon_sleep is the identity with symmetry off).
            sleep_key = domain.canon_sleep(sleep)
            # One setdefault = one hash of the (large, nested) fingerprint
            # tuple; a get-then-setdefault pair would hash it twice.
            recorded_sets = self._expanded.setdefault(fingerprint, [])
            for recorded in recorded_sets:
                if recorded <= sleep_key:
                    stats.states_deduped += 1
                    return
            recorded_sets.append(sleep_key)
        scheduler = self.scheduler
        token = domain.push()
        done: List[Transition] = []
        explored_locally = False
        did_split = False
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
            if (
                scheduler is not None
                and explored_locally
                and scheduler.should_split(depth)
            ):
                # The pool is hungry: hand this sibling's subtree to an
                # idle worker instead of exploring it here.  Test-apply
                # keeps serial semantics — a failed apply() is skipped by
                # the serial loop too, and ``done``/``child_sleep`` are
                # exactly what the serial DFS would have used.
                if domain.apply(transition):
                    domain.pop(token)
                    scheduler.offload(
                        tuple(self._path) + (transition,), child_sleep
                    )
                    stats.steal_spawned += 1
                    if self.journal is not None:
                        self.journal.record(
                            "steal.split", depth=depth,
                            path_len=len(self._path) + 1,
                        )
                    if not did_split:
                        did_split = True
                        stats.steal_splits += 1
                    done.append(transition)
                continue
            if not domain.apply(transition):
                continue
            if scheduler is not None:
                self._path.append(transition)
                self._dfs(child_sleep, depth + 1)
                self._path.pop()
            else:
                self._dfs(child_sleep, depth + 1)
            domain.pop(token)
            done.append(transition)
            explored_locally = True

    # -- source-DPOR ----------------------------------------------------

    def _dfs_source(
        self,
        sleep: FrozenSet[Transition],
        depth: int,
        guide: WakeupTree = None,
    ) -> None:
        """The source-DPOR / optimal-DPOR node loop.

        Unlike :meth:`_dfs`, which schedules *every* enabled transition
        outside the sleep set, this loop schedules only the node's
        **source set**: the first non-slept transition, plus whatever race
        reversals detected along deeper executions add to the node's
        backtrack set (lazily, while the node is still on the stack).
        Enabled transitions never demanded by a race are provably
        redundant — their interleavings reach already-covered
        Mazurkiewicz traces — and are counted in
        ``dpor_redundant_avoided`` instead of explored.

        Under ``por="optimal"`` the backtrack dict carries a **wakeup
        tree**: each candidate maps to the pending continuation (the
        rest of the reversal sequence ``v·t`` grafted by
        :meth:`_reverse_race`), and ``guide`` is this node's own pending
        subtree handed down by the parent.  Guided nodes seed their
        schedule from the guide's root transitions instead of the
        default first-non-slept pick, so a demanded reversal is replayed
        verbatim rather than re-discovered through fresh races — the
        sibling expansions the source engine's conservative fallbacks
        force never start.  Guidance is advisory: a guide root that is
        slept or disabled here is dropped (its trace class is covered by
        the branch that slept it, or rediscovered through races), which
        keeps the source-set coverage argument untouched.
        """
        domain, stats = self.domain, self.stats
        stats.states_visited += 1
        if self.heartbeat is not None:
            self.heartbeat.tick(depth)
        if depth > stats.peak_frontier:
            stats.peak_frontier = depth
        if self.budget is not None and self.budget.exhausted():
            raise _SearchCapped
        transitions = domain.transitions()
        fingerprint = self.dedup and self._fingerprint()
        if domain.should_visit(transitions):
            self._report(fingerprint)
        if not transitions:
            return
        patch: Optional[FrozenSet[Transition]] = None
        if self.dedup:
            sleep_key = domain.canon_sleep(sleep)
            recorded_sets = self._expanded.setdefault(fingerprint, [])
            patch_base = None
            patch_missing = None
            for recorded in recorded_sets:
                if recorded <= sleep_key:
                    stats.states_deduped += 1
                    # The subtree below an equivalent node is not run
                    # again — but its events can still race with *this*
                    # path's prefix, so replay the residual alphabet
                    # against the open frames.
                    self._replay_residual()
                    return
                if self._optimal:
                    missing = recorded - sleep_key
                    if patch_missing is None or \
                            len(missing) < len(patch_missing):
                        patch_base, patch_missing = recorded, missing
            if patch_missing is not None and \
                    len(patch_missing) <= _PATCH_LIMIT:
                # Partial cut at a re-converged state: a prior visit with
                # recorded sleep R covered every execution from here not
                # starting in R; this arrival (sleep S, R ⊄ S) only owes
                # the executions starting in R \ S.  Explore exactly
                # those branches — races they demand land on the live
                # frames as usual — replay the residual alphabet for the
                # covered remainder, and record R ∩ S: the union of both
                # visits covers everything not starting in the
                # intersection, so the records weaken monotonically and
                # later arrivals full-cut.  ``R \ S`` lives in the
                # canonical frame; pull it back through the latest
                # minimizing permutation before scheduling.
                stats.dpor_patch_cuts += 1
                patch = domain.uncanon_transitions(patch_missing)
                self._replay_residual()
                recorded_sets.append(patch_base & sleep_key)
            else:
                recorded_sets.append(sleep_key)
        frame = _Frame("real", transitions, sleep)
        self._frames.append(frame)
        scheduler = self.scheduler
        token = domain.push()
        explored_locally = False
        did_split = False
        try:
            if patch is not None:
                # Patch node: schedule only the owed difference (plus
                # whatever races add while it runs).  A pending guide is
                # dropped — its demanded class either starts in the
                # patch (explored here) or not in the prior record's
                # sleep (covered by the recorded visit, whose races the
                # residual replay just re-demanded).
                for candidate in patch:
                    if frame.is_enabled(candidate):
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
                if (
                    scheduler is not None
                    and explored_locally
                    and scheduler.should_split(depth)
                ):
                    if domain.apply(transition):
                        domain.pop(token)
                        scheduler.offload(
                            tuple(self._path) + (transition,),
                            child_sleep,
                            tuple(f.sleep for f in self._frames),
                            # The candidate's pending wakeup subtree
                            # rides along so the thief replays the
                            # identical schedule (None under "source").
                            frame.backtrack.get(transition),
                        )
                        stats.steal_spawned += 1
                        if self.journal is not None:
                            self.journal.record(
                                "steal.split", depth=depth,
                                path_len=len(self._path) + 1,
                            )
                        if not did_split:
                            did_split = True
                            stats.steal_splits += 1
                        frame.done.append(transition)
                        frame.progressed = True
                    continue
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
                explored_locally = True
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

    @staticmethod
    def _initial_covered(
        w: Transition,
        sleep: FrozenSet[Transition],
        real: bool,
        backtrack: Dict[Transition, Any],
        tried: set,
        taken: Optional[Transition],
    ) -> bool:
        """The source-set condition for one initial ``w``, shared by the
        ``path[m]`` and trailing-``transition`` arms of the race walk: a
        slept initial means the branch that slept it covers the
        reversal; a scheduled/run initial means this node already
        explores it; on a defer frame the prefix transition itself is
        the schedule the stealing victim runs."""
        if w in sleep:
            return True
        if real:
            return w in backtrack or w in tried
        return w == taken

    def _race_plan(
        self, j: int, k: int, transition: Transition, hb_mask: int
    ) -> Optional[Tuple[Transition, WakeupTree]]:
        """Walk the initials of ``v = notdep(path[j], E) · transition``.

        Returns ``None`` when some initial already covers the reversal,
        else ``(first, continuation)``: the sequence's first event and —
        under optimal DPOR — the wakeup subtree encoding the rest of
        ``v·t`` in path order, so the branch replays the demanded
        schedule instead of rediscovering it race by race.
        """
        profile = self.profile
        start = time.perf_counter() if profile is not None else 0.0
        frame = self._frames[j]
        real = frame.mode == "real"
        # On a "defer" frame the sibling loop belongs to the stealing
        # victim, so reversals become local subtree tasks instead.
        taken = None if real else self._path[j]
        path, hb = self._path, self._hb
        sleep = frame.sleep
        backtrack, tried = frame.backtrack, frame.tried
        first: Optional[Transition] = None
        covered = False
        v_mask = 0
        optimal = self._optimal
        chain: Optional[List[Transition]] = [] if optimal else None
        dep_tail: Optional[List[Transition]] = [] if optimal else None
        for m in range(j + 1, k):
            hbm = hb[m]
            if (hbm >> j) & 1:
                # Depends on path[j]: not part of v — but part of the
                # wakeup spine's tail (see below).
                if dep_tail is not None:
                    dep_tail.append(path[m])
                continue
            w = path[m]
            if not (hbm & v_mask):
                if self._initial_covered(
                    w, sleep, real, backtrack, tried, taken
                ):
                    covered = True
                    break
                if first is None:
                    first = w
            v_mask |= 1 << m
            if chain is not None:
                chain.append(w)
        if not covered and not (hb_mask & v_mask):
            if self._initial_covered(
                transition, sleep, real, backtrack, tried, taken
            ):
                covered = True
            elif first is None:
                first = transition
        if first is None:  # pragma: no cover - v always has an initial
            covered = True
        plan: Optional[Tuple[Transition, WakeupTree]] = None
        if not covered:
            cont: WakeupTree = None
            if chain is not None:
                # The wakeup spine is the *whole* trace permutation
                # v·t·path[j]·(events dependent on path[j], in path
                # order): after the reversed pair runs, the tail
                # re-executes the remainder of the original fragment, so
                # the branch converges onto recorded configurations and
                # is dedup-cut within a step or two instead of wandering
                # to a sleep-blocked dead end.  The spine respects
                # happens-before everywhere except the deliberately
                # reversed (path[j], t) pair, and sleep inheritance
                # cooperates: path[j] is slept (from ``done``) across v
                # and woken exactly when the dependent t executes.
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
        the first initial is scheduled — grafted into the backtrack
        (wakeup) store of a real frame, queued as a subtree task for a
        defer frame — through this single insertion point.  A demanded
        initial that is not enabled at frame ``j`` (only possible via
        :meth:`_replay_residual`'s positional over-approximation)
        degrades the frame to the full sleep-set schedule; optimal DPOR
        first drops the demand when :meth:`_demand_vacuous` proves the
        event ordered after ``path[j]`` in every execution, and counts
        the degradations it cannot avoid as wakeup fallbacks rather
        than full expansions — races from real executions always have
        enabled initials, so the classical optimality argument is
        unaffected.
        """
        plan = self._race_plan(j, k, transition, hb_mask)
        if plan is None:
            return
        first, cont = plan
        frame = self._frames[j]
        real = frame.mode == "real"
        if self.journal is not None:
            self.journal.record(
                "dpor.reversal", frame=j, depth=k, mode=frame.mode,
            )
        if not frame.is_enabled(first):
            if self._optimal and self._demand_vacuous(j, first):
                # Vacuous: ordered after path[j] in every run.
                self.stats.dpor_vacuity_drops += 1
                return
            if real:
                self._full_expand(frame)
            else:
                self._full_expand_defer(j, taken=self._path[j])
            return
        if real:
            if cont is not None:
                self.stats.dpor_wakeup_branches += 1
            frame.backtrack[first] = cont
            frame.race_added.add(first)
        else:
            self._defer(j, first, cont)

    def _counter_at(self, j: int, replica: str) -> int:
        """Invocations ``replica`` had completed at frame ``j`` — i.e.
        the program index of its next invocation there."""
        count = 0
        path = self._path
        for m in range(j):
            t = path[m]
            if t[0] == "inv" and t[1] == replica:
                count += 1
        return count

    def _demand_vacuous(self, j: int, first: Transition) -> bool:
        """Is a demanded-but-disabled initial provably vacuous?

        A race can demand a transition not enabled at frame ``j`` only
        through :meth:`_replay_residual`'s positional over-approximation:
        the demanded event sits behind unexecuted program steps or
        undelivered causal predecessors.  When its enabling chain runs
        through an invocation of ``path[j]``'s own replica while
        ``path[j]`` is itself an invocation, program order pins the
        demanded event after ``path[j]`` in every execution — the race
        is an artifact of the missing creation edge and the demand is
        dropped with no insertion at all.

        Every other disabled demand degrades to a counted conservative
        expansion in the caller.  Substituting the first *enabled* link
        of the chain looks tempting — "every execution performing the
        demanded event schedules it first" — but is unsound: the link
        need not be an *initial* of the demanded class, so finding it
        asleep (covered by a sibling) does not imply the class itself
        was covered, and configurations are lost.  Stress-testing with
        sleep independence coarsened to the happens-before relation
        exposes exactly that loss; the vacuity walk below survives the
        same stress bit-for-bit.
        """
        frame = self._frames[j]
        blocker = self._path[j]
        if blocker[0] != "inv":
            # Deliveries and gossips reorder freely with the
            # invocations of their replica: nothing is pinned behind
            # path[j], so no demand is vacuous.
            return False
        pinned = blocker[1]
        domain = self.domain
        t = first
        for _ in range(64):
            if frame.is_enabled(t):
                return False
            kind = t[0]
            if kind == "inv":
                q = t[1]
                if q == pinned:
                    return True  # program order: after path[j] always
                head = ("inv", q, self._counter_at(j, q))
                if head == t:  # pragma: no cover - head is enabled
                    return False
                t = head
                continue
            if kind != "del":  # pragma: no cover - gossips never block
                return False
            target, lid = t[1], t[2]
            q, i = lid
            if i >= self._counter_at(j, q):
                # The label does not exist at frame j: its creating
                # invocation chain must run first.
                if q == pinned:
                    return True  # creation sits after path[j]: vacuous
                t = ("inv", q, self._counter_at(j, q))
                continue
            # The label exists at frame j but is not deliverable there:
            # a causal predecessor is missing from the target's seen
            # set.  The *current* seen set is a sound proxy — seen sets
            # only grow, so a lid missing now was missing at frame j.
            # (min() keeps the walk deterministic across worker
            # processes; frozenset order is not.)
            seen = domain._seen_lids[target]
            missing = min(
                (p for p in domain._causal_lids[lid] if p not in seen),
                default=None,
            )
            if missing is None:  # pragma: no cover - delivered inside
                # (j, k): the walk covered the demand through v, or the
                # race was never hb-adjacent.  Unreachable; degrade
                # conservatively rather than drop the reversal.
                return False
            t = ("del", target, missing)
        return False  # pragma: no cover - chains are acyclic

    def _full_expand(self, frame: _Frame) -> None:
        """Degrade a frame to the sleep-set schedule (every non-slept
        enabled transition), the conservative fallback when precise race
        coverage is unavailable.  Under optimal DPOR the triggers are a
        race candidate failing its *precondition* at apply time and a
        non-vacuous disabled initial demanded by residual replay —
        counted separately as wakeup fallbacks, since races detected on
        real executions always insert precisely and the classical
        full-expansion count stays zero."""
        if self._optimal:
            self.stats.dpor_wakeup_fallbacks += 1
        else:
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

    def _full_expand_defer(
        self, j: int, taken: Optional[Transition] = None
    ) -> None:
        """Defer-frame analogue of :meth:`_full_expand`: enqueue every
        non-slept enabled transition at prefix node ``j`` as a subtree
        task (minus ``taken``, whose subtree the victim explored)."""
        if self._optimal:
            self.stats.dpor_wakeup_fallbacks += 1
        else:
            self.stats.dpor_full_expansions += 1
        frame = self._frames[j]
        for transition in frame.enabled:
            if transition not in frame.sleep and transition != taken:
                self._defer(j, transition)

    def _defer(
        self, j: int, w: Transition, cont: WakeupTree = None
    ) -> None:
        """Queue the subtree task ``path[:j] + (w,)`` (deduplicated)."""
        prefix = tuple(self._path[:j])
        if self._deferred_seen.seen((prefix, w)):
            return
        domain = self.domain
        frame = self._frames[j]
        task_sleep = frozenset(
            s for s in frame.sleep if domain.independent(s, w)
        )
        frame_sleeps = tuple(f.sleep for f in self._frames[:j + 1])
        self._deferred.append(
            (prefix + (w,), task_sleep, frame_sleeps, cont)
        )
        self.stats.dpor_deferred += 1

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
        itself cut short (offloaded, capped) is irrelevant.  Positional
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
# Session factory (the work-stealing workers' entry point)
# ----------------------------------------------------------------------


def build_engine(
    kind: str,
    make_system: Callable[[], Any],
    programs: Dict[str, Program],
    visit: Callable[[Any, Dict[str, List[Any]]], None],
    require_quiescence: bool = True,
    max_gossips: int = 3,
    max_configurations: Optional[int] = None,
    reduction: bool = True,
    dedup: bool = True,
    stats: Optional[ExploreStats] = None,
    fingerprints: Optional[set] = None,
    store: Optional[Any] = None,
    scheduler: Optional[Any] = None,
    budget: Optional[Any] = None,
    symmetry: bool = False,
    por: str = "sleep",
    profile: Optional[Any] = None,
    journal: Optional[Any] = None,
    heartbeat: Optional[Any] = None,
) -> _Engine:
    """Build a reusable exploration engine for ``kind`` (``op``/``state``).

    Unlike :func:`explore_op_programs`/:func:`explore_state_programs`,
    which run one exploration and return, the engine handle persists its
    domain, visited/expanded records, and statistics across multiple
    :meth:`_Engine.run` calls — the work-stealing workers run many
    subtree tasks of the same scope through one session, so dedup and
    verdict caches warm up exactly like a serial run's.
    """
    stats = stats if stats is not None else ExploreStats()
    if kind == "op":
        domain: Any = _OpDomain(
            make_system(), programs, require_quiescence, reduction, stats,
            symmetry=symmetry,
        )
    elif kind == "state":
        domain = _StateDomain(
            make_system(), programs, max_gossips, reduction, stats,
            symmetry=symmetry,
        )
    else:  # pragma: no cover - caller bug
        raise ValueError(f"unknown exploration kind {kind!r}")
    return _Engine(
        domain, visit, max_configurations, dedup, stats,
        fingerprints=fingerprints, store=store,
        scheduler=scheduler, budget=budget, por=por,
        profile=profile, journal=journal, heartbeat=heartbeat,
    )


# ----------------------------------------------------------------------
# Public entry points (signatures of the historical explorers)
# ----------------------------------------------------------------------


def explore_op_programs(
    make_system: Callable[[], OpBasedSystem],
    programs: Dict[str, Program],
    visit: Callable[[OpBasedSystem, Dict[str, List[Any]]], None],
    require_quiescence: bool = True,
    max_configurations: Optional[int] = None,
    reduction: bool = True,
    dedup: bool = True,
    stats: Optional[ExploreStats] = None,
    root_branch: Optional[int] = None,
    fingerprints: Optional[set] = None,
    instrumentation: Optional[Instrumentation] = None,
    symmetry: bool = False,
    store: Optional[Any] = None,
    por: str = "sleep",
    heartbeat: Optional[Any] = None,
) -> int:
    """Run per-replica ``programs`` under every op-based interleaving.

    ``visit(system, returns)`` is called once per *distinct* final
    configuration (deduplicated by canonical fingerprint); the system
    object passed to ``visit`` is reused by the engine afterwards, so
    callbacks must extract what they need rather than keep a reference.
    Returns the number of configurations visited.

    ``reduction=False`` disables the commutativity-based sleep sets (the
    per-entry escape hatch); ``dedup=False`` additionally disables
    fingerprint deduplication, recovering the naive enumeration order.
    ``symmetry=True`` dedups on orbit representatives under replica
    permutation (see :mod:`repro.runtime.symmetry`): ``visit`` then fires
    once per orbit and ``max_configurations`` caps the *orbit* count.
    ``stats`` may be a caller-provided :class:`ExploreStats` to fill in.

    ``root_branch=i`` explores only the subtree under the i-th initial
    transition (the frontier-split unit of ``repro.proofs.parallel``);
    ``fingerprints`` may be a caller-provided set used as the visited-
    configuration record, so branch workers' sets can be unioned.

    ``instrumentation`` wraps the run in an ``explore.op`` span and folds
    the final :class:`ExploreStats` into metrics; the DFS hot path is
    untouched, so disabled instrumentation costs one attribute check.
    """
    stats = stats if stats is not None else ExploreStats()
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    domain = _OpDomain(
        make_system(), programs, require_quiescence, reduction, stats,
        symmetry=symmetry,
    )
    with ins.span("explore.op", replicas=len(programs),
                  root_branch=root_branch, symmetry=symmetry,
                  por=por) as span:
        _Engine(
            domain, visit, max_configurations, dedup, stats,
            fingerprints=fingerprints, store=store, por=por,
            profile=ins.profile, journal=ins.journal, heartbeat=heartbeat,
        ).run(root_branch)
        span.set(configurations=stats.configurations,
                 states_visited=stats.states_visited)
    if ins.enabled:
        ins.record_explore(stats, kind="op")
    return stats.configurations


def explore_state_programs(
    make_system: Callable[[], StateBasedSystem],
    programs: Dict[str, Program],
    visit: Callable[[StateBasedSystem, Dict[str, List[Any]]], None],
    max_gossips: int = 3,
    max_configurations: Optional[int] = None,
    reduction: bool = True,
    dedup: bool = True,
    stats: Optional[ExploreStats] = None,
    root_branch: Optional[int] = None,
    fingerprints: Optional[set] = None,
    instrumentation: Optional[Instrumentation] = None,
    symmetry: bool = False,
    store: Optional[Any] = None,
    por: str = "sleep",
    heartbeat: Optional[Any] = None,
) -> int:
    """Run ``programs`` under every bounded state-based interleaving.

    Same optimization/escape-hatch knobs (``symmetry`` included) and
    instrumentation hook as :func:`explore_op_programs`; ``visit`` fires
    on every configuration whose programs have finished, including ones
    with leftover gossip budget (partial propagation).
    """
    stats = stats if stats is not None else ExploreStats()
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    domain = _StateDomain(
        make_system(), programs, max_gossips, reduction, stats,
        symmetry=symmetry,
    )
    with ins.span("explore.state", replicas=len(programs),
                  max_gossips=max_gossips, root_branch=root_branch,
                  symmetry=symmetry, por=por) as span:
        _Engine(
            domain, visit, max_configurations, dedup, stats,
            fingerprints=fingerprints, store=store, por=por,
            profile=ins.profile, journal=ins.journal, heartbeat=heartbeat,
        ).run(root_branch)
        span.set(configurations=stats.configurations,
                 states_visited=stats.states_visited)
    if ins.enabled:
        ins.record_explore(stats, kind="state")
    return stats.configurations


# ----------------------------------------------------------------------
# Canonical configuration keys (the differential-oracle equivalence)
# ----------------------------------------------------------------------


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
    states = tuple(
        (r, name, crdt.fingerprint(system._states[(r, name)]))
        for r in system.replicas
        for name, crdt in sorted(system.objects.items())
    )
    rets = tuple(sorted((r, tuple(v)) for r, v in returns.items()))
    return (labels, vis, seen, states, rets)


def state_config_key(
    system: StateBasedSystem, returns: Dict[str, List[Any]]
) -> Tuple:
    """State-based analogue of :func:`op_config_key`."""
    lids = _logical_ids(system.generation_order)
    labels = frozenset(
        (lids[l.uid], l.method, l.args, l.ret, l.ts)
        for l in system.generation_order
    )
    vis = frozenset((lids[a.uid], lids[b.uid]) for a, b in system._vis)
    seen = tuple(
        (r, frozenset(lids[l.uid] for l in system._seen[r]))
        for r in system.replicas
    )
    states = tuple(
        (r, system.crdt.fingerprint(system._states[r]))
        for r in system.replicas
    )
    rets = tuple(sorted((r, tuple(v)) for r, v in returns.items()))
    return (labels, vis, seen, states, rets)


# ----------------------------------------------------------------------
# Orbit keys (the symmetry-differential-oracle equivalence)
# ----------------------------------------------------------------------


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
    group = build_group(programs, extra_names=tuple(system.objects))
    labels, vis, seen, states, rets = op_config_key(system, returns)
    # The per-replica components are tuples *ordered by replica name*;
    # renaming inside an ordered tuple would not reorder the slots, so
    # turn them into sets first (entries stay unique — each is keyed by
    # its replica name) and let canon_key sort them after renaming.
    key = (labels, vis, frozenset(seen), frozenset(states), frozenset(rets))
    return min(canon_key(key, mapping) for mapping in group.maps)


def state_orbit_key(
    system: StateBasedSystem,
    returns: Dict[str, List[Any]],
    programs: Dict[str, Program],
) -> Tuple:
    """State-based analogue of :func:`op_orbit_key` (over
    :func:`state_config_key`, which already collapses leftover-budget
    duplicates identically on the naive and engine sides)."""
    group = build_group(programs)
    labels, vis, seen, states, rets = state_config_key(system, returns)
    key = (labels, vis, frozenset(seen), frozenset(states), frozenset(rets))
    return min(canon_key(key, mapping) for mapping in group.maps)
