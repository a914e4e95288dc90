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

Each domain compiles its scope once into an integer transition alphabet
(:class:`_Domain`): transitions are indices, every set the DFS keeps is
an int bitmask, the static part of the independence relation and each
replica permutation are per-transition tables, and only the
state-dependent commutativity probes run per node.

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
    rename_transition,
)
from .system import OpBasedSystem

#: Per-state fingerprint caches are cleared past this many entries; the
#: peak size is reported via ``ExploreStats.state_fp_cache_peak`` and the
#: ``explore.state_fp_cache`` gauge.
_STATE_FP_CACHE_LIMIT = 1 << 13

#: A straight-line per-replica program: ``(method, args)`` steps, or
#: ``(method, args, obj)`` when the system hosts several objects.
Program = List[Tuple[Any, ...]]

#: A transition: an index into its domain's compiled
#: :attr:`_Domain.alphabet`, whose entries are ``("inv", replica, step)``,
#: ``("del", target, lid)`` or ``("gos", source, target)``.  A set of
#: transitions (sleep, tried, done, a recorded sleep) is an int bitmask
#: over these indices.
Transition = int

#: A logical label id ``(origin replica, program step)`` — stable across
#: branches, unlike ``Label.uid`` which is freshly drawn on every
#: re-execution of the same program step.  Domains number the lids of a
#: scope ``0 .. n-1`` in replica then step order, so a lid doubles as a
#: bit of a seen-set mask and as the index of the ``inv`` that mints it.
Lid = Tuple[str, int]

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


def _permute(mask: int, table: Sequence[int]) -> int:
    """The image of a transition mask under an index table."""
    image = 0
    while mask:
        low = mask & -mask
        mask ^= low
        image |= 1 << table[low.bit_length() - 1]
    return image


# ----------------------------------------------------------------------
# Domains: the op-based and state-based semantics behind a common DFS
# ----------------------------------------------------------------------


class _Domain:
    """The bookkeeping both semantics share, over one live system.

    A domain compiles its scope once into an integer **alphabet**: the
    ``inv`` of every program step, numbered like its lid, then the
    semantics' propagation transitions.  Everything per transition the
    DFS asks about — who acts, which transitions it is statically
    independent of, which pairs still need a commutativity probe, its
    image under every replica permutation — is a table lookup or a
    precomputed mask, and every set the DFS keeps is an int bitmask.

    A domain mirrors the configuration the DFS stands on: program
    counters and returns, lid-mask seen-sets, lid-valued label data and
    visibility, and the incremental fingerprint parts.  Every write
    replaces a value instead of mutating it (copy-on-write), so a
    :meth:`push` token holds references only and :meth:`pop` reassigns
    them.  Subclasses supply the semantics: the propagation transitions
    (causal delivery in :class:`_OpDomain`, gossip in
    :class:`_StateDomain`) and their ``apply`` arm, the independence
    masks with their commutativity probe, the source-DPOR relations,
    the replica-indexed fingerprint part and the replica-free
    fingerprint component.
    """

    #: Name of the one semantics-specific field the push/pop token
    #: carries; its value is never mutated in place, so the token holds
    #: it by reference.
    _TAIL: str

    #: Transitions every node must schedule (see
    #: :meth:`_StateDomain.residual_transitions`), as a mask; 0 lets the
    #: engine skip the per-node seeding scan entirely.
    forced = 0

    def __init__(
        self,
        system: Any,
        programs: Dict[str, Program],
        stats: ExploreStats,
        symmetry: bool,
        extra_names: Tuple[str, ...] = (),
    ) -> None:
        if system.generation_order:
            raise ValueError("exploration starts from an empty history")
        self.system = system
        self.programs = programs
        self.replicas = list(programs)
        self.stats = stats
        self.use_snapshots = system.snapshot_safe
        self.counters: Dict[str, int] = {r: 0 for r in programs}
        self.returns: Dict[str, List[Any]] = {r: [] for r in programs}
        #: Every lid of the scope, indexed by its number.
        self._lid_names: List[Lid] = [
            (r, i) for r in self.replicas for i in range(len(programs[r]))
        ]
        #: ``(replica, number of its first lid, program length)``.
        self._inv_rows: List[Tuple[str, int, int]] = []
        base = 0
        for replica in self.replicas:
            self._inv_rows.append((replica, base, len(programs[replica])))
            base += len(programs[replica])
        self._lid_base = {r: base for r, base, _ in self._inv_rows}
        #: Transitions below this index are invocations (``inv`` of lid t).
        self._n_inv = len(self._lid_names)
        position = {r: k for k, r in enumerate(self.replicas)}
        #: The acting replica's position, per transition (filled by
        #: :meth:`_compile` past the invocations).
        self._actor: List[int] = [position[r] for r, _ in self._lid_names]
        #: Grow-only: the label each lid was last generated as.  Entry
        #: ``l`` is read only while ``l`` is live on the current path,
        #: where it holds that path's label: re-generating ``l`` needs a
        #: branch above its generation, which pops every node that saw
        #: the older label first.
        self._labels: List[Any] = [None] * self._n_inv
        #: Label content keyed by logical id, extended by each invoke so
        #: fingerprint() does not re-collect the whole order per DFS
        #: node.  A *set*, not a sequence: the generation order of
        #: concurrent operations is not observable in the configuration
        #: (the lid pins each label to its program step, and visibility
        #: carries the causal structure), and an order-insensitive label
        #: component is what lets permuted-interleaving orbit members —
        #: and plain interleaving variants — deduplicate.
        self._labels_data: FrozenSet[Tuple] = frozenset()
        # Lid-mask mirrors of the system's seen-sets, and lid-valued
        # visibility, updated alongside apply() (the system's update
        # discipline is small: invoke adds vis edges from the origin's
        # seen labels plus the label itself; propagation only adds to
        # seen).  The naive-vs-engine differential oracle guards the
        # mirrors: a divergence changes the deduplicated visit set.
        self._seen: Dict[str, int] = {r: 0 for r in self.replicas}
        self._vis_lids: FrozenSet[Tuple[Lid, Lid]] = frozenset()
        #: Seen mask -> the frozenset of lids the fingerprint holds.
        self._lid_sets: Dict[int, FrozenSet[Lid]] = {}
        # Per-state fingerprint cache: id(state) -> (state, fingerprint).
        # Holding the state reference pins the id against reuse.
        self._state_fps: Dict[int, Tuple[Any, Any]] = {}
        # Incremental fingerprint parts: one entry of replica-indexed
        # components per replica, None = dirty (recomputed lazily by
        # fingerprint()).  apply() dirties only the touched replica in a
        # copy of the table, so the per-node fingerprint cost is
        # O(delta), not O(configuration).  With symmetry on, entries hold
        # the part's *image vector* (its byte images under every group
        # element) instead of the raw part; the replica-free component is
        # imaged lazily by the reducer.
        self._parts: Dict[str, Optional[Tuple]] = {
            r: None for r in self.replicas
        }
        #: The compiled transitions, indexed by :data:`Transition`.
        self.alphabet: List[Tuple] = [
            ("inv", r, i) for r, i in self._lid_names
        ]
        self._compile(position)
        self.sym: Optional[SymmetryReducer] = None
        #: Per group element, the index of each transition's image, and
        #: the same for the inverse element.
        self.rename_tables: List[List[int]] = []
        self.unrename_tables: List[List[int]] = []
        if symmetry and len(self.replicas) > 1:
            group = build_group(programs, extra_names=extra_names)
            stats.symmetry_group = group.order
            stats.pinned_replicas = len(group.pinned)
            if group.enabled:
                self.sym = SymmetryReducer(self.replicas, group)
                index = {t: i for i, t in enumerate(self.alphabet)}
                for mapping in group.maps:
                    inverse = {b: a for a, b in mapping.items()}
                    self.rename_tables.append([
                        index[rename_transition(t, mapping)]
                        for t in self.alphabet
                    ])
                    self.unrename_tables.append([
                        index[rename_transition(t, inverse)]
                        for t in self.alphabet
                    ])

    def _compile(self, position: Dict[str, int]) -> None:
        """Append the propagation transitions to :attr:`alphabet` and
        build their tables and the independence masks."""
        raise NotImplementedError

    def _lid_set(self, mask: int) -> FrozenSet[Lid]:
        """The lids of a seen mask, as the fingerprint stores them."""
        found = self._lid_sets.get(mask)
        if found is None:
            found = frozenset([
                name for lid, name in enumerate(self._lid_names)
                if (mask >> lid) & 1
            ])
            if len(self._lid_sets) >= _STATE_FP_CACHE_LIMIT:
                self._lid_sets.clear()
            self._lid_sets[mask] = found
        return found

    def _invoke(self, lid: int) -> Any:
        """The ``inv`` arm of ``apply``: run the program step of ``lid``
        and extend the mirrors.

        Returns the new label, or None when the step's precondition
        fails in this configuration.
        """
        replica, index = self._lid_names[lid]
        try:
            label = self.system.invoke(replica, *self.programs[replica][index])
        except PreconditionViolation:
            return None  # this interleaving cannot run the op yet
        self._labels[lid] = label
        counters = dict(self.counters)
        counters[replica] = index + 1
        self.counters = counters
        returns = dict(self.returns)
        returns[replica] = returns[replica] + [label.ret]
        self.returns = returns
        name = self._lid_names[lid]
        self._labels_data = self._labels_data | {
            (name, label.obj, label.method, label.args, label.ret,
             label.ts),
        }
        seen = self._seen[replica]
        if seen:
            self._vis_lids = self._vis_lids | {
                (prior, name) for prior in self._lid_set(seen)
            }
        self._write(replica, seen | (1 << lid))
        return label

    def _write(self, replica: str, seen: int) -> None:
        """Set ``replica``'s seen mask and dirty its fingerprint part,
        both in fresh tables (the old ones may sit in a token)."""
        seen_table = dict(self._seen)
        seen_table[replica] = seen
        self._seen = seen_table
        parts = dict(self._parts)
        parts[replica] = None
        self._parts = parts

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
            self.counters,
            self.returns,
            self._seen,
            self._parts,
            self._labels_data,
            self._vis_lids,
            getattr(self, self._TAIL),
        )

    def pop(self, token: Tuple) -> None:
        (system_token, self.counters, self.returns, self._seen,
         self._parts, self._labels_data, self._vis_lids, tail) = token
        if self.use_snapshots:
            self.system.restore(system_token)
        else:
            # The deepcopy fallback replaces every label object, so the
            # live lids are pointed at the fresh copy's labels.
            self.stats.deepcopies += 1
            self.system = copy.deepcopy(system_token)
            steps: Dict[str, int] = {}
            for label in self.system.generation_order:
                step = steps.get(label.origin, 0)
                steps[label.origin] = step + 1
                self._labels[self._lid_base[label.origin] + step] = label
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
        # Filling a dirty entry in place is the one write that skips
        # copy-on-write: a token sharing this table belongs to the same
        # configuration (apply copies the table before changing it), so
        # the filled value is right for it too.
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

    def canon_sleep(self, sleep: int) -> int:
        """Translate a sleep set into the frame of the latest fingerprint.

        With symmetry on, the fingerprint is the image of the
        configuration under the minimizing permutation π*; sleep sets
        recorded against it must live in the same frame, so subsumption
        compares schedules of the *canonical* configuration, not of
        whichever orbit member happened to arrive.
        """
        sym = self.sym
        if sym is None or not sleep or not sym.last_index:
            return sleep
        return _permute(sleep, self.rename_tables[sym.last_index])

    def uncanon_transitions(self, transitions: int) -> int:
        """Inverse of :meth:`canon_sleep` under the latest fingerprint."""
        sym = self.sym
        if sym is None or not transitions or not sym.last_index:
            return transitions
        return _permute(transitions, self.unrename_tables[sym.last_index])

    def visit_args(self) -> Tuple[Any, Dict[str, List[Any]]]:
        return self.system, self.returns


class _OpDomain(_Domain):
    """Op-based semantics: invoke / causal-delivery transitions."""

    #: The lids generated on the current path, in generation order (the
    #: order ``transitions`` lists deliveries in).
    _TAIL = "_generated"

    def __init__(
        self,
        system: OpBasedSystem,
        programs: Dict[str, Program],
        stats: ExploreStats,
        symmetry: bool = False,
    ) -> None:
        self._generated: Tuple[int, ...] = ()
        super().__init__(system, programs, stats, symmetry,
                         extra_names=tuple(system.objects))
        #: Grow-only, like ``_labels``: each lid's causal predecessors as
        #: a lid mask (what its origin had seen of its object).
        self._causal: List[int] = [0] * self._n_inv
        # The object and generator tables never change shape mid-search.
        self._obj_names = sorted(system.objects)
        self._gen_names = sorted(system._generators)

    def _compile(self, position: Dict[str, int]) -> None:
        """``del(t, (o, i))`` for every target ``t`` and lid ``(o, i)``
        with ``o ≠ t``, by target, origin and step; then the masks.

        Distinct replicas touch disjoint replica-local data — states,
        seen-sets and logical clocks are per replica, and the
        visibility and effector tables only ever grow commutatively — so
        transitions at distinct replicas are independent.  So are two
        deliveries at one replica of labels of different objects
        (disjoint state components).  Two deliveries of the same object
        at one replica are independent iff their effectors commute on
        the replica's current state: those pairs are the probe masks.
        An invocation reads and writes its replica's state, seen-set and
        clock, so it depends on everything else at its replica.
        """
        objects = list(self.system.objects)
        sole = objects[0] if len(objects) == 1 else None
        obj_of = []
        for replica, step in self._lid_names:
            spec = self.programs[replica][step]
            obj_of.append(
                spec[2] if len(spec) > 2 and spec[2] is not None else sole
            )
        #: Per lid, the lids of its object: causal predecessors are the
        #: origin's seen labels of the same object.
        self._same_object = [
            sum(1 << other for other, o in enumerate(obj_of) if o == obj)
            for obj in obj_of
        ]
        alphabet, actor = self.alphabet, self._actor
        #: Per delivery, the lid it delivers (-1 for invocations).
        self._del_lid: List[int] = [-1] * self._n_inv
        #: ``(target, lid -> delivery index)``; own lids map to -1.
        self._del_rows: List[Tuple[str, List[int]]] = []
        #: ``(target, ((lid, delivery index), ...))`` over foreign lids.
        self._foreign: List[Tuple[str, Tuple[Tuple[int, int], ...]]] = []
        for target in self.replicas:
            row = [-1] * self._n_inv
            pairs = []
            for lid, name in enumerate(self._lid_names):
                if name[0] == target:
                    continue  # origins see their own labels immediately
                row[lid] = len(alphabet)
                pairs.append((lid, len(alphabet)))
                alphabet.append(("del", target, name))
                actor.append(position[target])
                self._del_lid.append(lid)
            self._del_rows.append((target, row))
            self._foreign.append((target, tuple(pairs)))
        self._indep: List[int] = []
        self._probe: List[int] = []
        for a in range(len(alphabet)):
            indep = probe = 0
            for b in range(len(alphabet)):
                if actor[a] != actor[b]:
                    indep |= 1 << b
                elif a >= self._n_inv and b >= self._n_inv:
                    if obj_of[self._del_lid[a]] != obj_of[self._del_lid[b]]:
                        indep |= 1 << b
                    else:
                        probe |= 1 << b
            self._indep.append(indep)
            self._probe.append(probe)

    # -- transitions ----------------------------------------------------

    def transitions(self) -> List[Transition]:
        counters = self.counters
        trans = [
            base + counters[replica]
            for replica, base, length in self._inv_rows
            if counters[replica] < length
        ]
        # Causal delivery over the lid masks (same condition as
        # ``system.deliverable``; apply() passes ``prechecked=True`` so
        # the system does not re-derive it — the naive differential
        # oracle pins the mirrors against mis-scheduling).
        generated = self._generated
        if generated:
            causal, seen_table = self._causal, self._seen
            for replica, row in self._del_rows:
                seen = seen_table[replica]
                for lid in generated:
                    if not (seen >> lid) & 1 and not causal[lid] & ~seen:
                        trans.append(row[lid])
        return trans

    def should_visit(self, transitions: List[Transition]) -> bool:
        return not transitions  # quiescent: programs run out, all delivered

    def apply(self, transition: Transition) -> bool:
        if transition < self._n_inv:
            seen = self._seen[self._lid_names[transition][0]]
            if self._invoke(transition) is None:
                return False
            self._causal[transition] = seen & self._same_object[transition]
            self._generated += (transition,)
            return True
        lid = self._del_lid[transition]
        replica = self.replicas[self._actor[transition]]
        # prechecked: transitions() established deliverability from the
        # lid masks at this exact configuration.
        self.system.deliver(replica, self._labels[lid], prechecked=True)
        self._write(replica, self._seen[replica] | (1 << lid))
        return True

    # -- independence (the DPOR relation) -------------------------------

    def sleep_after(self, sleep: int, transition: Transition) -> int:
        """The members of ``sleep`` independent of ``transition`` here:
        the static mask, plus each probed pair whose effectors commute
        on the replica's current state."""
        child = sleep & self._indep[transition]
        pending = sleep & self._probe[transition]
        while pending:
            low = pending & -pending
            pending ^= low
            if self._delivered_commute(low.bit_length() - 1, transition):
                child |= low
        return child

    def _live(self, lid: int) -> bool:
        """Whether ``lid``'s label was generated on the current path."""
        origin, step = self._lid_names[lid]
        return self.counters[origin] > step

    def _delivered_commute(self, a: Transition, b: Transition) -> bool:
        first, second = self._del_lid[a], self._del_lid[b]
        if not (self._live(first) and self._live(second)):
            return False
        return self._effectors_commute(
            self.replicas[self._actor[a]],
            self._labels[first], self._labels[second],
        )

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
        n = self._n_inv
        if a < n:
            # Program order, or creation: b delivers a's label (an inv's
            # index is the lid it mints).
            return b >= n and self._del_lid[b] != a
        if b >= n and self._actor[a] == self._actor[b]:
            # Same-replica deliveries: irreversible when a's label is a
            # causal predecessor of b's (b was not deliverable before a).
            lid = self._del_lid[b]
            if self._live(lid) and (self._causal[lid] >> self._del_lid[a]) & 1:
                return False
        return True

    def residual_transitions(self) -> List[Transition]:
        """Every event that can still occur from this configuration.

        Dedup cuts replay these against the open frames in place of the
        pruned subtree's actual events.  Under quiescence the two sets
        coincide exactly: every maximal execution below this node runs
        all remaining invocations and drains every delivery, so the
        residual alphabet *is* the subtree footprint — no recording, no
        canonical-frame renaming, O(remaining work) to enumerate.
        """
        counters = self.counters
        res: List[Transition] = []
        for replica, base, length in self._inv_rows:
            res.extend(range(base + counters[replica], base + length))
        seen_table = self._seen
        for target, pairs in self._foreign:
            seen = seen_table[target]
            res.extend([d for lid, d in pairs if not (seen >> lid) & 1])
        return res

    # Incremental happens-before masks: the engine notes each path event
    # once, and ``hb_dep_mask`` answers "which path indices is this event
    # hb-dependent on" as a bitmask in O(1) lookups instead of an O(path)
    # relation loop per event.

    def hb_reset(self) -> None:
        self._hb_replica_masks = [0] * len(self.replicas)
        #: Per lid, the path bit of the inv that minted it (0 if none).
        self._hb_mk_bit = [0] * self._n_inv

    def hb_note(self, transition: Transition, index: int) -> None:
        bit = 1 << index
        self._hb_replica_masks[self._actor[transition]] |= bit
        if transition < self._n_inv:
            self._hb_mk_bit[transition] = bit

    def hb_unnote(self, transition: Transition, index: int) -> None:
        self._hb_replica_masks[self._actor[transition]] &= ~(1 << index)
        if transition < self._n_inv:
            self._hb_mk_bit[transition] = 0

    def hb_dep_mask(self, transition: Transition, length: int) -> int:
        """Path indices (of the first ``length``) ``transition`` depends on.

        This is the *coarse* structural dependence source-DPOR computes
        races over; it may be coarser than :meth:`sleep_after` (which
        additionally probes dynamic effector commutation) — a coarser
        happens-before merges fewer executions into one trace class,
        which only means more races are considered, never fewer, so
        mixing the two stays sound.

        Op-based events touch replica-local data (state, seen-set,
        clock), so two events are dependent iff they share a replica —
        plus the creation edge: a delivery depends on the invocation that
        generated its label (the inv of lid ``l`` is transition ``l``).
        """
        mask = self._hb_replica_masks[self._actor[transition]]
        if transition >= self._n_inv:
            # The creation edge: the inv that generated this label.
            mask |= self._hb_mk_bit[self._del_lid[transition]]
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
            self._lid_set(self._seen[replica]),
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

    def _compile(self, position: Dict[str, int]) -> None:
        """``gos(s, t)`` for every ordered pair ``s ≠ t``; then the masks.

        Writers are the targets; sources are only read.  An invocation
        is independent of another replica's invocation and of every
        gossip that neither reads nor writes its replica.  Two gossips
        are independent only while two budget units remain (taking one
        may disable the other): with disjoint writes that neither reads
        (:attr:`_gos_indep`), or, into one target, iff the two source
        snapshots merge commutatively into the target's current state
        (lattice joins do; mutants may not) — those pairs are the probe
        masks.
        """
        alphabet, actor = self.alphabet, self._actor
        #: Per gossip, its ``(source, target)`` (None for invocations).
        self._ends: List[Optional[Tuple[str, str]]] = [None] * self._n_inv
        gossips = []
        for source in self.replicas:
            for target in self.replicas:
                if source != target:
                    gossips.append(len(alphabet))
                    alphabet.append(("gos", source, target))
                    actor.append(position[target])
                    self._ends.append((source, target))
        self._gossips: Tuple[int, ...] = tuple(gossips)
        # Gossips are alternatives, not mandatory events: they drain a
        # shared budget (see residual_transitions).
        self.forced = sum(1 << g for g in gossips)
        self._indep: List[int] = []
        self._gos_indep: List[int] = []
        self._probe: List[int] = []
        for a, ends_a in enumerate(self._ends):
            indep = gos_indep = probe = 0
            for b, ends_b in enumerate(self._ends):
                if ends_a is None and ends_b is None:
                    independent = actor[a] != actor[b]
                elif ends_a is None or ends_b is None:
                    inv, ends = (a, ends_b) if ends_a is None else (b, ends_a)
                    independent = self._lid_names[inv][0] not in ends
                else:
                    if ends_a[1] == ends_b[1]:
                        probe |= 1 << b
                    elif ends_a[1] not in ends_b and ends_b[1] not in ends_a:
                        gos_indep |= 1 << b
                    continue
                if independent:
                    indep |= 1 << b
            self._indep.append(indep)
            self._gos_indep.append(gos_indep)
            self._probe.append(probe)

    # -- transitions ----------------------------------------------------

    def transitions(self) -> List[Transition]:
        counters = self.counters
        trans = [
            base + counters[replica]
            for replica, base, length in self._inv_rows
            if counters[replica] < length
        ]
        if self.budget > 0:
            trans.extend(self._gossips)
        return trans

    def should_visit(self, transitions: List[Transition]) -> bool:
        return all(
            self.counters[r] == len(p) for r, p in self.programs.items()
        )

    def apply(self, transition: Transition) -> bool:
        if transition < self._n_inv:
            return self._invoke(transition) is not None
        source, target = self._ends[transition]
        self.system.gossip(source, target)
        # Gossip mutates only the target replica (the source is read) —
        # plus the global budget, which lives in the glob component.
        self._write(target, self._seen[target] | self._seen[source])
        self.budget -= 1
        return True

    # -- independence ---------------------------------------------------

    def sleep_after(self, sleep: int, transition: Transition) -> int:
        """See :meth:`_OpDomain.sleep_after`."""
        child = sleep & self._indep[transition]
        if self.budget < 2:
            return child  # taking one gossip may disable the other
        child |= sleep & self._gos_indep[transition]
        pending = sleep & self._probe[transition]
        while pending:
            low = pending & -pending
            pending ^= low
            source = self._ends[low.bit_length() - 1][0]
            if self._merges_commute(source, *self._ends[transition]):
                child |= low
        return child

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
        n = self._n_inv
        return not (a < n and b < n and self._actor[a] == self._actor[b])

    def residual_transitions(self) -> List[Transition]:
        """See :meth:`_OpDomain.residual_transitions`.

        Remaining invocations occur in every maximal execution below
        this node; gossips are alternatives (budget-bounded), so the
        residual alphabet over-approximates any one subtree's footprint
        — extra replayed races cost work, never soundness.

        Gossips are why :attr:`forced` is set: they drain a shared
        budget, so a maximal execution that spends it on one gossip
        never contains the others — no explored execution need mention
        ``gos(2→1)``, and the race mechanism (which only reverses events
        that occur) would silently drop its configurations.  Every
        enabled gossip is therefore force-seeded into each node's source
        set; the reduction prunes invocation interleavings only, and
        gossip reversals replayed here are almost always already covered.
        """
        counters = self.counters
        res: List[Transition] = []
        for replica, base, length in self._inv_rows:
            res.extend(range(base + counters[replica], base + length))
        if self.budget > 0:
            res.extend(self._gossips)
        return res

    # Incremental happens-before masks — see :class:`_OpDomain`.

    def hb_reset(self) -> None:
        self._hb_replica_masks = [0] * len(self.replicas)
        self._hb_gos_mask = 0

    def hb_note(self, transition: Transition, index: int) -> None:
        bit = 1 << index
        if transition >= self._n_inv:
            self._hb_gos_mask |= bit
        else:
            self._hb_replica_masks[self._actor[transition]] |= bit

    def hb_unnote(self, transition: Transition, index: int) -> None:
        if transition >= self._n_inv:
            self._hb_gos_mask &= ~(1 << index)
        else:
            self._hb_replica_masks[self._actor[transition]] &= ~(1 << index)

    def hb_dep_mask(self, transition: Transition, length: int) -> int:
        """Structural dependence for the state-based semantics.

        Two invocations depend iff they share a replica; gossips are
        declared dependent on *everything* — deliberately coarser than
        :meth:`sleep_after`.  The state-based visit hook fires on
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
        if transition >= self._n_inv:
            return (1 << length) - 1  # the global ordering barrier
        return (
            self._hb_replica_masks[self._actor[transition]]
            | self._hb_gos_mask
        )

    # -- fingerprinting -------------------------------------------------

    def _compute_part(self, replica: str) -> Tuple:
        """The replica-indexed fingerprint components of one replica."""
        system = self.system
        return (
            self.counters[replica],
            tuple(self.returns[replica]),
            self._lid_set(self._seen[replica]),
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

    ``sleep``, ``tried``, ``done`` and ``race_added`` are transition
    masks.
    """

    __slots__ = (
        "mode", "enabled", "enabled_mask", "sleep", "backtrack", "tried",
        "done", "race_added", "progressed",
    )

    def __init__(
        self,
        mode: str,
        enabled: List[Transition],
        sleep: int,
    ) -> None:
        self.mode = mode
        self.enabled = enabled
        #: Lazily built by :meth:`is_enabled` — most frames never
        #: receive a race reversal, so the mask would be wasted work.
        self.enabled_mask = -1
        self.sleep = sleep
        #: Insertion-ordered candidate set (dict keys): the source set.
        self.backtrack: Dict[Transition, WakeupTree] = {}
        self.tried = 0
        self.done = 0
        self.race_added = 0
        self.progressed = False

    def is_enabled(self, transition: Transition) -> bool:
        mask = self.enabled_mask
        if mask < 0:
            mask = 0
            for enabled in self.enabled:
                mask |= 1 << enabled
            self.enabled_mask = mask
        return (mask >> transition) & 1 == 1


#: Ignore frames are never consulted beyond their mode, so one instance
#: serves every fully expanded prefix node.
_IGNORE_FRAME = _Frame("ignore", [], 0)


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
        "sleep_after": "commute",
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
        #: The ``(path, sleep)`` tasks of the last frontier walk: a tuple
        #: of transitions and a transition mask.
        self.frontier: List[Tuple[Tuple[Transition, ...], int]] = []
        #: Fingerprints of configurations already reported to ``visit``;
        #: the pool's merge unions the per-session sets to count distinct
        #: configurations globally.
        self.visited_fps: Any = (
            store.visited_set() if store is not None else set()
        )
        #: fingerprint -> sleep masks the subtree was explored under.  A
        #: new arrival is subsumed if some recorded sleep set is contained
        #: in the current one (then every schedule allowed now was
        #: allowed — and explored — before).
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
        sleep: int = 0,
        cap: Optional[int] = None,
    ) -> ExploreStats:
        """Explore the whole tree, a frontier task, or the frontier
        itself.

        ``path`` replays a transition sequence from the root and runs the
        DFS below it under the ``sleep`` mask — the pool's task unit.
        ``cap`` instead runs the sleep-set walk over the top ``cap``
        levels only (see :meth:`_run_frontier`) and leaves the nodes at
        that depth in :attr:`frontier`.  Wall time *accumulates* so an
        engine reused across tasks reports its total exploration time.
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
                self._dfs(0, 1)
        except _SearchCapped:
            self.stats.capped = True
            if self.journal is not None:
                self.journal.record(
                    "search.capped",
                    configurations=self.stats.configurations,
                    limit=self.max_configurations,
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
            self._dfs_source(0, 1)
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
            self._dfs(0, 1)
        finally:
            self._cap = None
            self._path = []

    def _run_path(self, path: Sequence[Transition], sleep: int) -> None:
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
                        "frontier task failed to replay at "
                        f"{domain.alphabet[transition]!r}"
                    )
                if source:
                    _, hb_mask = self._analyze_event(transition)
                    domain.hb_note(transition, len(self._path))
                    self._frames.append(_IGNORE_FRAME)
                    self._hb.append(hb_mask)
                self._path.append(transition)
            if source:
                self._dfs_source(sleep, len(path) + 1)
            else:
                self._dfs(sleep, len(path) + 1)
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

    def _dfs(self, sleep: int, depth: int) -> None:
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
            if not recorded & ~sleep_key:
                stats.states_deduped += 1
                return
        recorded_sets.append(sleep_key)
        cap = self._cap
        if cap is not None and depth > cap:
            self.frontier.append((tuple(self._path), sleep))
            return
        token = domain.push()
        done = 0
        for transition in transitions:
            if (sleep >> transition) & 1:
                stats.branches_pruned += 1
                continue
            # Sleep-set inheritance is decided *before* the step runs, on
            # the state the independence probe sees.
            base = sleep | done
            child_sleep = domain.sleep_after(base, transition) if base else 0
            if not domain.apply(transition):
                continue
            self._path.append(transition)
            self._dfs(child_sleep, depth + 1)
            self._path.pop()
            domain.pop(token)
            done |= 1 << transition

    # -- source-DPOR ----------------------------------------------------

    def _dfs_source(
        self,
        sleep: int,
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
        patch: Optional[int] = None
        sleep_key = domain.canon_sleep(sleep)
        recorded_sets = self._expanded.setdefault(fingerprint, [])
        patch_base = 0
        patch_size = _PATCH_LIMIT + 1
        patch_missing = 0
        for recorded in recorded_sets:
            missing = recorded & ~sleep_key
            if not missing:
                stats.states_deduped += 1
                # The subtree below an equivalent node is not run again —
                # but its events can still race with *this* path's
                # prefix, so replay the residual alphabet against the
                # open frames.
                self._replay_residual()
                return
            size = missing.bit_count()
            if size < patch_size:
                patch_base, patch_missing, patch_size = recorded, missing, size
        if patch_missing:
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
        backtrack = frame.backtrack
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
                # ``transitions`` order, like every other seeding.
                for candidate in transitions:
                    if (patch >> candidate) & 1:
                        backtrack[candidate] = None
            else:
                seeded = False
                if guide:
                    for candidate, subtree in guide.items():
                        if (sleep >> candidate) & 1 or not frame.is_enabled(
                            candidate
                        ):
                            continue
                        backtrack[candidate] = subtree
                        seeded = True
                if not seeded:
                    for transition in transitions:
                        if not (sleep >> transition) & 1:
                            backtrack[transition] = None
                            break
                forced = domain.forced & ~sleep
                if forced:
                    for transition in transitions:
                        if (forced >> transition) & 1:
                            # setdefault: a guided candidate keeps its
                            # pending continuation.
                            backtrack.setdefault(transition, None)
            while True:
                tried = frame.tried
                for transition in backtrack:
                    if not (tried >> transition) & 1:
                        break
                else:
                    if not frame.progressed and patch is None:
                        # Every candidate failed its precondition; seed
                        # the next untried enabled transition, exactly as
                        # the serial loop skips a failed apply().
                        blocked = sleep | tried
                        for candidate in transitions:
                            if not (blocked >> candidate) & 1:
                                backtrack[candidate] = None
                                break
                        else:
                            break
                        continue
                    break
                bit = 1 << transition
                frame.tried = tried | bit
                base = sleep | frame.done
                child_sleep = (
                    domain.sleep_after(base, transition) if base else 0
                )
                if not domain.apply(transition):
                    if frame.race_added & bit:
                        # A race demanded this reversal but the
                        # transition is disabled here after all; cover
                        # the reversal by scheduling everything.
                        self._full_expand(frame)
                    continue
                self._record_event(transition)
                self._dfs_source(
                    child_sleep, depth + 1, backtrack.get(transition)
                )
                self._path.pop()
                self._hb.pop()
                domain.hb_unnote(transition, len(self._path))
                domain.pop(token)
                frame.done |= bit
                frame.progressed = True
        finally:
            self._frames.pop()
        tried = frame.tried
        for transition in transitions:
            if (sleep >> transition) & 1:
                stats.branches_pruned += 1
            elif not (tried >> transition) & 1:
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
        # A slept initial is covered by the branch that slept it, a
        # scheduled or run one by this node itself.
        blocked = frame.sleep | frame.tried
        backtrack = frame.backtrack
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
                # The source-set condition for an initial.
                if (blocked >> w) & 1 or w in backtrack:
                    covered = True
                    break
                if first is None:
                    first = w
            v_mask |= 1 << m
            chain.append(w)
        if not covered and not (hb_mask & v_mask):
            if (blocked >> transition) & 1 or transition in backtrack:
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
        frame.race_added |= 1 << first

    def _full_expand(self, frame: _Frame) -> None:
        """Degrade a frame to the sleep-set schedule (every non-slept
        enabled transition), the conservative fallback when precise race
        coverage is unavailable: a race candidate failing its
        *precondition* at apply time, or a disabled initial demanded by
        residual replay."""
        self.stats.dpor_full_expansions += 1
        blocked = frame.sleep | frame.tried
        backtrack = frame.backtrack
        for transition in frame.enabled:
            if not (blocked >> transition) & 1 and transition not in backtrack:
                # Deliberately not race_added: if a fallback candidate
                # fails to apply it is skipped, as in the sleep engine.
                backtrack[transition] = None

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
