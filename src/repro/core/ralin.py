"""RA-linearizability checkers (Def. 3.5 and Def. 3.7, Sec. 4).

Three checkers are provided:

* :func:`check_ra_linearizable` — the brute-force decision procedure for
  Def. 3.5/3.7: search over update linearizations consistent with
  visibility, with specification-prefix pruning.
* :func:`check_update_order` — validate one *candidate* update order
  against conditions (i)–(iii); used by the two proof-methodology
  instantiations below.
* :func:`execution_order_check` / :func:`timestamp_order_check` — the
  Sec. 4.1 (execution-order) and Sec. 4.2 (timestamp-order, virtual
  timestamps) candidate constructions.

For checking many related histories (the exhaustive explorers, the Fig. 12
harness), :class:`RACheckContext` wraps the candidate checkers with two
caches (see ``docs/performance.md``):

* a shared :class:`~repro.core.spec.FrontierCache` so condition-(ii)/(iii)
  replays that share visible-update prefixes reuse spec frontiers, and
* a verdict memo keyed on a canonical history fingerprint, so
  configurations with identical histories (distinct delivery
  interleavings, same visibility) are checked once.
"""

import time as _time
from dataclasses import dataclass, field, fields
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .history import History
from .label import Label
from .linearization import (
    history_timestamp,
    induced_predecessors,
    iter_topological_orders,
    merge_queries,
    ts_sort_key,
)
from .rewriting import QueryUpdateRewriting, rewrite_history
from .spec import FrontierCache, SequentialSpec


@dataclass
class RAResult:
    """Outcome of an RA-linearizability check."""

    ok: bool
    reason: str = ""
    #: Witness update linearization (rewritten labels), when ``ok``.
    update_order: Optional[List[Label]] = None
    #: Witness full linearization (queries merged in), when ``ok`` and the
    #: caller asked for a witness (``want_witness``).
    linearization: Optional[List[Label]] = None
    #: Number of candidate update orders examined.
    explored: int = 0
    #: The rewritten history the check ran on.
    rewritten: Optional[History] = None
    #: Label at which the failing condition was detected (best effort).
    culprit: Optional[Label] = field(default=None)
    #: Which Def. 3.5 condition failed — ``"i"`` (visibility), ``"ii"``
    #: (admission), ``"iii"`` (query justification), or ``"cover"`` when
    #: the candidate does not even cover the updates.  None on success.
    condition: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _partition(history: History, spec: SequentialSpec):
    updates = frozenset(l for l in history.labels if spec.is_update(l))
    queries = frozenset(l for l in history.labels if spec.is_query(l))
    rest = history.labels - updates - queries
    if rest:
        raise ValueError(
            f"labels {sorted(rest, key=lambda l: l.uid)!r} are neither "
            "queries nor updates of the specification; apply a query-update "
            "rewriting first"
        )
    return updates, queries


def _query_ok(
    history: History,
    spec: SequentialSpec,
    update_order: Sequence[Label],
    updates: FrozenSet[Label],
    query: Label,
    frontiers: Optional[FrontierCache] = None,
) -> bool:
    """Condition (iii): ``seq↓vis⁻¹(q)∩Updates · q ∈ Spec``."""
    visible = history.visible_to(query) & updates
    subsequence = [u for u in update_order if u in visible]
    if frontiers is not None:
        return frontiers.query_ok(subsequence, query)
    frontier = spec.replay(subsequence)
    if not frontier:
        return False
    return bool(spec.step_frontier(frontier, query))


def _violates_visibility(
    history: History, position: Dict[Label, int]
) -> bool:
    """Condition (i) violation test, without materializing the closure.

    The candidate extends ``vis`` restricted to updates iff no update has a
    (possibly transitive, possibly through queries) visibility ancestor
    placed at or after it.  One DP pass over the direct edges computes each
    label's maximal ancestor position — O(|L| + |vis|) instead of the
    quadratic transitive closure.
    """
    preds: Dict[Label, List[Label]] = {}
    for src, dst in history.vis:
        preds.setdefault(dst, []).append(src)
    anc: Dict[Label, int] = {}
    for root in preds:
        if root in anc:
            continue
        stack = [root]
        while stack:
            node = stack[-1]
            if node in anc:
                stack.pop()
                continue
            direct = preds.get(node, ())
            pending = [p for p in direct if p not in anc]
            if pending:
                stack.extend(pending)
                continue
            best = -1
            for p in direct:
                if anc[p] > best:
                    best = anc[p]
                pos = position.get(p, -1)
                if pos > best:
                    best = pos
            anc[node] = best
            stack.pop()
    return any(
        anc.get(update, -1) >= pos for update, pos in position.items()
    )


def check_update_order(
    history: History,
    spec: SequentialSpec,
    update_order: Sequence[Label],
    frontiers: Optional[FrontierCache] = None,
    want_witness: bool = True,
    check_vis: bool = True,
    timings: Optional[Dict[str, float]] = None,
) -> RAResult:
    """Validate a candidate update linearization against Def. 3.5.

    ``history`` must already be rewritten (no query-updates).  Checks:
    (i) the candidate is consistent with visibility, (ii) it is admitted by
    the specification, (iii) every query is justified by its visible
    sub-sequence.

    ``frontiers`` — an optional shared :class:`FrontierCache` for ``spec``;
    conditions (ii) and (iii) then replay through the trie instead of from
    scratch.  ``want_witness=False`` skips constructing the merged full
    linearization on success (the verdict and ``update_order`` witness are
    unaffected) — the exhaustive checkers only consume the verdict, and the
    merge is a large share of a successful check's cost.
    ``check_vis=False`` skips condition (i) — only pass it when the caller
    has already established that the candidate extends visibility (e.g. the
    execution-order candidate of a history whose visibility follows the
    generation order; see :class:`RACheckContext`).
    ``timings`` — an optional dict accumulating wall seconds per condition
    under keys ``"i"``/``"ii"``/``"iii"`` (instrumentation hook; adds two
    clock reads per condition when provided, nothing when None).
    """
    updates, queries = _partition(history, spec)
    if set(update_order) != set(updates):
        return RAResult(False, "candidate does not cover exactly the updates",
                        condition="cover")

    started = _time.perf_counter() if timings is not None else 0.0
    position = {u: i for i, u in enumerate(update_order)}
    violates = check_vis and _violates_visibility(history, position)
    if timings is not None:
        timings["i"] = timings.get("i", 0.0) + _time.perf_counter() - started
    if violates:
        # Rare path: rescan the closure for the exact offending pair.
        for src, dst in history.closure():
            if (src in position and dst in position
                    and position[src] > position[dst]):
                return RAResult(
                    False,
                    f"candidate violates visibility: {dst!r} precedes "
                    f"{src!r}",
                    culprit=dst,
                    condition="i",
                )

    started = _time.perf_counter() if timings is not None else 0.0
    if frontiers is not None:
        rejected = frontiers.first_rejected(list(update_order))
    else:
        rejected = spec.first_rejected(list(update_order))
    if timings is not None:
        timings["ii"] = timings.get("ii", 0.0) + _time.perf_counter() - started
    if rejected is not None:
        return RAResult(
            False,
            f"update sequence not admitted by {spec.name} at {rejected!r}",
            culprit=rejected,
            condition="ii",
        )

    started = _time.perf_counter() if timings is not None else 0.0
    failed_query = None
    for query in sorted(queries, key=lambda l: l.uid):
        if not _query_ok(history, spec, update_order, updates, query,
                         frontiers):
            failed_query = query
            break
    if timings is not None:
        timings["iii"] = (
            timings.get("iii", 0.0) + _time.perf_counter() - started
        )
    if failed_query is not None:
        return RAResult(
            False,
            f"query {failed_query!r} not justified by its visible updates",
            culprit=failed_query,
            condition="iii",
        )

    full = (
        merge_queries(history, list(update_order), queries)
        if want_witness else None
    )
    return RAResult(
        True,
        "candidate update order is an RA-linearization witness",
        update_order=list(update_order),
        linearization=full,
        explored=1,
        rewritten=history,
    )


def check_ra_linearizable(
    history: History,
    spec: SequentialSpec,
    gamma: Optional[QueryUpdateRewriting] = None,
    max_orders: Optional[int] = None,
    prune_with_spec: bool = True,
) -> RAResult:
    """Decide RA-linearizability of ``history`` w.r.t. ``spec`` (Def. 3.7).

    When ``gamma`` is given the history is first γ-rewritten.  The search
    enumerates linear extensions of the visibility closure restricted to
    updates; ``prune_with_spec`` abandons prefixes the specification already
    rejects (sound because specifications here are prefix-closed).
    """
    rewritten = rewrite_history(history, gamma) if gamma else history
    updates, queries = _partition(rewritten, spec)
    preds = induced_predecessors(rewritten, updates)

    prefix_frontiers: List[FrozenSet] = [spec.initial_frontier()]

    def prune(prefix: List[Label], candidate: Label) -> bool:
        if not prune_with_spec:
            return True
        # Keep the frontier stack in sync with the DFS prefix.
        del prefix_frontiers[len(prefix) + 1:]
        nxt = spec.step_frontier(prefix_frontiers[len(prefix)], candidate)
        if not nxt:
            return False
        if len(prefix_frontiers) == len(prefix) + 1:
            prefix_frontiers.append(nxt)
        else:
            prefix_frontiers[len(prefix) + 1] = nxt
        return True

    explored = 0
    for order in iter_topological_orders(
        sorted(updates, key=lambda l: l.uid), preds, prune=prune,
        max_orders=max_orders,
    ):
        explored += 1
        if not prune_with_spec and not spec.admits(order):
            continue
        ok = all(
            _query_ok(rewritten, spec, order, updates, q) for q in queries
        )
        if ok:
            full = merge_queries(rewritten, order, queries)
            return RAResult(
                True,
                "found RA-linearization",
                update_order=order,
                linearization=full,
                explored=explored,
                rewritten=rewritten,
            )
    reason = "no update linearization satisfies Def. 3.5"
    if max_orders is not None and explored >= max_orders:
        reason = f"gave up after exploring {explored} candidate orders"
    return RAResult(False, reason, explored=explored, rewritten=rewritten)


def _generation_positions(
    generation_order: Sequence[Label],
    gamma: Optional[QueryUpdateRewriting],
) -> Dict[Label, int]:
    """Generation position of every (rewritten) label.

    Rewritten labels inherit the generation position of the label they came
    from (the γ image of ℓ executes "where ℓ executed").
    """
    position: Dict[Label, int] = {}
    for index, original in enumerate(generation_order):
        if gamma is not None:
            for image in gamma.rewrite(original):
                position[image] = index
        else:
            position[original] = index
    return position


def execution_order_check(
    history: History,
    spec: SequentialSpec,
    generation_order: Sequence[Label],
    gamma: Optional[QueryUpdateRewriting] = None,
    frontiers: Optional[FrontierCache] = None,
    want_witness: bool = True,
    check_vis: bool = True,
    timings: Optional[Dict[str, float]] = None,
) -> RAResult:
    """Check the execution-order linearization (Theorem 4.4 instance).

    Updates are ordered by generation position, ties (impossible for
    distinct labels, but kept for defensive determinism) by uid.

    ``check_vis=False`` skips condition (i); sound when every visibility
    edge of ``history`` runs forward in ``generation_order`` (then every
    closure path only increases generation position, γ-rewriting included,
    so the execution-order candidate extends visibility by construction).
    """
    rewritten = rewrite_history(history, gamma) if gamma else history
    position = _generation_positions(generation_order, gamma)
    updates = [l for l in rewritten.labels if spec.is_update(l)]
    updates.sort(key=lambda l: (position[l], l.uid))
    return check_update_order(rewritten, spec, updates, frontiers=frontiers,
                              want_witness=want_witness, check_vis=check_vis,
                              timings=timings)


def timestamp_order_check(
    history: History,
    spec: SequentialSpec,
    generation_order: Sequence[Label],
    gamma: Optional[QueryUpdateRewriting] = None,
    frontiers: Optional[FrontierCache] = None,
    want_witness: bool = True,
    timings: Optional[Dict[str, float]] = None,
) -> RAResult:
    """Check the timestamp-order linearization (Theorem 4.6 instance).

    Updates are ordered by ``tsh`` — their own timestamp, or the maximal
    visible ("virtual") timestamp — with ties broken by generation position
    and then uid, as prescribed in Sec. 4.2.
    """
    rewritten = rewrite_history(history, gamma) if gamma else history
    position = _generation_positions(generation_order, gamma)
    updates = [l for l in rewritten.labels if spec.is_update(l)]
    updates.sort(
        key=lambda l: (
            ts_sort_key(history_timestamp(rewritten, l)),
            position[l],
            l.uid,
        )
    )
    return check_update_order(rewritten, spec, updates, frontiers=frontiers,
                              want_witness=want_witness, timings=timings)


# ----------------------------------------------------------------------
# Incremental checking context (shared caches across many histories)
# ----------------------------------------------------------------------


@dataclass
class CheckStats:
    """Counters describing one :class:`RACheckContext`'s cache behavior."""

    #: Candidate checks requested.
    checks: int = 0
    #: Checks answered by the verdict memo (canonical-fingerprint hit).
    verdict_hits: int = 0
    #: Checks whose history could not be canonicalized (memo bypassed).
    unkeyed: int = 0
    #: Frontier-trie step hits / misses (from the shared FrontierCache).
    frontier_hits: int = 0
    frontier_misses: int = 0
    #: Frontier-trie size / nodes computed past the bound ("evictions" —
    #: the trie never detaches nodes, it stops attaching new ones).
    frontier_nodes: int = 0
    frontier_unattached: int = 0
    #: Wall seconds per Def. 3.5 condition (only filled by a ``timed``
    #: context; keys "i"/"ii"/"iii").
    cond_seconds: Dict[str, float] = field(default_factory=dict)
    #: Failing checks per condition ("i"/"ii"/"iii"/"cover").
    failed_conditions: Dict[str, int] = field(default_factory=dict)

    @property
    def verdict_hit_ratio(self) -> float:
        return self.verdict_hits / self.checks if self.checks else 0.0

    @property
    def frontier_hit_ratio(self) -> float:
        total = self.frontier_hits + self.frontier_misses
        return self.frontier_hits / total if total else 0.0

    def merge(self, other: "CheckStats") -> None:
        """Fold another context's counters in (cross-worker aggregation):
        ``frontier_nodes``, a trie size, by ``max``, the per-condition
        dicts key by key, and every other counter summed."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name == "frontier_nodes":
                setattr(self, f.name, max(mine, theirs))
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            else:
                setattr(self, f.name, mine + theirs)


class RACheckContext:
    """Incremental EO/TO checking over many histories of one data type.

    Construct once per (spec, γ, linearization class) — e.g. per registry
    entry — and call :meth:`check` per history.  Two cache layers:

    * **Frontier reuse.**  All condition-(ii)/(iii) replays go through one
      shared :class:`FrontierCache`, so sequences sharing visible-update
      prefixes (across queries *and* across histories) cost one trie walk.
    * **Verdict memoization.**  The verdict of a candidate check is a pure
      function of the history and generation order *up to uid renaming*:
      the canonical fingerprint records label content in generation order
      plus visibility as position pairs, which determines the candidate
      order and every condition of Def. 3.5.  Histories with equal
      fingerprints (isomorphic histories — same operations, returns,
      timestamps, and visibility, differing only in label identity)
      therefore share one verdict; the memoized :class:`RAResult` is
      returned as-is, so its witness labels belong to the *first* such
      history.  Treat memoized results as read-only.

    Witness construction (``merge_queries``) is skipped by default
    (``want_witness=False``): the harnesses consume verdicts only.
    """

    def __init__(
        self,
        spec: SequentialSpec,
        gamma: Optional[QueryUpdateRewriting] = None,
        lin_class: str = "EO",
        want_witness: bool = False,
        max_frontier_nodes: int = 100_000,
        max_verdicts: int = 100_000,
        timed: bool = False,
    ) -> None:
        if lin_class not in ("EO", "TO"):
            raise ValueError(f"unknown linearization class {lin_class!r}")
        self.spec = spec
        self.gamma = gamma
        self.lin_class = lin_class
        self.want_witness = want_witness
        self.frontiers = FrontierCache(spec, max_nodes=max_frontier_nodes)
        self.max_verdicts = max_verdicts
        #: ``timed=True`` additionally accumulates per-condition wall time
        #: in ``stats.cond_seconds`` (a handful of clock reads per check;
        #: left off on uninstrumented runs).
        self.timed = timed
        self.stats = CheckStats()
        self._verdicts: Dict[Tuple, RAResult] = {}

    # -- canonical history fingerprint ---------------------------------

    @staticmethod
    def history_key(
        history: History, generation_order: Sequence[Label]
    ) -> Optional[Tuple]:
        """Canonical fingerprint of ``(history, generation_order)``.

        Labels are named by their position in the generation order, so the
        key is invariant under uid renaming but captures everything the
        candidate checks read: label content (method, args, return,
        timestamp, object, origin), generation positions (which determine
        the EO candidate and break TO ties), and the effective visibility
        relation.  Returns None when the history's labels are not all in
        the generation order (hand-built calls) — the check then simply
        runs unmemoized.
        """
        index = {label: i for i, label in enumerate(generation_order)}
        labels = history.labels
        if len(index) != len(generation_order):
            return None
        if not all(label in index for label in labels):
            return None
        if len(labels) == len(generation_order):
            # All checks passed above, so the sets coincide (the common
            # case: quiescent configurations contain every generated label).
            content = tuple(label.content_key for label in generation_order)
        else:
            content = tuple(
                label.content_key
                for label in generation_order if label in labels
            )
        edges = frozenset(
            (index[src], index[dst]) for src, dst in history.effective()
        )
        return (content, edges)

    # -- checking ------------------------------------------------------

    def check(
        self, history: History, generation_order: Sequence[Label]
    ) -> RAResult:
        """EO/TO candidate check with frontier reuse and verdict memo."""
        self.stats.checks += 1
        key = self.history_key(history, generation_order)
        if key is None:
            self.stats.unkeyed += 1
        else:
            cached = self._verdicts.get(key)
            if cached is not None:
                self.stats.verdict_hits += 1
                if not cached.ok and cached.condition is not None:
                    self.stats.failed_conditions[cached.condition] = (
                        self.stats.failed_conditions.get(cached.condition, 0)
                        + 1
                    )
                return cached
        hits, misses = self.frontiers.hits, self.frontiers.misses
        timings: Optional[Dict[str, float]] = {} if self.timed else None
        if self.lin_class == "EO":
            # When visibility runs forward in the generation order (always
            # true for runtime-produced histories), the EO candidate extends
            # it by construction — condition (i) can be skipped.
            vis_forward = key is not None and all(s < d for s, d in key[1])
            result = execution_order_check(
                history, self.spec, generation_order, self.gamma,
                frontiers=self.frontiers, want_witness=self.want_witness,
                check_vis=not vis_forward, timings=timings,
            )
        else:
            result = timestamp_order_check(
                history, self.spec, generation_order, self.gamma,
                frontiers=self.frontiers, want_witness=self.want_witness,
                timings=timings,
            )
        stats = self.stats
        stats.frontier_hits += self.frontiers.hits - hits
        stats.frontier_misses += self.frontiers.misses - misses
        stats.frontier_nodes = len(self.frontiers)
        stats.frontier_unattached = self.frontiers.unattached
        if timings:
            for cond, seconds in timings.items():
                stats.cond_seconds[cond] = (
                    stats.cond_seconds.get(cond, 0.0) + seconds
                )
        if not result.ok and result.condition is not None:
            stats.failed_conditions[result.condition] = (
                stats.failed_conditions.get(result.condition, 0) + 1
            )
        if key is not None and len(self._verdicts) < self.max_verdicts:
            self._verdicts[key] = result
        return result
