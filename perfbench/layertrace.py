"""Per-layer tracing for the benchmark's traced run.

The traced run wraps the program's public layer boundaries from here,
patching each name where its caller looks it up, and records one span
per call: layer name, start, end, parent span and scope id.  Spans stay
in memory (flat arrays) and are written out at exit.  A layer's *self
time* is its spans' duration minus the time their child spans cover;
the ``(unattributed)`` row is what the root spans' children leave
uncovered.

Counts do not come from spans but from the objects the program already
returns (``ExploreStats``, ``CheckStats``, ``FPStoreStats``,
``StealStats``).  Pool workers are forked: spans they record die with
them, so the parallel workload's layer numbers come from ``StealStats``
and the merged stats.
"""

import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Tuple

ROOT = "verdict"

#: Every per-layer metric: its unit, and which end-to-end metric it
#: should move on which workloads -- the map a change claiming a gain on
#: one layer is read against.
LAYER_MAP = {
    "explore_engine.self_s": ("s", "configs_per_s", "sym_3r, skew_4r_spill"),
    "explore_engine.states": ("count", "configs_per_s",
                              "sym_3r, skew_4r_spill"),
    "explore_engine.states_per_config": (
        "ratio", "configs_per_s", "sym_3r, skew_4r_spill, sym_3r_jobs2"),
    "explore_engine.dedup_ratio": ("ratio", "configs_per_s",
                                   "sym_3r, skew_4r_spill"),
    "explore_engine.us_per_state": ("us", "configs_per_s",
                                    "sym_3r, skew_4r_spill"),
    "symmetry.canonical_s": ("s", "configs_per_s",
                             "sym_3r, skew_4r_spill (~0 on registry_2r)"),
    "symmetry.canonical_calls": ("count", "configs_per_s",
                                 "sym_3r, skew_4r_spill"),
    "symmetry.group_order": ("ratio", "configs_per_s",
                             "sym_3r, skew_4r_spill"),
    "system.apply_s": ("s", "configs_per_s", "sym_3r"),
    "system.snapshot_s": ("s", "configs_per_s", "sym_3r"),
    "system.pstate_shared_ratio": ("ratio", "configs_per_s", "sym_3r"),
    "ralin.check_s": ("s", "verdict_s_p50", "registry_2r"),
    "ralin.checks": ("count", "verdict_s_p50", "registry_2r"),
    "ralin.verdict_hit_ratio": ("ratio", "verdict_s_p50", "registry_2r"),
    "ralin.frontier_hit_ratio": ("ratio", "verdict_s_p50", "registry_2r"),
    "convergence.s": ("s", "verdict_s_p50", "registry_2r"),
    "exhaustive.self_s": ("s", "verdict_s_p50", "registry_2r"),
    "compositional.per_object_s": ("s", "verdict_s_p90", "registry_2r"),
    "compositional.side_condition_s": ("s", "verdict_s_p90", "registry_2r"),
    "fp_store.s": ("s", "configs_per_s, peak_rss_mib", "skew_4r_spill"),
    "fp_store.interned": ("count", "configs_per_s, peak_rss_mib",
                          "skew_4r_spill"),
    "fp_store.spilled": ("count", "configs_per_s, peak_rss_mib",
                         "skew_4r_spill"),
    "fp_store.evictions": ("count", "configs_per_s, peak_rss_mib",
                           "skew_4r_spill"),
    "steal.tasks": ("count", "configs_per_s", "sym_3r_jobs2; 0 when serial"),
    "steal.stolen": ("count", "configs_per_s", "sym_3r_jobs2; 0 when serial"),
    "steal.busy_s": ("s", "configs_per_s", "sym_3r_jobs2; 0 when serial"),
    "steal.idle_s": ("s", "configs_per_s", "sym_3r_jobs2; 0 when serial"),
    "steal.overhead_s": ("s", "configs_per_s",
                         "sym_3r_jobs2; 0 when serial"),
    "trace.overhead": ("ratio", "none (traced over untraced wall)", "all"),
    "trace.unattributed_share": ("ratio", "none (root time no layer covers)",
                                 "all"),
}


class Tracer:
    """Flat in-memory span store with a parent stack."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("l")
        self.scope = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.scope_id = -1
        #: Layer id of the root spans: one per verdict, opened by the
        #: benchmark around the entry-point call.
        self.root = self.layer_id(ROOT)
        #: StealStats of every pool run, captured through ``stats_sink``.
        self.steal: List[Any] = []

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
        return self._ids[name]

    def begin(self, layer_id: int) -> int:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1])
        self.scope.append(self.scope_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn: Callable, layer: str) -> Callable:
        layer_id = self.layer_id(layer)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            index = begin(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        return self_times(self.layers, self.layer, self.parent, self.start,
                          self.end)

    def write(self, path: str) -> None:
        """Dump every span as CSV: layer, start, end, parent, scope."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("layer,start,end,parent,scope\n")
            layers = self.layers
            for i in range(len(self.start)):
                handle.write(
                    f"{layers[self.layer[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]},{self.scope[i]}\n"
                )


def self_times(layers: List[str], layer: Iterable[int],
               parent: Iterable[int], start: Iterable[float],
               end: Iterable[float]) -> Tuple[Dict[str, float],
                                              Dict[str, int],
                                              Dict[str, float]]:
    """Per-layer ``(self seconds, calls, total seconds)``.

    Spans nest on one thread, so the time children cover is the sum of
    their durations.  The root layer's self time is the unattributed
    share.
    """
    layer, parent = list(layer), list(parent)
    duration = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += duration[i]
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    for i, d in enumerate(duration):
        name = layers[layer[i]]
        own[name] = own.get(name, 0.0) + d - covered[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + d
    return own, calls, total


# ----------------------------------------------------------------------
# Patching the layer boundaries
# ----------------------------------------------------------------------


def _patch_function(original: Callable, replacement: Callable,
                    undo: List[Tuple[Any, str, Any]]) -> None:
    """Rebind ``original`` in every loaded ``repro`` module that holds it,
    so each caller's own global lookup finds the replacement."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)


def _patch_method(cls: type, name: str, tracer: Tracer, layer: str,
                  undo: List[Tuple[Any, str, Any]]) -> None:
    original = cls.__dict__[name]
    undo.append((cls, name, original))
    setattr(cls, name, tracer.wrap(original, layer))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that unwraps."""
    from repro.core import convergence
    from repro.core.ralin import RACheckContext
    from repro.proofs import compositional, exhaustive, steal
    from repro.runtime import explore_engine, fp_store, state_explore
    from repro.runtime.state_system import StateBasedSystem
    from repro.runtime.symmetry import SymmetryReducer
    from repro.runtime.system import OpBasedSystem

    del state_explore  # imported so its re-export gets patched too
    undo: List[Tuple[Any, str, Any]] = []
    functions = [
        (exhaustive.exhaustive_verify, "exhaustive"),
        (exhaustive.exhaustive_verify_state, "exhaustive"),
        (compositional.verify_store, "compositional.verify_store"),
        (compositional.check_side_condition,
         "compositional.side_condition"),
        (explore_engine.explore_op_programs, "explore_engine"),
        (explore_engine.explore_state_programs, "explore_engine"),
        (convergence.check_convergence, "convergence"),
    ]
    for original, layer in functions:
        _patch_function(original, tracer.wrap(original, layer), undo)

    pool = steal.exhaustive_verify_steal
    traced_pool = tracer.wrap(pool, "steal")

    def capture(*args, **kwargs):
        sink: Dict[str, Any] = {}
        kwargs.setdefault("stats_sink", sink)
        try:
            return traced_pool(*args, **kwargs)
        finally:
            if "steal" in sink:
                tracer.steal.append(sink["steal"])

    _patch_function(pool, capture, undo)

    methods = [
        (OpBasedSystem, ("invoke", "deliver"), "system.apply"),
        (StateBasedSystem, ("invoke", "gossip"), "system.apply"),
        (OpBasedSystem, ("snapshot", "restore"), "system.snapshot"),
        (StateBasedSystem, ("snapshot", "restore"), "system.snapshot"),
        (SymmetryReducer, ("canonical",), "symmetry.canonical"),
        (SymmetryReducer, ("part_fragments",), "symmetry.part_fragments"),
        (RACheckContext, ("check",), "ralin"),
        (fp_store.FingerprintStore, ("intern",), "fp_store"),
        (fp_store.SpillSet, ("add",), "fp_store"),
        (fp_store.SpillMap, ("setdefault",), "fp_store"),
    ]
    for cls, names, layer in methods:
        for name in names:
            _patch_method(cls, name, tracer, layer, undo)

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


# ----------------------------------------------------------------------
# Per-layer metrics and the table
# ----------------------------------------------------------------------


def exhaustive_results(result: Any) -> List[Any]:
    """The ``ExhaustiveResult``s behind one verdict (a store has one per
    object group)."""
    objects = getattr(result, "objects", None)
    if objects is None:
        return [result]
    unique: Dict[int, Any] = {}
    for obj_result in objects.values():
        unique[id(obj_result)] = obj_result
    return list(unique.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, times, traced_results: List[Any],
                  untraced_results: List[Any], traced_wall: float,
                  untraced_wall: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run; ``times`` is
    ``tracer.self_times()``."""
    own, calls, total = times
    runs = [r for result in traced_results
            for r in exhaustive_results(result)]
    stats = [r.stats for r in runs if r.stats is not None]
    checks = [r.check_stats for r in runs if r.check_stats is not None]
    stores = [r.fp_store for r in runs if r.fp_store is not None]
    plain = [r.stats for result in untraced_results
             for r in exhaustive_results(result) if r.stats is not None]

    states = sum(s.states_visited for s in stats)
    deduped = sum(s.states_deduped for s in stats)
    configurations = sum(s.configurations for s in stats)
    copied = sum(s.pstate_copied for s in stats)
    shared = sum(s.pstate_shared for s in stats)
    check_count = sum(c.checks for c in checks)
    frontier = sum(c.frontier_hits + c.frontier_misses for c in checks)
    busy = sum(end - start for s in tracer.steal
               for _, _, _, start, end in s.timeline)
    pool_wall = sum(s.wall_time * s.workers for s in tracer.steal)
    root = total.get(ROOT, 0.0)
    return {
        "explore_engine.self_s": own.get("explore_engine", 0.0),
        "explore_engine.states": states,
        "explore_engine.states_per_config": _ratio(states, configurations),
        "explore_engine.dedup_ratio": _ratio(deduped, states + deduped),
        "explore_engine.us_per_state": 1e6 * _ratio(
            sum(s.wall_time for s in plain),
            sum(s.states_visited for s in plain)),
        "symmetry.canonical_s": (own.get("symmetry.canonical", 0.0)
                                 + own.get("symmetry.part_fragments", 0.0)),
        "symmetry.canonical_calls": calls.get("symmetry.canonical", 0),
        "symmetry.group_order": _ratio(
            sum(s.symmetry_group for s in stats), len(stats)),
        "system.apply_s": own.get("system.apply", 0.0),
        "system.snapshot_s": own.get("system.snapshot", 0.0),
        "system.pstate_shared_ratio": _ratio(shared, shared + copied),
        "ralin.check_s": own.get("ralin", 0.0),
        "ralin.checks": check_count,
        "ralin.verdict_hit_ratio": _ratio(
            sum(c.verdict_hits for c in checks), check_count),
        "ralin.frontier_hit_ratio": _ratio(
            sum(c.frontier_hits for c in checks), frontier),
        "convergence.s": own.get("convergence", 0.0),
        "exhaustive.self_s": own.get("exhaustive", 0.0),
        "compositional.per_object_s": (
            total.get("compositional.verify_store", 0.0)
            - total.get("compositional.side_condition", 0.0)),
        "compositional.side_condition_s": total.get(
            "compositional.side_condition", 0.0),
        "fp_store.s": own.get("fp_store", 0.0),
        "fp_store.interned": sum(s.unique for s in stores),
        "fp_store.spilled": sum(s.spilled for s in stores),
        "fp_store.evictions": sum(s.evictions for s in stores),
        "steal.tasks": sum(s.tasks for s in tracer.steal),
        "steal.stolen": sum(s.stolen_tasks for s in tracer.steal),
        "steal.busy_s": busy,
        "steal.idle_s": sum(s.idle_seconds for s in tracer.steal),
        "steal.overhead_s": max(0.0, pool_wall - busy),
        "trace.overhead": _ratio(traced_wall, untraced_wall),
        "trace.unattributed_share": _ratio(own.get(ROOT, 0.0), root),
    }


def format_table(workload: str, times, metrics: Dict[str, float],
                 traced_wall: float, untraced_wall: float) -> str:
    """The per-layer table of one traced run."""
    own, calls, _total = times
    root = sum(own.values())
    lines = [
        f"per-layer table — {workload} (traced wall {traced_wall:.3f}s, "
        f"untraced {untraced_wall:.3f}s, tracing overhead "
        f"{metrics['trace.overhead']:.2f}x)",
        f"{'layer':<30} {'self s':>10} {'share':>7} {'calls':>10}",
    ]
    rows = sorted(((name, t) for name, t in own.items() if name != ROOT),
                  key=lambda row: -row[1])
    rows.append(("(unattributed)", own.get(ROOT, 0.0)))
    for name, seconds in rows:
        count = calls.get(ROOT if name == "(unattributed)" else name, 0)
        lines.append(f"{name:<30} {seconds:>10.4f} "
                     f"{100 * _ratio(seconds, root):>6.1f}% {count:>10}")
    lines.append(f"{'metric':<34} {'value':>14}  should move")
    for name, value in metrics.items():
        _unit, target, where = LAYER_MAP[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"{name:<34} {shown:>14}  {target} on {where}")
    return "\n".join(lines)
