"""Naive exhaustive explorers — the differential oracle baseline.

These are the original brute-force explorers: they branch by deep-copying
the whole system at every step and enumerate *raw* interleavings with no
partial-order reduction and no state deduplication.  They are kept (a) as
the ground truth the optimized :mod:`repro.runtime.explore_engine` is
differentially tested against — both must visit the same *set* of final
configurations up to history equivalence — and (b) as the baseline of the
``benchmarks/test_bench_explore_engine.py`` speedup measurement.

Two deliberate fixes over the historical code, preserved here because they
do not change which configurations are reachable:

* the ``max_configurations`` cutoff is *exact*: once the cap is reached the
  whole search stops, instead of merely suppressing further recursion while
  sibling branches keep visiting;
* ``counters`` and ``returns`` are flat dicts of ints/lists and are copied
  shallowly per branch instead of riding along in the whole-system
  ``deepcopy``.
"""

import copy
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import PreconditionViolation
from .state_system import StateBasedSystem
from .system import OpBasedSystem

#: A straight-line per-replica program: ``(method, args)`` steps, or
#: ``(method, args, obj)`` when the system hosts several objects.
Program = List[Tuple[Any, ...]]


def _branch_bookkeeping(
    counters: Dict[str, int], returns: Dict[str, List[Any]]
) -> Tuple[Dict[str, int], Dict[str, List[Any]]]:
    """Cheap per-branch copies of the program bookkeeping.

    ``counters`` maps replicas to ints and ``returns`` to flat lists of
    (already frozen) return values — a shallow per-key copy is enough.
    """
    return dict(counters), {r: list(v) for r, v in returns.items()}


def explore_op_programs_naive(
    make_system: Callable[[], OpBasedSystem],
    programs: Dict[str, Program],
    visit: Callable[[OpBasedSystem, Dict[str, List[Any]]], None],
    max_configurations: Optional[int] = None,
) -> int:
    """Run per-replica ``programs`` under **every** raw interleaving.

    ``visit(system, returns)`` is called on each final configuration —
    every program run out, every effector delivered — where
    ``returns[replica]`` lists the return values of that replica's program
    in order.  Returns the number of final configurations visited
    (counting revisits along distinct paths).
    """
    visited = 0

    def at_cap() -> bool:
        return max_configurations is not None and visited >= max_configurations

    def step(
        system: OpBasedSystem,
        counters: Dict[str, int],
        returns: Dict[str, List[Any]],
    ) -> None:
        nonlocal visited
        if at_cap():
            return
        moved = False
        for replica, program in programs.items():
            index = counters[replica]
            if index < len(program):
                moved = True
                b_system = copy.deepcopy(system)
                b_counters, b_returns = _branch_bookkeeping(counters, returns)
                step_spec = program[index]
                method, args = step_spec[0], step_spec[1]
                obj = step_spec[2] if len(step_spec) > 2 else None
                try:
                    label = b_system.invoke(replica, method, args, obj=obj)
                except PreconditionViolation:
                    continue  # this interleaving cannot run the op yet
                b_counters[replica] += 1
                b_returns[replica].append(label.ret)
                step(b_system, b_counters, b_returns)
                if at_cap():
                    return
        for replica in list(programs):
            for label in system.deliverable(replica):
                moved = True
                b_system = copy.deepcopy(system)
                b_counters, b_returns = _branch_bookkeeping(counters, returns)
                # Re-locate the copied label by uid inside the copy.
                copies = [
                    l for l in b_system.generation_order if l.uid == label.uid
                ]
                b_system.deliver(replica, copies[0])
                step(b_system, b_counters, b_returns)
                if at_cap():
                    return
        if not moved:
            visited += 1
            visit(system, returns)

    initial = make_system()
    step(
        initial,
        {replica: 0 for replica in programs},
        {replica: [] for replica in programs},
    )
    return visited


def explore_state_programs_naive(
    make_system: Callable[[], StateBasedSystem],
    programs: Dict[str, Program],
    visit: Callable[[StateBasedSystem, Dict[str, List[Any]]], None],
    max_gossips: int = 3,
    max_configurations: Optional[int] = None,
) -> int:
    """Run ``programs`` under every bounded state-based interleaving.

    Explores all interleavings of the next program operation of each
    replica and up to ``max_gossips`` gossip steps; ``visit`` fires on
    every configuration whose programs have finished — including ones with
    leftover gossip budget (partial propagation).
    """
    visited = 0

    def at_cap() -> bool:
        return max_configurations is not None and visited >= max_configurations

    def step(
        system: StateBasedSystem,
        counters: Dict[str, int],
        returns: Dict[str, List[Any]],
        gossip_budget: int,
    ) -> None:
        nonlocal visited
        if at_cap():
            return
        if all(counters[r] == len(p) for r, p in programs.items()):
            visited += 1
            visit(system, returns)

        for replica, program in programs.items():
            index = counters[replica]
            if index >= len(program):
                continue
            b_system = copy.deepcopy(system)
            b_counters, b_returns = _branch_bookkeeping(counters, returns)
            method, args = program[index]
            try:
                label = b_system.invoke(replica, method, args)
            except PreconditionViolation:
                continue
            b_counters[replica] += 1
            b_returns[replica].append(label.ret)
            step(b_system, b_counters, b_returns, gossip_budget)
            if at_cap():
                return

        if gossip_budget > 0:
            replicas = list(programs)
            for source in replicas:
                for target in replicas:
                    if source == target:
                        continue
                    b_system = copy.deepcopy(system)
                    b_counters, b_returns = _branch_bookkeeping(
                        counters, returns
                    )
                    b_system.gossip(source, target)
                    step(b_system, b_counters, b_returns, gossip_budget - 1)
                    if at_cap():
                        return

    step(
        make_system(),
        {replica: 0 for replica in programs},
        {replica: [] for replica in programs},
        max_gossips,
    )
    return visited
