"""Split schedules of the parallel pool, as test input.

What a ``--jobs N`` run leaves to timing is which worker runs which
frontier task, and in what order.  A :class:`SplitSchedule` fixes all
of it — the frontier depth, the task order and how tasks are dealt to
engine sessions — and :func:`run_split` replays it in one process
through the pool's own session class, so a configuration lost under
some schedule is a reproducible test failure rather than an accident of
load.  Sessions keep separate visited records, the way two workers do.
"""

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from hypothesis import strategies as st

from repro.obs import NULL_INSTRUMENTATION
from repro.proofs.steal import _scope_table, _Session

#: Task orders: as the coordinator's walk emitted them, reversed, or a
#: ``random.Random(seed)`` shuffle.
ORDERS = ("frontier", "reversed", "shuffle")


@dataclass(frozen=True)
class SplitSchedule:
    """One way to split a scope and deal its tasks.

    ``deal`` is ``"round-robin"`` over the sessions, or
    ``"least-work"``: each task goes to the session that has walked the
    fewest states so far, the way the idlest worker pulls the next task
    from the shared queue.
    """

    depth: int
    order: str = "frontier"
    sessions: int = 2
    seed: int = 0
    deal: str = "round-robin"


def split_schedules(max_depth: int = 5, max_sessions: int = 3):
    """Schedules over frontier depth, task order and session count."""
    return st.builds(
        SplitSchedule,
        depth=st.integers(1, max_depth),
        order=st.sampled_from(ORDERS),
        sessions=st.integers(1, max_sessions),
        seed=st.integers(0, 2 ** 16),
    )


def run_split(entry, programs, schedule: SplitSchedule, por: str = "source",
              symmetry: Optional[bool] = None,
              max_gossips: int = 2) -> Tuple[bool, int, int]:
    """``(ok, configurations, tasks)`` of ``programs`` explored as
    ``schedule`` splits it: a coordinator session walks the frontier,
    the sessions run its tasks, and the merge unions every session's
    fingerprints, as the pool does."""
    spec = _scope_table([(entry, programs, max_gossips)], symmetry, por)[0]

    def session():
        return _Session(spec, None, NULL_INSTRUMENTATION)

    coordinator = session()
    coordinator.engine.run(cap=schedule.depth)
    tasks = list(coordinator.engine.frontier)
    if schedule.order == "reversed":
        tasks.reverse()
    elif schedule.order == "shuffle":
        random.Random(schedule.seed).shuffle(tasks)
    workers = [session() for _ in range(schedule.sessions)]
    for number, (path, sleep) in enumerate(tasks):
        if schedule.deal == "least-work":
            worker = min(workers, key=lambda s: s.stats.states_visited)
        else:
            worker = workers[number % len(workers)]
        worker.run(path, sleep)
    everyone = [coordinator] + workers
    fingerprints = set().union(*(s.engine.visited_fps for s in everyone))
    return all(s.result.ok for s in everyone), len(fingerprints), len(tasks)
