"""Exhaustive small-scope exploration of state-based executions.

The state-based semantics has an unbounded action alphabet (any snapshot
may be re-applied anywhere, any number of times), so exhaustive coverage
needs a bound: we explore all interleavings of

* the next program operation of each replica, and
* up to ``max_gossips`` gossip steps — a GENERATE immediately followed by
  one APPLY at a chosen target (message *loss* is covered by branches that
  simply never gossip; *duplication* by allowing a replica to re-apply the
  most recent snapshot of a peer it already applied).

``visit`` is called on every configuration whose programs have finished —
including ones with leftover gossip budget (partial propagation).

The implementation lives in :mod:`repro.runtime.explore_engine` (sleep
sets, state dedup, copy-on-write snapshots — see ``docs/exploration.md``)
and is re-exported here under its historical name; the unoptimized
baseline survives as
:func:`repro.runtime.explore_naive.explore_state_programs_naive`.

The module stays because
:func:`repro.proofs.exhaustive.exhaustive_verify_state` looks
``explore_state_programs`` up here, and the benchmark's layer tracer
(``perfbench/layertrace.py``) imports this module so that it can rebind
that name when it wraps the engine.
"""

from .explore_engine import (  # noqa: F401  (re-exported API)
    ExploreStats,
    explore_state_programs,
)
from .schedule import Program  # noqa: F401  (historical import path)

__all__ = ["ExploreStats", "Program", "explore_state_programs"]
