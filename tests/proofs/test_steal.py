"""Work-stealing pool vs serial: the exactness contract.

Stealing re-partitions *which worker* explores a subtree, never
*whether* it is explored, so every run — natural splitting, forced
splitting, symmetric scopes, shared budgets, spill tiers — must return
the serial verdict and the serial distinct-configuration count.  The
1-core fallback makes jobs>1 degenerate to the serial engine on small
machines, so these tests force real worker processes with
``oversubscribe=True`` and force splitting with a huge pending target.
"""

import os
from collections import deque

import pytest

from repro.obs import Instrumentation, deterministic_totals
from repro.proofs.exhaustive import (
    ExhaustiveResult,
    _make_visit,
    exhaustive_verify,
    exhaustive_verify_state,
    standard_programs,
)
from repro.proofs.parallel import (
    exhaustive_verify_parallel,
    standard_scopes,
    verify_scopes_parallel,
)
from repro.proofs.registry import ALL_ENTRIES, entry_by_name
from repro.proofs.steal import (
    StealStats,
    _seed_tasks,
    exhaustive_verify_steal,
    steal_workers,
    verify_scopes_steal,
)
from repro.runtime.explore_engine import build_engine
from repro.runtime.state_system import StateBasedSystem
from repro.runtime.system import OpBasedSystem

#: Force real worker processes and aggressive splitting: a pending
#: target no real queue reaches makes every eligible DFS node split.
FORCE = dict(oversubscribe=True, pending_target=10**6, split_interval=1)

MAX_GOSSIPS = 2

SYM_PROGRAMS = {
    "r1": [("inc", ()), ("read", ())],
    "r2": [("inc", ()), ("read", ())],
}


def _serial(entry, programs, max_gossips):
    if entry.kind == "OB":
        return exhaustive_verify(entry, programs)
    return exhaustive_verify_state(entry, programs, max_gossips=max_gossips)


class TestStealMatchesSerial:
    def test_all_scopes_one_pool(self):
        # The acceptance criterion: every registry entry through one
        # work-stealing pool returns the serial verdict and the serial
        # distinct-configuration count.
        scopes = standard_scopes()
        assert scopes
        sink = {}
        merged = verify_scopes_steal(
            scopes, jobs=3, oversubscribe=True, split_interval=2,
            stats_sink=sink,
        )
        assert list(merged) == [entry.name for entry, _, _ in scopes]
        assert sink["steal"].workers == 3
        for entry, programs, max_gossips in scopes:
            serial = _serial(entry, programs, max_gossips)
            assert merged[entry.name].ok == serial.ok, entry.name
            assert merged[entry.name].configurations \
                == serial.configurations, entry.name

    def test_forced_splitting_op_based(self):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        sink = {}
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, stats_sink=sink, **FORCE
        )
        stats = sink["steal"]
        assert stats.stolen_tasks > 0  # splitting actually happened
        assert stats.tasks == stats.seed_tasks + stats.stolen_tasks
        assert len(stats.timeline) == stats.tasks
        assert set(stats.spawn_times) \
            == {t for t in (r[0] for r in stats.timeline) if t[0] == "w"}
        assert stolen.ok == serial.ok
        assert stolen.configurations == serial.configurations
        assert stolen.stats.steal_spawned > 0

    def test_forced_splitting_state_based(self):
        entry = entry_by_name("G-Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify_state(entry, programs, max_gossips=2)
        sink = {}
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, max_gossips=2, stats_sink=sink, **FORCE
        )
        assert sink["steal"].stolen_tasks > 0
        assert stolen.ok == serial.ok
        assert stolen.configurations == serial.configurations

    def test_symmetry_on_and_off(self):
        entry = entry_by_name("Counter")
        on = exhaustive_verify(entry, SYM_PROGRAMS)
        off = exhaustive_verify(entry, SYM_PROGRAMS, symmetry=False)
        assert on.configurations < off.configurations
        stolen_on = exhaustive_verify_steal(
            entry, SYM_PROGRAMS, jobs=2, **FORCE
        )
        stolen_off = exhaustive_verify_steal(
            entry, SYM_PROGRAMS, jobs=2, symmetry=False, **FORCE
        )
        assert stolen_on.configurations == on.configurations
        assert stolen_off.configurations == off.configurations

    def test_raw_fingerprints_without_store(self):
        # Without spill, sessions keep raw-fingerprint sets (the serial
        # and static paths' representation); the merge must be exact.
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, **FORCE
        )
        assert stolen.configurations == serial.configurations
        assert stolen.fp_store is None

    def test_spill_tier(self, tmp_path):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, spill=str(tmp_path), **FORCE
        )
        assert stolen.configurations == serial.configurations
        assert stolen.fp_store is not None
        assert stolen.fp_store.lookups > 0
        assert not list(tmp_path.iterdir())  # scratch files cleaned up


class _FifoScheduler:
    """A split schedule with no pool and no timing: one FIFO task queue,
    seeded with the root branches, and a split at every eligible node
    (``always``) or whenever the queue is empty."""

    def __init__(self, seeds, always):
        self.queue = deque({"root_branch": branch} for branch in seeds)
        self.always = always

    def should_split(self, depth):
        return self.always or not self.queue

    def offload(self, path, sleep, frames=None, guide=None):
        self.queue.append({"path": tuple(path), "sleep": frozenset(sleep),
                           "frames": frames, "guide": guide})


def _split_schedule_run(entry, por, always):
    """Run every seed and every offloaded task on one engine session:
    ``(ok, configurations, subtrees offloaded)``."""
    programs = standard_programs(entry)
    result = ExhaustiveResult(entry.name)
    visit = _make_visit(entry, result, cache=True)
    persistent = por != "sleep"
    system = OpBasedSystem if entry.kind == "OB" else StateBasedSystem
    _, seeds = _seed_tasks([(entry, programs, MAX_GOSSIPS)], None, None,
                           True, por)
    scheduler = _FifoScheduler((seed[3] for seed in seeds), always)
    fingerprints = set()
    engine = build_engine(
        "op" if entry.kind == "OB" else "state",
        lambda: system(entry.make_crdt(), replicas=sorted(programs),
                       persistent=persistent),
        programs, visit, max_gossips=MAX_GOSSIPS,
        reduction=entry.reduction, symmetry=entry.symmetry,
        fingerprints=fingerprints, scheduler=scheduler, por=por,
    )
    while scheduler.queue:
        engine.run(**scheduler.queue.popleft())
    return result.ok, len(fingerprints), engine.stats.steal_spawned


class TestSplitSchedule:
    """Offloaded and deferred subtrees lose no configuration.

    The victim never executes the last transition of a path it offloads
    or defers, so the engine that runs the task must still reverse that
    transition's races with the replayed prefix.
    """

    @pytest.mark.parametrize("always", [False, True],
                             ids=["when-empty", "always"])
    @pytest.mark.parametrize("por", ["sleep", "source", "optimal"])
    @pytest.mark.parametrize("entry", ALL_ENTRIES, ids=lambda e: e.name)
    def test_matches_serial(self, entry, por, always):
        serial = _serial(entry, standard_programs(entry), MAX_GOSSIPS)
        ok, configurations, spawned = _split_schedule_run(entry, por, always)
        assert (ok, configurations) == (serial.ok, serial.configurations)
        if always:
            assert spawned > 0  # the schedule really split


class TestSharedBudget:
    """``max_configurations`` is a cross-worker budget: parallel and
    serial stop at exactly the same count, stolen tasks included."""

    @pytest.mark.parametrize("cap", [1, 3, 7, 10**6])
    def test_exact_cutoff_op_based(self, cap):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(
            entry, programs, max_configurations=cap
        )
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, max_configurations=cap, **FORCE
        )
        assert stolen.configurations == serial.configurations
        assert stolen.stats.capped == serial.stats.capped

    def test_exact_cutoff_state_based(self):
        entry = entry_by_name("G-Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify_state(
            entry, programs, max_gossips=2, max_configurations=5
        )
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, max_gossips=2, max_configurations=5,
            **FORCE
        )
        assert stolen.configurations == serial.configurations == 5
        assert stolen.stats.capped

    def test_cutoff_through_parallel_front_door(self):
        # The satellite: exhaustive_verify with jobs>1 and a budget used
        # to be rejected; the stealing path honors it exactly.
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs, max_configurations=9)
        parallel = exhaustive_verify(
            entry, programs, jobs=2, max_configurations=9, oversubscribe=True
        )
        assert parallel.configurations == serial.configurations == 9


class TestPoolMechanics:
    def test_steal_workers_clamp(self, monkeypatch):
        monkeypatch.setattr("repro.proofs.steal.os.cpu_count", lambda: 4)
        assert steal_workers(1) == 1
        assert steal_workers(0) == 1  # floor of one
        assert steal_workers(8) == 4  # core cap
        assert steal_workers(8, oversubscribe=True) == 8
        monkeypatch.setattr(
            "repro.proofs.steal.os.cpu_count", lambda: None
        )
        assert steal_workers(8) == 1

    def test_single_worker_runs_inline(self, monkeypatch):
        # One effective worker must not pay fork + pickle + queue costs:
        # the pool path is never entered.
        def _boom(*args, **kwargs):
            raise AssertionError("mp.Process used for a 1-worker pool")

        monkeypatch.setattr("repro.proofs.steal.os.cpu_count", lambda: 1)
        monkeypatch.setattr("repro.proofs.steal.mp.Process", _boom)
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        sink = {}
        result = exhaustive_verify_steal(
            entry, programs, jobs=8, stats_sink=sink
        )
        assert result.configurations \
            == exhaustive_verify(entry, programs).configurations
        assert isinstance(sink["steal"], StealStats)
        assert sink["steal"].workers == 1
        assert sink["steal"].stolen_tasks == 0

    def test_worker_error_propagates(self, monkeypatch):
        def _crash(worker_id, scope_table, task_q, ack_q, *rest):
            ack_q.put(("err", worker_id, "BoomError: injected", "trace"))

        monkeypatch.setattr(
            "repro.proofs.steal._steal_worker_main", _crash
        )
        entry = entry_by_name("Counter")
        with pytest.raises(RuntimeError, match="injected"):
            exhaustive_verify_steal(
                entry, standard_programs(entry), jobs=2, oversubscribe=True
            )

    def test_dead_worker_detected(self, monkeypatch):
        def _die(*args, **kwargs):
            os._exit(3)

        monkeypatch.setattr(
            "repro.proofs.steal._steal_worker_main", _die
        )
        entry = entry_by_name("Counter")
        with pytest.raises(RuntimeError, match="died"):
            exhaustive_verify_steal(
                entry, standard_programs(entry), jobs=2, oversubscribe=True
            )


class TestDispatch:
    """The parallel front door routes to stealing by default."""

    def test_default_routes_to_steal(self, monkeypatch):
        sentinel = object()
        seen = {}

        def _fake(entry, programs, **kwargs):
            seen.update(kwargs)
            return sentinel

        monkeypatch.setattr(
            "repro.proofs.steal.exhaustive_verify_steal", _fake
        )
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        assert exhaustive_verify_parallel(entry, programs, jobs=2) \
            is sentinel
        assert seen["jobs"] == 2
        assert exhaustive_verify_parallel(
            entry, programs, jobs=2, steal=True, spill="/tmp/x",
            max_configurations=4,
        ) is sentinel
        assert seen["spill"] == "/tmp/x"
        assert seen["max_configurations"] == 4

    def test_steal_off_uses_static_path(self, monkeypatch):
        def _fail(*args, **kwargs):
            raise AssertionError("steal path used despite steal=False")

        monkeypatch.setattr(
            "repro.proofs.steal.exhaustive_verify_steal", _fail
        )
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        static = exhaustive_verify_parallel(
            entry, programs, jobs=2, steal=False
        )
        assert static.configurations == serial.configurations

    def test_static_path_rejects_budget_and_spill(self):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        with pytest.raises(ValueError, match="work-stealing"):
            exhaustive_verify_parallel(
                entry, programs, jobs=2, steal=False, max_configurations=5
            )
        with pytest.raises(ValueError, match="work-stealing"):
            exhaustive_verify_parallel(
                entry, programs, jobs=2, steal=False, spill="/tmp/x"
            )
        with pytest.raises(ValueError, match="work-stealing"):
            verify_scopes_parallel(
                standard_scopes()[:1], jobs=2, steal=False,
                max_configurations=5,
            )

    def test_scopes_front_door_steal_off_matches(self):
        scopes = standard_scopes()[:2]
        static = verify_scopes_parallel(scopes, jobs=2, steal=False)
        for entry, programs, max_gossips in scopes:
            serial = _serial(entry, programs, max_gossips)
            assert static[entry.name].configurations \
                == serial.configurations


class TestInstrumentation:
    def test_scheduler_and_store_instruments_emitted(self, tmp_path):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        ins = Instrumentation.on()
        exhaustive_verify_steal(
            entry, programs, jobs=2, spill=str(tmp_path),
            instrumentation=ins, **FORCE
        )
        instruments = ins.metrics.snapshot()["instruments"]
        bare = {key.split("{", 1)[0] for key in instruments}
        assert "explore.steal.workers" in bare
        assert "explore.steal.stolen_tasks" in bare
        assert "explore.steal.idle_seconds" in bare
        assert "explore.fp_store.lookups" in bare
        assert instruments["explore.steal.workers"]["value"] == 2

    def test_deterministic_totals_match_serial(self):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial_ins = Instrumentation.on()
        exhaustive_verify(entry, programs, instrumentation=serial_ins)
        steal_ins = Instrumentation.on()
        exhaustive_verify_steal(
            entry, programs, jobs=2, instrumentation=steal_ins, **FORCE
        )
        assert deterministic_totals(steal_ins.metrics.snapshot()) \
            == deterministic_totals(serial_ins.metrics.snapshot())
