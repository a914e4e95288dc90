"""Frontier-split pool vs serial: the exactness contract.

The pool only decides *which process* explores a subtree, never
*whether* it is explored, so every run — any frontier depth, any task
order, symmetric scopes, spill tiers — must return the serial verdict
and the serial distinct-configuration count.  The pool never runs more
workers than the host has cores, so the tests that need real worker
processes take the ``real_workers`` fixture, which reports more.
"""

import functools
import os

import pytest

from repro.obs import Instrumentation, deterministic_totals
from repro.proofs.exhaustive import (
    exhaustive_verify,
    exhaustive_verify_state,
    standard_programs,
)
from repro.proofs.parallel import standard_scopes
from repro.proofs.registry import ALL_ENTRIES, entry_by_name
from repro.proofs.steal import (
    StealStats,
    exhaustive_verify_steal,
    verify_scopes_steal,
)
from tests.strategies import SplitSchedule, run_split

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
    def test_all_scopes_one_pool(self, real_workers):
        # Every registry entry through one pool returns the serial
        # verdict and the serial distinct-configuration count.
        scopes = standard_scopes()
        assert scopes
        sink = {}
        merged = verify_scopes_steal(scopes, jobs=3, stats_sink=sink)
        assert [result.entry_name for result in merged] \
            == [entry.name for entry, _, _ in scopes]
        assert sink["steal"].workers == 3
        for (entry, programs, max_gossips), result in zip(scopes, merged):
            serial = _serial(entry, programs, max_gossips)
            assert result.ok == serial.ok, entry.name
            assert result.configurations == serial.configurations, entry.name

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_result_per_scope(self, real_workers, jobs):
        # Two scopes of one entry stay two results, in input order.
        entry = entry_by_name("Counter")
        scopes = [
            (entry, {"r1": [("inc", ()), ("read", ())],
                     "r2": [("inc", ()), ("read", ())]}, None),
            (entry, {"r1": [("inc", ()), ("read", ()), ("dec", ())],
                     "r2": [("read", ())]}, None),
        ]
        serial = [exhaustive_verify(e, programs).configurations
                  for e, programs, _ in scopes]
        assert serial == [11, 10]
        merged = verify_scopes_steal(scopes, jobs=jobs)
        assert [result.configurations for result in merged] == serial
        checks = [result.check_stats.checks for result in merged]
        # Sessions may re-check what another process also reached.
        assert all(c >= n for c, n in zip(checks, serial))

    def test_forced_splitting_op_based(self, real_workers):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        sink = {}
        pooled = exhaustive_verify_steal(
            entry, programs, jobs=2, stats_sink=sink
        )
        stats = sink["steal"]
        assert stats.workers == 2
        assert stats.tasks > 1  # the frontier really split
        assert stats.stolen_tasks == 0
        assert stats.frontier_depth >= 1
        assert len(stats.timeline) == stats.tasks
        assert pooled.ok == serial.ok
        assert pooled.configurations == serial.configurations

    def test_forced_splitting_state_based(self, real_workers):
        entry = entry_by_name("G-Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify_state(entry, programs, max_gossips=2)
        sink = {}
        pooled = exhaustive_verify_steal(
            entry, programs, jobs=2, max_gossips=2, stats_sink=sink
        )
        assert sink["steal"].tasks > 1
        assert pooled.ok == serial.ok
        assert pooled.configurations == serial.configurations

    def test_symmetry_on_and_off(self, real_workers):
        entry = entry_by_name("Counter")
        on = exhaustive_verify(entry, SYM_PROGRAMS)
        off = exhaustive_verify(entry, SYM_PROGRAMS, symmetry=False)
        assert on.configurations < off.configurations
        pooled_on = exhaustive_verify_steal(entry, SYM_PROGRAMS, jobs=2)
        pooled_off = exhaustive_verify_steal(
            entry, SYM_PROGRAMS, jobs=2, symmetry=False
        )
        assert pooled_on.configurations == on.configurations
        assert pooled_off.configurations == off.configurations

    def test_raw_fingerprints_without_store(self, real_workers):
        # Without spill, sessions keep raw-fingerprint sets (the serial
        # path's representation); the merge must be exact.
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        pooled = exhaustive_verify_steal(entry, programs, jobs=2)
        assert pooled.configurations == serial.configurations
        assert pooled.fp_store is None

    def test_spill_tier(self, real_workers, tmp_path):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        pooled = exhaustive_verify_steal(
            entry, programs, jobs=2, spill=str(tmp_path)
        )
        assert pooled.configurations == serial.configurations
        assert pooled.fp_store is not None
        assert pooled.fp_store.lookups > 0
        assert not list(tmp_path.iterdir())  # scratch files cleaned up


#: The named schedules of :class:`TestSplitSchedule`, each dealt to two
#: sessions.
SCHEDULES = {
    "when-empty": dict(order="frontier", deal="least-work"),
    "always": dict(order="reversed"),
    "seed0": dict(order="shuffle", seed=0),
    "seed1": dict(order="shuffle", seed=1),
    "seed2": dict(order="shuffle", seed=2),
}

#: Frontier depths every schedule runs at.
DEPTHS = (1, 2, 3, 5)


@functools.lru_cache(maxsize=None)
def _serial_verdict(name):
    entry = entry_by_name(name)
    serial = _serial(entry, standard_programs(entry), MAX_GOSSIPS)
    return serial.ok, serial.configurations


class TestSplitSchedule:
    """Frontier tasks lose no configuration, whoever runs them and in
    whatever order.

    Which tasks exist (the frontier depth) and who runs them in which
    order are test inputs here, replayed in one process over two
    engine sessions with separate visited records.  ``when-empty``
    deals the frontier in order, each task to the session with less
    work so far (the way an idle worker pulls from the shared queue);
    ``always`` alternates sessions over the reversed frontier;
    ``seedN`` alternates over a ``random.Random(N)`` shuffle.
    """

    @pytest.mark.parametrize("mode", list(SCHEDULES))
    @pytest.mark.parametrize("por", ["sleep", "source"])
    @pytest.mark.parametrize("entry", ALL_ENTRIES, ids=lambda e: e.name)
    def test_matches_serial(self, entry, por, mode):
        expected = _serial_verdict(entry.name)
        programs = standard_programs(entry)
        most_tasks = 0
        for depth in DEPTHS:
            schedule = SplitSchedule(depth=depth, **SCHEDULES[mode])
            ok, configurations, tasks = run_split(
                entry, programs, schedule, por=por, max_gossips=MAX_GOSSIPS
            )
            assert (ok, configurations) == expected, depth
            most_tasks = max(most_tasks, tasks)
        assert most_tasks > 1  # the schedule really split the tree


class TestPoolMechanics:
    def test_single_worker_runs_inline(self, monkeypatch):
        # One effective worker must not pay fork + pickle + queue costs:
        # the pool path is never entered.
        def _boom(*args, **kwargs):
            raise AssertionError("mp.Process used for a 1-worker pool")

        monkeypatch.setattr("repro.proofs.parallel.os.cpu_count", lambda: 1)
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

    def test_worker_error_propagates(self, real_workers, monkeypatch):
        def _crash(worker_id, scope_table, task_q, ack_q, *rest):
            ack_q.put(("err", worker_id, "BoomError: injected", "trace"))

        monkeypatch.setattr(
            "repro.proofs.steal._steal_worker_main", _crash
        )
        entry = entry_by_name("Counter")
        with pytest.raises(RuntimeError, match="injected"):
            exhaustive_verify_steal(entry, standard_programs(entry), jobs=2)

    def test_dead_worker_detected(self, real_workers, monkeypatch):
        def _die(*args, **kwargs):
            os._exit(3)

        monkeypatch.setattr(
            "repro.proofs.steal._steal_worker_main", _die
        )
        entry = entry_by_name("Counter")
        with pytest.raises(RuntimeError, match="died"):
            exhaustive_verify_steal(entry, standard_programs(entry), jobs=2)


class TestDispatch:
    """``jobs > 1`` and ``jobs=0`` route both exhaustive front doors to
    the pool, and ``steal=False`` is the same pool with a depth-1
    frontier."""

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
        assert exhaustive_verify(entry, programs, jobs=2) is sentinel
        assert seen["jobs"] == 2
        assert seen["steal"] is True
        assert exhaustive_verify(
            entry, programs, jobs=2, steal=False, spill="/tmp/x",
        ) is sentinel
        assert seen["steal"] is False
        assert seen["spill"] == "/tmp/x"
        state = entry_by_name("G-Counter")
        assert exhaustive_verify_state(
            state, standard_programs(state), jobs=2, max_gossips=2,
        ) is sentinel
        assert seen["max_gossips"] == 2

    def test_jobs_zero_routes_to_pool(self, monkeypatch):
        # ``jobs=0`` means every core at every front door, as ``--jobs 0``
        # does: the exhaustive front doors hand it to the pool, which
        # sizes itself from the host's core count.
        sentinel = object()
        seen = []

        def _fake(entry, programs, **kwargs):
            seen.append(kwargs["jobs"])
            return sentinel

        monkeypatch.setattr(
            "repro.proofs.steal.exhaustive_verify_steal", _fake
        )
        entry = entry_by_name("Counter")
        assert exhaustive_verify(
            entry, standard_programs(entry), jobs=0
        ) is sentinel
        state = entry_by_name("G-Counter")
        assert exhaustive_verify_state(
            state, standard_programs(state), jobs=0, max_gossips=2
        ) is sentinel
        assert seen == [0, 0]

    def test_steal_off_runs_pool_at_depth_one(self, real_workers):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        depths = {}
        for steal in (True, False):
            sink = {}
            pooled = exhaustive_verify_steal(
                entry, programs, jobs=2, steal=steal, stats_sink=sink
            )
            assert (pooled.ok, pooled.configurations) \
                == (serial.ok, serial.configurations)
            stats = sink["steal"]
            assert len(stats.timeline) == stats.tasks
            depths[steal] = (stats.frontier_depth, stats.tasks)
        # One task per root branch: each replica's first invocation.
        assert depths[False] == (1, 2)
        assert depths[True][0] > 1

    def test_steal_off_honors_budget_and_spill(self, real_workers, tmp_path):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        sink = {}
        spilled = exhaustive_verify_steal(
            entry, programs, jobs=2, steal=False, spill=str(tmp_path),
            stats_sink=sink,
        )
        assert sink["steal"].frontier_depth == 1
        assert spilled.configurations \
            == exhaustive_verify(entry, programs).configurations
        assert spilled.fp_store is not None
        assert not list(tmp_path.iterdir())  # scratch files cleaned up

    def test_scopes_front_door_steal_off_matches(self):
        scopes = standard_scopes()[:2]
        static = verify_scopes_steal(scopes, jobs=2, steal=False)
        for (entry, programs, max_gossips), result in zip(scopes, static):
            serial = _serial(entry, programs, max_gossips)
            assert result.configurations == serial.configurations


class TestInstrumentation:
    def test_scheduler_and_store_instruments_emitted(self, real_workers,
                                                      tmp_path):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        ins = Instrumentation.on()
        exhaustive_verify_steal(
            entry, programs, jobs=2, spill=str(tmp_path),
            instrumentation=ins,
        )
        instruments = ins.metrics.snapshot()["instruments"]
        bare = {key.split("{", 1)[0] for key in instruments}
        assert "explore.steal.workers" in bare
        assert "explore.steal.frontier_depth" in bare
        assert "explore.steal.idle_seconds" in bare
        assert "explore.fp_store.lookups" in bare
        assert instruments["explore.steal.workers"]["value"] == 2

    def test_deterministic_totals_match_serial(self, real_workers):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial_ins = Instrumentation.on()
        exhaustive_verify(entry, programs, instrumentation=serial_ins)
        steal_ins = Instrumentation.on()
        exhaustive_verify_steal(
            entry, programs, jobs=2, instrumentation=steal_ins
        )
        assert deterministic_totals(steal_ins.metrics.snapshot()) \
            == deterministic_totals(serial_ins.metrics.snapshot())
