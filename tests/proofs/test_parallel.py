"""The process-parallel verification fan-out (:mod:`repro.proofs.parallel`
helpers, the per-entry table pool, and the exhaustive pool behind them).

The acceptance bar for the parallel pipeline is *bit-for-bit agreement*
with the serial checkers: same verdict and same distinct-configuration
count for every registry entry, whether a scope shares the pool with
others or has it to itself, and whether the pool splits at a deep
frontier or (``steal=False``) at the root branches.
"""

import dataclasses

import pytest

from repro.proofs.exhaustive import (
    exhaustive_verify,
    exhaustive_verify_state,
    standard_programs,
)
from repro.proofs.parallel import (
    _worker_count,
    default_jobs,
    standard_scopes,
    verify_entries_parallel,
)
from repro.proofs.registry import ALL_ENTRIES, entry_by_name
from repro.proofs.report import verify_entry
from repro.proofs.steal import exhaustive_verify_steal, verify_scopes_steal


def _serial(entry, programs, max_gossips):
    if entry.kind == "OB":
        return exhaustive_verify(entry, programs)
    return exhaustive_verify_state(entry, programs, max_gossips=max_gossips)


class TestScopesParallel:
    def test_matches_serial_on_every_registry_entry(self):
        # The acceptance criterion: for every registry entry with standard
        # programs, the parallel pipeline returns the serial verdict and
        # the serial distinct-configuration count.
        scopes = standard_scopes()
        assert scopes, "standard scope suite must not be empty"
        parallel = verify_scopes_steal(scopes, jobs=2)
        assert [result.entry_name for result in parallel] \
            == [entry.name for entry, _, _ in scopes]
        for (entry, programs, max_gossips), merged in zip(scopes, parallel):
            serial = _serial(entry, programs, max_gossips)
            assert merged.ok == serial.ok, entry.name
            assert merged.configurations == serial.configurations, entry.name

    def test_few_scopes_frontier_split_path(self):
        # One scope, four jobs: the frontier deepens until every worker
        # has tasks — and still merges to the serial answer.
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        (merged,) = verify_scopes_steal([(entry, programs, None)], jobs=4)
        assert merged.ok == serial.ok
        assert merged.configurations == serial.configurations


class TestFrontierSplit:
    @pytest.mark.parametrize("name", ["Counter", "OR-Set"])
    def test_op_based_entry(self, name):
        entry = entry_by_name(name)
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        split = exhaustive_verify_steal(entry, programs, jobs=3)
        assert split.ok == serial.ok
        assert split.configurations == serial.configurations

    def test_state_based_entry(self):
        entry = entry_by_name("G-Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify_state(entry, programs, max_gossips=2)
        split = exhaustive_verify_steal(
            entry, programs, jobs=3, max_gossips=2
        )
        assert split.ok == serial.ok
        assert split.configurations == serial.configurations


class TestEntriesParallel:
    def test_matches_serial_randomized_harness(self):
        entries = ALL_ENTRIES[:4]
        serial = [verify_entry(e, executions=3, operations=5) for e in entries]
        parallel = verify_entries_parallel(
            entries, executions=3, operations=5, jobs=2
        )
        assert parallel == serial  # dataclass equality: every field


class TestGuards:
    def test_unregistered_entry_rejected(self):
        base = entry_by_name("Counter")
        rogue = dataclasses.replace(base, name="not-in-registry")
        with pytest.raises(ValueError, match="not in the registry"):
            exhaustive_verify_steal(rogue, standard_programs(base), jobs=2)

    def test_worker_count_caps(self):
        assert _worker_count(1, 10) == 1
        assert _worker_count(8, 3) <= 3  # never more workers than tasks
        assert _worker_count(4, 0) == 1  # floor of one
        assert _worker_count(64, 64) <= default_jobs()
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            _worker_count(-3)

    def test_worker_count_clamp_matrix(self, monkeypatch):
        monkeypatch.setattr("repro.proofs.parallel.os.cpu_count", lambda: 4)
        # --jobs 0 maps to default_jobs() = all cores; with fewer tasks
        # than cores the pool must not spawn idle processes.
        assert default_jobs() == 4
        assert _worker_count(default_jobs(), 2) == 2
        assert _worker_count(8, 100) == 4  # physical-core cap
        assert _worker_count(2, 1) == 1
        assert _worker_count(0, 10) == 1  # degenerate jobs floor to one
        # The exhaustive pool knows no task count up front.
        assert _worker_count(1) == 1
        assert _worker_count(0) == 1
        assert _worker_count(8) == 4
        monkeypatch.setattr(
            "repro.proofs.parallel.os.cpu_count", lambda: None
        )
        # A core count the host cannot report counts as one, for both
        # pools, as default_jobs() does.
        assert default_jobs() == 1
        assert _worker_count(8, 100) == 1
        assert _worker_count(8) == 1

    def test_single_worker_runs_inline(self, monkeypatch):
        # One effective worker (task count or core cap) must run in the
        # calling process — no executor or worker process, no
        # fork/pickle overhead.
        def _boom(*args, **kwargs):
            raise AssertionError("worker process used for a 1-worker pool")

        monkeypatch.setattr(
            "repro.proofs.parallel.ProcessPoolExecutor", _boom
        )
        monkeypatch.setattr("repro.proofs.steal.mp.Process", _boom)
        monkeypatch.setattr("repro.proofs.parallel.os.cpu_count", lambda: 1)
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        inline = exhaustive_verify_steal(
            entry, programs, jobs=4, steal=False
        )
        assert inline.configurations == serial.configurations
        results = verify_entries_parallel(
            ALL_ENTRIES[:2], executions=2, operations=4, jobs=1
        )
        assert results == [
            verify_entry(e, executions=2, operations=4)
            for e in ALL_ENTRIES[:2]
        ]


class TestSymmetricSharding:
    """Orbit-aware frontier split: symmetric branches are not fanned out
    (the coordinator's canonical dedup drops them), and the merged
    result still equals the serial symmetric run."""

    SYM_PROGRAMS = {
        "r1": [("inc", ()), ("read", ())],
        "r2": [("inc", ()), ("read", ())],
    }

    def test_op_based_matches_serial_with_symmetry(self):
        entry = entry_by_name("Counter")
        serial = exhaustive_verify(entry, self.SYM_PROGRAMS)
        split = exhaustive_verify_steal(entry, self.SYM_PROGRAMS, jobs=4)
        assert split.ok == serial.ok
        assert split.configurations == serial.configurations
        assert split.stats.symmetry_group == 2

    def test_state_based_matches_serial_with_symmetry(self):
        entry = entry_by_name("G-Counter")
        serial = exhaustive_verify_state(
            entry, self.SYM_PROGRAMS, max_gossips=2
        )
        split = exhaustive_verify_steal(
            entry, self.SYM_PROGRAMS, jobs=4, max_gossips=2
        )
        assert split.ok == serial.ok
        assert split.configurations == serial.configurations

    def test_symmetry_override_off_matches_serial(self):
        entry = entry_by_name("Counter")
        serial = exhaustive_verify(entry, self.SYM_PROGRAMS, symmetry=False)
        split = exhaustive_verify_steal(
            entry, self.SYM_PROGRAMS, jobs=4, symmetry=False
        )
        assert split.configurations == serial.configurations
        assert split.configurations > exhaustive_verify_steal(
            entry, self.SYM_PROGRAMS, jobs=4
        ).configurations

    def test_symmetric_branches_are_skipped(self, real_workers):
        # A depth-1 frontier (steal=False) holds one task per root branch
        # the coordinator keeps: both replicas' first inc are in one
        # orbit, so symmetry leaves one task, and two without it.
        entry = entry_by_name("Counter")
        tasks = {}
        for symmetry in (None, False):
            sink = {}
            result = exhaustive_verify_steal(
                entry, self.SYM_PROGRAMS, jobs=2, symmetry=symmetry,
                steal=False, stats_sink=sink,
            )
            assert result.configurations == exhaustive_verify(
                entry, self.SYM_PROGRAMS, symmetry=symmetry
            ).configurations
            assert sink["steal"].frontier_depth == 1
            tasks[symmetry] = sink["steal"].tasks
        assert tasks == {None: 1, False: 2}
