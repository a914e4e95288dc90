"""The phase-attribution profiler (:mod:`repro.obs.profile`)."""

from repro.obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from repro.obs.profile import (
    PHASES,
    PhaseProfiler,
    maybe_profiler,
    phase_totals,
)
from repro.proofs.exhaustive import exhaustive_verify_state, standard_programs
from repro.proofs.registry import entry_by_name


class TestAccumulation:
    def test_add_merges_by_phase(self):
        profiler = PhaseProfiler()
        profiler.add("apply", 0.5)
        profiler.add("apply", 0.25, regions=3)
        assert profiler.seconds == {"apply": 0.75}
        assert profiler.counts == {"apply": 4}
        assert profiler.total() == 0.75

    def test_bool_tracks_whether_anything_recorded(self):
        profiler = PhaseProfiler()
        assert not profiler
        profiler.add("check", 0.0)
        assert profiler

    def test_region_context_manager_times(self):
        profiler = PhaseProfiler()
        with profiler.phase("convergence"):
            pass
        assert profiler.counts == {"convergence": 1}
        assert profiler.seconds["convergence"] >= 0.0

    def test_merge_and_reset(self):
        a, b = PhaseProfiler(), PhaseProfiler()
        a.add("apply", 1.0)
        b.add("apply", 2.0, regions=2)
        b.add("check", 0.5)
        a.merge(b)
        assert a.seconds == {"apply": 3.0, "check": 0.5}
        assert a.counts == {"apply": 3, "check": 1}
        a.reset()
        assert not a and a.total() == 0.0

    def test_engine_phases_are_declared(self):
        for phase in ("snapshot", "restore", "apply", "hb", "commute",
                      "fingerprint", "check", "convergence"):
            assert phase in PHASES


class TestInstrumentationFold:
    @staticmethod
    def _instruments(ins):
        return ins.artifact("test")["metrics"]["instruments"]

    def test_artifact_carries_profile_counters(self):
        ins = Instrumentation.on()
        ins.profile.add("apply", 0.5, regions=2)
        instruments = self._instruments(ins)
        totals = phase_totals(instruments)
        assert totals == {"apply": 0.5}
        regions = instruments["profile.regions{phase=apply}"]
        assert regions["value"] == 2
        assert regions["deterministic"] is False  # work metric

    def test_fold_resets_so_totals_do_not_double(self):
        ins = Instrumentation.on()
        ins.profile.add("check", 1.0)
        first = phase_totals(self._instruments(ins))
        second = phase_totals(self._instruments(ins))
        assert first == second == {"check": 1.0}

    def test_phase_totals_ignores_unrelated_instruments(self):
        ins = Instrumentation.on()
        ins.metrics.counter("explore.configurations").inc(5)
        assert phase_totals(self._instruments(ins)) == {}


class TestMaybeProfiler:
    def test_null_handle_has_no_profiler(self):
        assert maybe_profiler(NULL_INSTRUMENTATION) is None
        assert maybe_profiler(object()) is None

    def test_enabled_handle_exposes_its_profiler(self):
        ins = Instrumentation.on()
        assert maybe_profiler(ins) is ins.profile


class TestProfiledStateRun:
    def test_state_domain_is_profiled(self):
        # The profiling proxy wraps only the calls a state domain has,
        # and timing them leaves the walk as it was.
        entry = entry_by_name("G-Counter")
        programs = standard_programs(entry)
        plain = exhaustive_verify_state(entry, programs, max_gossips=2)
        ins = Instrumentation.on()
        profiled = exhaustive_verify_state(
            entry, programs, max_gossips=2, instrumentation=ins,
        )
        assert (profiled.ok, profiled.configurations) \
            == (plain.ok, plain.configurations)
        assert plain.ok and plain.configurations > 0
        assert ins.profile.seconds["apply"] > 0
        assert ins.profile.seconds["fingerprint"] > 0
        # The default asks for source-DPOR; the span records the search
        # that ran.
        [span] = ins.tracer.spans("explore.state")
        assert span["attrs"]["por"] == "sleep"
