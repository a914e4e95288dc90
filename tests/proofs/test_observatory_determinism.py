"""The observatory must not perturb verification (PR-3 contract).

Heartbeats, journal events, and phase profiles are *work artifacts*:
they describe the machinery, never the verdicts.  This suite pins the
two load-bearing guarantees:

* serial and pool runs produce byte-identical
  ``deterministic_totals`` even with the full observatory switched on
  (live progress at every beat, heartbeat log, journal, profiler), and
* with everything off the engine's hot loop pays a single attribute
  check per hook — the ``NULL_INSTRUMENTATION`` pattern.
"""

import io
import json

from repro.obs import (
    HeartbeatEmitter,
    Instrumentation,
    NULL_INSTRUMENTATION,
    ProgressMonitor,
    deterministic_totals,
)
from repro.proofs.exhaustive import (
    exhaustive_verify,
    exhaustive_verify_state,
)
from repro.proofs.parallel import standard_scopes
from repro.proofs.steal import verify_scopes_steal

SCOPES = [
    scope for scope in standard_scopes()
    if scope[0].name in ("Counter", "OR-Set")
]


def _serial_with_observatory(scopes, log_path):
    ins = Instrumentation.on()
    monitor = ProgressMonitor(interval=0.0, stream=io.StringIO(),
                              log_path=log_path)
    emitter = HeartbeatEmitter(worker="w0", sink=monitor.ingest,
                               interval=0.0)
    try:
        for entry, programs, max_gossips in scopes:
            if entry.kind == "OB":
                exhaustive_verify(entry, programs, instrumentation=ins,
                                  heartbeat=emitter)
            else:
                exhaustive_verify_state(
                    entry, programs, max_gossips=max_gossips,
                    instrumentation=ins, heartbeat=emitter,
                )
    finally:
        monitor.close()
    return ins


def test_serial_vs_steal_pool_with_observatory_on(real_workers, tmp_path):
    serial = _serial_with_observatory(
        SCOPES, str(tmp_path / "hb-serial.jsonl"))
    pooled = Instrumentation.on()
    verify_scopes_steal(
        SCOPES, jobs=2, instrumentation=pooled,
        progress=0.0, progress_stream=io.StringIO(),
        heartbeat_log=str(tmp_path / "hb-pool.jsonl"),
    )
    serial_totals = deterministic_totals(serial.metrics.snapshot())
    pooled_totals = deterministic_totals(pooled.metrics.snapshot())
    # Byte-identical, not merely ==: the artifact section must render
    # the same characters in both runs.
    assert json.dumps(pooled_totals, sort_keys=True) \
        == json.dumps(serial_totals, sort_keys=True)
    assert serial_totals  # non-vacuous: verdict counters are present


def test_observatory_artifacts_stay_out_of_deterministic_totals(tmp_path):
    ins = _serial_with_observatory(SCOPES[:1], str(tmp_path / "hb.jsonl"))
    assert len(ins.journal) > 0  # journal saw lifecycle events
    assert ins.profile  # profiler attributed engine time
    for key in deterministic_totals(ins.metrics.snapshot()):
        assert not key.startswith(("profile.", "explore."))


class TestDisabledPath:
    def test_null_handle_has_no_observatory(self):
        assert NULL_INSTRUMENTATION.journal is None
        assert NULL_INSTRUMENTATION.profile is None
        assert NULL_INSTRUMENTATION.enabled is False
        # journal_event on the null handle is a no-op, not an error.
        NULL_INSTRUMENTATION.journal_event("scope.start", entry="X")

    @staticmethod
    def _engine(**kwargs):
        from repro.runtime.explore_engine import build_engine
        from repro.runtime.system import OpBasedSystem
        from repro.proofs.registry import entry_by_name
        from repro.proofs.exhaustive import standard_programs

        entry = entry_by_name("Counter")
        programs = standard_programs(entry)

        def make_system():
            return OpBasedSystem(entry.make_crdt(),
                                 replicas=sorted(programs))

        return build_engine("op", make_system, programs,
                            lambda *args: None, **kwargs)

    def test_engine_holds_none_hooks_when_disabled(self):
        engine = self._engine()
        assert engine.heartbeat is None
        assert engine.profile is None
        assert engine.journal is None

    def test_profiled_domain_only_wraps_when_profiling(self):
        from repro.runtime.explore_engine import _ProfiledDomain
        from repro.obs.profile import PhaseProfiler

        assert not isinstance(self._engine().domain, _ProfiledDomain)
        profiled = self._engine(profile=PhaseProfiler())
        assert isinstance(profiled.domain, _ProfiledDomain)
