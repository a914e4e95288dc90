"""The chaos soak harness (`proofs/chaos.py`) and its trace replay."""

import json

import pytest

from repro.obs import Instrumentation
from repro.proofs import (
    ALL_ENTRIES,
    chaos_soak,
    default_plans,
    dump_trace,
    entry_by_name,
    format_chaos,
    plan_by_name,
    replay_trace,
    run_chaos,
)
from repro.runtime.faults import FaultPlan

ENTRY_NAMES = [entry.name for entry in ALL_ENTRIES]
PLAN_NAMES = [plan.name for plan in default_plans()]


class TestSoak:
    @pytest.mark.parametrize("entry_name", ENTRY_NAMES)
    @pytest.mark.parametrize("plan_name", PLAN_NAMES)
    def test_every_entry_survives_every_plan(self, entry_name, plan_name):
        # The acceptance criterion: RA-linearizable + converged for every
        # registry entry, including the crash+recovery plan and the
        # 0.9-drop plan.
        report = run_chaos(
            entry_by_name(entry_name), seed=0, plan=plan_by_name(plan_name)
        )
        assert report.ra_ok, report.reason
        assert report.converged, report.reason

    def test_soak_covers_entries_plans_and_seeds(self):
        entries = [entry_by_name("Counter"), entry_by_name("G-Set")]
        reports = chaos_soak(entries, soak=2, base_seed=5)
        assert len(reports) == 2 * len(default_plans()) * 2
        assert {r.seed for r in reports} == {5, 6}
        assert all(r.ok for r in reports)

    def test_crash_plan_actually_crashes(self):
        report = run_chaos(
            entry_by_name("OR-Set"), seed=1, plan=plan_by_name("crash")
        )
        kinds = report.trace.event_counts()
        assert kinds.get("crash", 0) >= 1
        assert kinds.get("recover", 0) >= 1
        assert report.ok

    def test_high_loss_plan_actually_drops(self):
        plan = plan_by_name("high-loss")
        assert plan.drop_probability == 0.9
        report = run_chaos(entry_by_name("PN-Counter"), seed=1, plan=plan)
        assert report.trace.event_counts().get("drop", 0) > 0
        assert report.ok

    def test_operations_budget_comes_from_registry(self):
        entry = entry_by_name("RGA")
        report = run_chaos(entry, seed=0)
        # chaos_operations invocations plus one closing read per replica.
        assert report.operations == entry.chaos_operations + 3


class TestDeterminism:
    def test_same_seed_and_plan_identical_trace(self):
        entry = entry_by_name("LWW-Element Set")
        plan = plan_by_name("baseline")
        one = run_chaos(entry, seed=9, plan=plan)
        two = run_chaos(entry, seed=9, plan=plan)
        assert one.trace.events == two.trace.events
        assert one.trace.fingerprint() == two.trace.fingerprint()
        assert (one.ra_ok, one.converged) == (two.ra_ok, two.converged)

    #: ``run_chaos(entry, seed=0, plan=p).trace.fingerprint()``: any
    #: change to the order in which the driver loop draws from its RNG
    #: or moves messages changes these.
    PINNED = {
        ("Counter", "baseline"):
            "e8970a3f40a7ffa517a10ea2efdad2afd633646fc45586db728000134172a549",
        ("Counter", "high-loss"):
            "c31d96f2adb07f49cd15bb0237892dbe1b116fd76093c47a031fb9c9a98eeeba",
        ("Counter", "partition"):
            "6dfa321cef3be31da538788abc2c45b61076e18c1618b7075bfe82047d0955c9",
        ("Counter", "crash"):
            "0d1aec60bab862ce3e30c9a5c8ff061951c362e1e69c2ca72e06650b534e516e",
        ("G-Counter", "baseline"):
            "6f8cc33c55eddebbbb2bbcd301fdefba8721ebc1eabbb475d932b8984ff1ebd3",
        ("G-Counter", "high-loss"):
            "4ffdb6e212ac2f6f740eb075bebf9b68ee9431d30009cf8cf6d66188ddbfde04",
        ("G-Counter", "partition"):
            "6cf98cfe54508206257406cb3039b1617b25e7e74e3ee5ad2e296ceb8a2c2f89",
        ("G-Counter", "crash"):
            "0773492f917c7c294c0001b5b6f8835860dd1d0a22a05695d6f4e42df5e7aeff",
    }

    @pytest.mark.parametrize("entry_name, plan_name", sorted(PINNED))
    def test_trace_pinned(self, entry_name, plan_name):
        # One op-based and one state-based entry under every default
        # plan, so both delivery modes of the driver loop are pinned.
        report = run_chaos(
            entry_by_name(entry_name), seed=0, plan=plan_by_name(plan_name)
        )
        assert report.trace.fingerprint() \
            == self.PINNED[(entry_name, plan_name)]

    def test_different_seeds_differ(self):
        entry = entry_by_name("LWW-Element Set")
        plan = plan_by_name("baseline")
        assert (
            run_chaos(entry, seed=9, plan=plan).trace.fingerprint()
            != run_chaos(entry, seed=10, plan=plan).trace.fingerprint()
        )


class TestTraceReplay:
    def test_dump_and_replay_round_trip(self, tmp_path):
        report = run_chaos(
            entry_by_name("Wooki"), seed=4, plan=plan_by_name("crash")
        )
        path = str(tmp_path / "trace.json")
        document = dump_trace(report, path)
        assert document["fingerprint"] == report.trace.fingerprint()
        replay = replay_trace(path)
        assert replay.trace_matches
        assert replay.verdict_matches
        assert replay.ok

    def test_replay_detects_tampered_fingerprint(self, tmp_path):
        report = run_chaos(entry_by_name("Counter"), seed=2)
        path = str(tmp_path / "trace.json")
        dump_trace(report, path)
        document = json.loads(open(path).read())
        document["fingerprint"] = "0" * 64
        replay = replay_trace(document)
        assert not replay.trace_matches
        assert not replay.ok

    def test_replay_rejects_non_trace(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"schema": "nope"}')
        with pytest.raises(ValueError, match="not a chaos trace"):
            replay_trace(str(path))


class TestInstrumentation:
    def test_chaos_metrics_recorded(self):
        ins = Instrumentation.on()
        report = run_chaos(
            entry_by_name("Counter"), seed=0, plan=plan_by_name("baseline"),
            instrumentation=ins,
        )
        snapshot = ins.metrics.snapshot()
        keys = snapshot["instruments"]
        runs = keys["chaos.runs{entry=Counter,plan=baseline}"]
        assert runs["value"] == 1
        ok = keys["chaos.ok{entry=Counter,plan=baseline}"]
        assert ok["value"] == (1 if report.ok else 0)
        assert any(key.startswith("chaos.events{") for key in keys)

    def test_null_instrumentation_is_default(self):
        # Must not raise without metrics attached.
        assert run_chaos(entry_by_name("Counter"), seed=0).ok


class TestFormat:
    def test_format_chaos_table(self):
        reports = chaos_soak([entry_by_name("Counter")], soak=1)
        text = format_chaos(reports, title="soak")
        assert text.startswith("soak")
        assert "Counter" in text and "baseline" in text
        assert "failures:" not in text

    def test_format_chaos_lists_failures(self):
        report = run_chaos(entry_by_name("Counter"), seed=0)
        report.ra_ok = False
        report.reason = "synthetic failure"
        text = format_chaos([report])
        assert "failures:" in text and "synthetic failure" in text


class TestPlans:
    def test_default_plans_cover_required_scenarios(self):
        plans = {plan.name: plan for plan in default_plans()}
        assert plans["high-loss"].drop_probability == 0.9
        assert plans["crash"].crashes and plans["crash"].recovers()
        assert plans["partition"].partitions

    def test_plan_by_name_unknown(self):
        with pytest.raises(KeyError):
            plan_by_name("nope")
