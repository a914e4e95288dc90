"""CLI surface of the exploration observatory.

``--progress`` / ``--journal`` / ``--heartbeat-log`` on ``exhaustive``
and ``chaos``, ``stats --phases`` and ``table --trace-checks``.
"""

import json

from repro.__main__ import build_parser, main
from repro.obs.heartbeat import HEARTBEAT_SCHEMA
from repro.obs.journal import read_journal
from repro.proofs.compositional import SIDE_CONDITION_LIMIT


class TestParser:
    def test_progress_flag_takes_optional_interval(self):
        args = build_parser().parse_args(["exhaustive", "--progress"])
        assert args.progress == 2.0
        args = build_parser().parse_args(
            ["exhaustive", "--progress", "0.25"])
        assert args.progress == 0.25
        assert build_parser().parse_args(["exhaustive"]).progress is None

    def test_chaos_shares_the_observatory_flags(self):
        args = build_parser().parse_args(
            ["chaos", "--progress", "--journal", "j.jsonl",
             "--heartbeat-log", "hb.jsonl"])
        assert args.progress == 2.0
        assert args.journal == "j.jsonl"
        assert args.heartbeat_log == "hb.jsonl"

    def test_stats_phases_flag(self):
        assert build_parser().parse_args(
            ["stats", "x.json", "--phases"]).phases is True

    def test_table_trace_checks_flag(self):
        assert build_parser().parse_args(
            ["table", "--trace-checks"]).trace_checks is True


class TestExhaustiveObservatory:
    def test_serial_run_writes_all_artifacts(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        hb_log = str(tmp_path / "heartbeat.jsonl")
        metrics = str(tmp_path / "metrics.json")
        assert main(["exhaustive", "--scope", "counter",
                     "--progress", "0.01", "--journal", journal,
                     "--heartbeat-log", hb_log,
                     "--metrics", metrics]) == 0
        captured = capsys.readouterr()
        assert f"journal written to {journal}" in captured.out
        assert "[progress]" in captured.err
        loaded = read_journal(journal)
        kinds = {event["kind"] for event in loaded["events"]}
        assert {"scope.start", "scope.end"} <= kinds
        with open(hb_log, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0] == {"schema": HEARTBEAT_SCHEMA}
        assert len(lines) > 1 and lines[1]["worker"] == "w0"

    def test_store_journal_names_the_capped_sample(self, tmp_path, capsys):
        # Only the ⊗ts side-condition sample stops early, at its
        # configuration limit; the per-object proofs run their scopes
        # out, so nothing in the journal may read as an exhausted budget.
        journal = str(tmp_path / "journal.jsonl")
        assert main(["exhaustive", "--store", "counter:1,orset:1",
                     "--journal", journal]) == 0
        capsys.readouterr()
        events = read_journal(journal)["events"]
        assert not [e for e in events if e["kind"] == "budget.exhausted"]
        capped = [e for e in events if e["kind"] == "search.capped"]
        assert [e["limit"] for e in capped] == [SIDE_CONDITION_LIMIT]
        assert capped[0]["configurations"] == SIDE_CONDITION_LIMIT

    def test_heartbeat_log_without_progress_stays_silent(self, tmp_path,
                                                         capsys):
        hb_log = str(tmp_path / "heartbeat.jsonl")
        assert main(["exhaustive", "--scope", "counter",
                     "--heartbeat-log", hb_log]) == 0
        captured = capsys.readouterr()
        assert "[progress]" not in captured.err
        with open(hb_log, encoding="utf-8") as handle:
            assert json.loads(handle.readline())["schema"] \
                == HEARTBEAT_SCHEMA

    def test_stats_phases_renders_profile(self, tmp_path, capsys):
        metrics = str(tmp_path / "metrics.json")
        assert main(["exhaustive", "--scope", "counter",
                     "--metrics", metrics]) == 0
        capsys.readouterr()
        assert main(["stats", metrics, "--phases"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("phase profile")
        assert "engine wall" in out

    def test_stats_phases_degrades_on_old_artifact(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "schema": "repro.metrics.artifact/1", "command": "x",
            "metrics": {"schema": "repro.metrics/1", "instruments": {}},
            "counters": {}, "events": [],
        }))
        assert main(["stats", str(path), "--phases"]) == 0
        assert "no phase profile" in capsys.readouterr().out


class TestChaosObservatory:
    def test_chaos_journal_records_crashes(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        assert main(["chaos", "--scope", "counter", "--plan", "crash",
                     "--soak", "2", "--journal", journal]) == 0
        capsys.readouterr()
        kinds = [e["kind"] for e in read_journal(journal)["events"]]
        assert "chaos.crash" in kinds


class TestTableTraceChecks:
    def test_trace_checks_populates_check_events(self, tmp_path, capsys):
        metrics = str(tmp_path / "metrics.json")
        assert main(["table", "--executions", "1", "--operations", "4",
                     "--trace-checks", "--metrics", metrics]) == 0
        capsys.readouterr()
        with open(metrics, encoding="utf-8") as handle:
            artifact = json.load(handle)
        checks = [event for event in artifact.get("events", [])
                  if event.get("type") == "check"]
        assert checks and all(event["ok"] for event in checks)
