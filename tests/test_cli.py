"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import SCENARIOS, _normalize_scope, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_defaults(self):
        args = build_parser().parse_args(["table"])
        assert args.executions == 5 and args.operations == 10

    def test_scenario_choices(self):
        args = build_parser().parse_args(["scenario", "fig8"])
        assert args.name == "fig8"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "nope"])


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["chaos", "--scope", "counter", "--soak", "0"],
        ["chaos", "--scope", "counter", "--soak", "-2"],
        ["table", "--executions", "0"],
        ["table", "--jobs", "-1", "--executions", "1"],
        ["exhaustive", "--scope", "counter", "--jobs", "-3"],
        ["exhaustive", "--scope", "counter", "--progress", "0"],
        ["chaos", "--scope", "counter", "--progress", "-1"],
    ], ids=["soak-0", "soak-negative", "executions-0", "table-jobs-negative",
            "exhaustive-jobs-negative", "progress-0", "progress-negative"])
    def test_value_that_checks_nothing_exits_2(self, capsys, argv):
        # A count or interval below its floor exits 2 with a message,
        # before anything runs.
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert "must be" in capsys.readouterr().err


class TestCommands:
    def test_figures_succeeds(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "fig5a" in out and "fig14" in out

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_renders(self, capsys, name):
        assert main(["scenario", name]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{name}:")

    def test_table_small(self, capsys):
        assert main(["table", "--executions", "1", "--operations", "5"]) == 0
        out = capsys.readouterr().out
        assert "RGA" in out and "yes" in out

    def test_mutants(self, capsys):
        assert main(["mutants"]) == 0
        out = capsys.readouterr().out
        assert "CAUGHT" in out and "MISSED" not in out


class TestScopeNames:
    @pytest.mark.parametrize("name,expected", [
        ("OR-Set", "or_set"),
        ("2P-Set (op)", "2p_set_op"),
        ("Multi-Value Reg.", "multi_value_reg"),
        ("G-Counter", "g_counter"),
    ])
    def test_normalization(self, name, expected):
        assert _normalize_scope(name) == expected


class TestObservability:
    def test_exhaustive_scope_filters(self, capsys):
        assert main(["exhaustive", "--scope", "counter"]) == 0
        out = capsys.readouterr().out
        assert "Counter" in out and "OR-Set" not in out

    def test_exhaustive_reaches_state_based_scopes(self, capsys):
        # State-based entries run under the standard gossip bound.
        assert main(["exhaustive", "--scope", "g_set"]) == 0
        row = next(
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("G-Set")
        )
        assert row.split()[1] == "59"

    def test_exhaustive_unknown_scope(self, capsys):
        assert main(["exhaustive", "--scope", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scope" in err and "or_set" in err

    def test_exhaustive_no_symmetry_flag(self, capsys):
        assert main(["exhaustive", "--scope", "counter",
                     "--no-symmetry"]) == 0
        out = capsys.readouterr().out
        assert "Counter" in out and "ok" in out

    def test_jobs_zero_means_all_cores(self, capsys):
        # 0 resolves to default_jobs() (all cores); the verdict and the
        # configuration count must match the serial run.
        assert main(["exhaustive", "--scope", "counter"]) == 0
        serial = capsys.readouterr().out
        assert main(["exhaustive", "--scope", "counter",
                     "--jobs", "0"]) == 0
        parallel = capsys.readouterr().out
        serial_row = next(l for l in serial.splitlines() if "Counter" in l)
        parallel_row = next(
            l for l in parallel.splitlines() if "Counter" in l
        )
        assert serial_row.split()[1] == parallel_row.split()[1]  # configs

    def test_exhaustive_metrics_stats_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "metrics.json")
        assert main(["exhaustive", "--scope", "counter",
                     "--metrics", path]) == 0
        out = capsys.readouterr().out
        assert f"metrics artifact written to {path}" in out

        artifact = json.loads(open(path).read())
        assert artifact["command"] == "exhaustive"
        assert artifact["counters"]["verify.scopes"] == 1

        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "deterministic (serial == --jobs N):" in out
        assert "verify.configurations{entry=Counter}" in out

    def test_exhaustive_metrics_parallel_matches_serial(self, capsys,
                                                        tmp_path):
        serial_path = str(tmp_path / "serial.json")
        parallel_path = str(tmp_path / "parallel.json")
        assert main(["exhaustive", "--scope", "or_set",
                     "--metrics", serial_path]) == 0
        assert main(["exhaustive", "--scope", "or_set", "--jobs", "2",
                     "--metrics", parallel_path]) == 0
        capsys.readouterr()
        serial = json.loads(open(serial_path).read())
        parallel = json.loads(open(parallel_path).read())
        assert serial["counters"] == parallel["counters"]

    def test_exhaustive_metrics_jsonl(self, capsys, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        assert main(["exhaustive", "--scope", "counter",
                     "--metrics", path]) == 0
        capsys.readouterr()
        lines = [json.loads(line)
                 for line in open(path).read().splitlines()]
        assert lines[0]["command"] == "exhaustive"
        assert any(line.get("type") == "instrument" for line in lines[1:])
        assert main(["stats", path]) == 0

    def test_table_metrics(self, capsys, tmp_path):
        path = str(tmp_path / "table.json")
        assert main(["table", "--executions", "1", "--operations", "5",
                     "--metrics", path]) == 0
        capsys.readouterr()
        artifact = json.loads(open(path).read())
        assert artifact["command"] == "table"
        assert any(key.startswith("verify.executions")
                   for key in artifact["counters"])

    def test_stats_rejects_missing_file(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestChaos:
    def test_chaos_scope_filters(self, capsys):
        assert main(["chaos", "--scope", "counter"]) == 0
        out = capsys.readouterr().out
        assert "Chaos soak" in out
        assert "Counter" in out and "PN-Counter" not in out

    def test_chaos_unknown_scope(self, capsys):
        assert main(["chaos", "--scope", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scope" in err and "counter" in err

    def test_chaos_unknown_plan(self, capsys):
        assert main(["chaos", "--plan", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown plan" in err and "high-loss" in err

    def test_chaos_plan_filter(self, capsys):
        assert main(["chaos", "--scope", "g_set", "--plan", "crash"]) == 0
        out = capsys.readouterr().out
        assert "crash" in out and "high-loss" not in out

    def test_chaos_soak_repeats_seeds(self, capsys):
        assert main(["chaos", "--scope", "counter", "--plan", "baseline",
                     "--soak", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "seed" in out

    def test_chaos_metrics_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "metrics.json")
        assert main(["chaos", "--scope", "counter", "--metrics", path]) == 0
        out = capsys.readouterr().out
        assert f"metrics artifact written to {path}" in out
        artifact = json.loads(open(path).read())
        assert artifact["command"] == "chaos"
        assert artifact["meta"]["scope"] == "counter"
        instruments = artifact["metrics"]["instruments"]
        assert "chaos.runs{entry=Counter,plan=baseline}" in instruments
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "chaos.runs{entry=Counter" in out

    def test_chaos_replay_round_trip(self, capsys, tmp_path):
        # Dump a (passing) trace directly, then replay it via the CLI.
        from repro.proofs import dump_trace, entry_by_name, run_chaos

        path = str(tmp_path / "trace.json")
        dump_trace(run_chaos(entry_by_name("Counter"), seed=1), path)
        assert main(["chaos", "--replay", path]) == 0
        out = capsys.readouterr().out
        assert "trace=identical" in out and "verdict=identical" in out

    def test_chaos_replay_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{}")
        assert main(["chaos", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot replay trace" in err


class TestStealCLI:
    """The --no-steal/--spill flags and the stats digest."""

    def _configs(self, out):
        row = next(l for l in out.splitlines() if "Counter" in l)
        return row.split()[1]

    def test_steal_flags_match_serial(self, capsys):
        assert main(["exhaustive", "--scope", "counter"]) == 0
        serial = self._configs(capsys.readouterr().out)
        assert main(["exhaustive", "--scope", "counter", "--jobs",
                     "2"]) == 0
        assert self._configs(capsys.readouterr().out) == serial
        assert main(["exhaustive", "--scope", "counter", "--jobs", "2",
                     "--no-steal"]) == 0
        assert self._configs(capsys.readouterr().out) == serial

    def test_steal_is_the_parser_default(self):
        assert build_parser().parse_args(["exhaustive"]).steal is True
        assert build_parser().parse_args(
            ["exhaustive", "--no-steal"]).steal is False

    def test_no_steal_spill(self, capsys, tmp_path):
        # --no-steal is the pool at depth 1, so it takes --spill too.
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        assert main(["exhaustive", "--scope", "counter", "--jobs", "2",
                     "--no-steal", "--spill", str(spill_dir)]) == 0
        assert self._configs(capsys.readouterr().out) == "50"
        assert not list(spill_dir.iterdir())  # scratch cleaned up

    def test_no_steal_heartbeat_log(self, capsys, tmp_path):
        from repro.obs.heartbeat import HEARTBEAT_SCHEMA

        hb_log = tmp_path / "heartbeat.jsonl"
        assert main(["exhaustive", "--scope", "counter", "--jobs", "2",
                     "--no-steal", "--heartbeat-log", str(hb_log)]) == 0
        capsys.readouterr()
        header, *records = [json.loads(line)
                            for line in hb_log.read_text().splitlines()]
        assert header["schema"] == HEARTBEAT_SCHEMA
        assert records
        assert all(record["task"].startswith("Counter:")
                   for record in records)

    @pytest.mark.parametrize(
        "argv",
        [["--store", "counter:1", "--jobs", "2"],
         ["--store", "counter:1,orset:1"],
         ["--store", "counter:1", "--independent-clocks"]],
        ids=["one-group-pool", "serial-store", "product"],
    )
    def test_store_heartbeat_log(self, capsys, tmp_path, argv):
        # The store's per-object runs take the heartbeat flags at every
        # --jobs value and object count, not only in a multi-group pool,
        # and so does the whole-store product run of a store without
        # shared timestamps.
        from repro.obs.heartbeat import HEARTBEAT_SCHEMA

        hb_log = tmp_path / "heartbeat.jsonl"
        assert main(["exhaustive", *argv,
                     "--heartbeat-log", str(hb_log)]) == 0
        capsys.readouterr()
        header, *records = [json.loads(line)
                            for line in hb_log.read_text().splitlines()]
        assert header["schema"] == HEARTBEAT_SCHEMA
        assert records
        tasks = {record["task"] for record in records}
        if "--independent-clocks" in argv:
            assert tasks == {"store[counter:1]"}
        else:
            assert {task.split(":")[0] for task in tasks} \
                <= {"Counter", "OR-Set"}

    def test_no_steal_store_batch_matches_serial(self, capsys):
        def rows(out):
            return [line.split()[:3] for line in out.splitlines()
                    if line.startswith(("counter", "or_set", "verdict"))]

        assert main(["exhaustive", "--store", "counter:1,orset:1"]) == 0
        serial = rows(capsys.readouterr().out)
        assert main(["exhaustive", "--store", "counter:1,orset:1",
                     "--jobs", "2", "--no-steal"]) == 0
        assert rows(capsys.readouterr().out) == serial
        assert len(serial) == 3

    def test_spill_serial_round_trip(self, capsys, tmp_path):
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        path = str(tmp_path / "metrics.json")
        assert main(["exhaustive", "--scope", "counter",
                     "--spill", str(spill_dir), "--metrics", path]) == 0
        capsys.readouterr()
        artifact = json.loads(open(path).read())
        instruments = artifact["metrics"]["instruments"]
        assert "explore.fp_store.lookups{entry=Counter}" in instruments
        assert not list(spill_dir.iterdir())  # scratch cleaned up

        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "scheduler (parallel pool / fingerprint store):" in out
        assert "fp-store lookups" in out
        assert "fp-store hit ratio" in out

    def test_stats_renders_scheduler_counters(self, real_workers, capsys,
                                              tmp_path):
        # A real pool run, written through the artifact round trip:
        # `repro stats` must surface the scheduler digest.
        from repro.obs import Instrumentation
        from repro.obs.instrument import write_artifact
        from repro.proofs import entry_by_name, exhaustive_verify_steal
        from repro.proofs.exhaustive import standard_programs

        ins = Instrumentation.on()
        entry = entry_by_name("Counter")
        exhaustive_verify_steal(
            entry, standard_programs(entry), jobs=2, instrumentation=ins,
        )
        path = str(tmp_path / "steal.json")
        write_artifact(path, ins, "exhaustive", {})
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "scheduler (parallel pool / fingerprint store):" in out
        assert "frontier depth" in out
        assert "frontier tasks" in out
        assert "workers" in out
        assert "idle-wait seconds" in out


class TestComposedStoreCLI:
    def test_store_compositional(self, capsys):
        assert main(["exhaustive", "--store", "counter:1,orset:1"]) == 0
        out = capsys.readouterr().out
        assert "Compositional store verification" in out
        assert "counter" in out and "or_set" in out
        assert "side condition" in out
        assert "verdict: ok (compositional)" in out

    def test_store_unknown_object(self, capsys):
        assert main(["exhaustive", "--store", "nope:2"]) == 2
        err = capsys.readouterr().err
        assert "unknown store object" in err and "or_set" in err

    def test_store_parallel_matches_serial(self, capsys):
        assert main(["exhaustive", "--store", "counter:1,orset:1"]) == 0
        serial = capsys.readouterr().out
        assert main(["exhaustive", "--store", "counter:1,orset:1",
                     "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        def pick(text, key):
            # object / entry / configs / verdict — wall time jitters.
            row = next(
                l for l in text.splitlines() if l.startswith(key)
            ).split()
            return row[:3] + row[4:]

        assert pick(serial, "counter") == pick(parallel, "counter")
        assert pick(serial, "or_set") == pick(parallel, "or_set")
        serial_verdict = next(
            l for l in serial.splitlines() if l.startswith("verdict")
        )
        parallel_verdict = next(
            l for l in parallel.splitlines() if l.startswith("verdict")
        )
        assert serial_verdict.split(",")[:2] == parallel_verdict.split(",")[:2]

    def test_store_independent_clocks_takes_product_route(self, capsys):
        assert main(["exhaustive", "--store", "counter:1",
                     "--independent-clocks"]) == 0
        out = capsys.readouterr().out
        assert "product" in out and "verdict: ok (product)" in out

    def test_store_metrics_stats_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "compose.json")
        assert main(["exhaustive", "--store", "counter:1,orset:1",
                     "--metrics", path]) == 0
        capsys.readouterr()
        artifact = json.loads(open(path).read())
        counters = artifact["counters"]
        key = "compose.objects{mode=compositional,store=counter:1,or_set:1}"
        assert counters[key] == 2
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "composition (per-object proof rule):" in out
        assert "side-condition checks" in out

    def test_table_has_composed_row(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        assert "Composed ⊗ts store" in out
