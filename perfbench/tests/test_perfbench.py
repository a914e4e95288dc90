"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import harness
import layertrace
import run
import scopes

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("registry_2r", "sym_3r", "sym_3r_jobs2", "skew_4r_spill")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def table():
    return harness.load_reference()


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_scopes(workload):
    assert scopes.generate(workload, 7) == scopes.generate(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seeds_give_other_scopes_of_the_same_shape(workload):
    draws = [scopes.generate(workload, seed) for seed in range(10)]
    assert len({tuple(s.key for s in d) for d in draws}) > 1
    assert all(scopes.shape(d) == scopes.shape(draws[0]) for d in draws)


def test_sym_workloads_share_their_scopes():
    for seed in range(5):
        assert (scopes.generate("sym_3r", seed)
                == scopes.generate("sym_3r_jobs2", seed))


def test_registry_covers_every_entry_mutant_and_the_store():
    drawn = scopes.generate("registry_2r", 3)
    entries = {s.name for s in drawn if s.kind == "entry"}
    assert entries == set(scopes.REGISTRY) and len(entries) == 14
    assert sum(s.kind == "entry" for s in drawn) >= 100
    assert sum(s.kind == "mutant" for s in drawn) == 6
    assert [s.name for s in drawn if s.kind == "store"] == [
        scopes.STORE_SPEC]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_replica_runs_an_update(workload):
    for seed in range(5):
        for scope in scopes.generate(workload, seed):
            if scope.kind == "mutant":
                continue  # the catalogue's standard programs
            for ops in scope.programs.values():
                assert any(op[0] != "read" for op in ops), scope.key


def test_fresh_names_are_never_shared_between_replicas():
    for scope in scopes.universe("registry_2r"):
        if scope.name not in scopes.FRESH:
            continue
        added = [
            {op[1][1] if op[0] == "addBetween" else
             op[1][-1] if op[0] == "addAfter" else op[1][0]
             for op in ops if op[0] != "read" and op[0] != "remove"}
            for ops in scope.programs.values()
        ]
        assert not added[0] & added[1], scope.key


# ----------------------------------------------------------------------
# Reference verdicts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_covers_every_generable_scope(workload, table):
    for scope in scopes.universe(workload):
        assert scope.key in table, scope.key
    for seed in range(20):
        for scope in scopes.generate(workload, seed):
            harness.expected(scope, table)


def test_every_registry_reference_is_ra_linearizable(table):
    for scope in scopes.universe("registry_2r"):
        ok, configurations = harness.expected(scope, table)
        assert configurations > 0
        if scope.kind == "entry":
            assert ok and table[scope.key][0], scope.key
        else:
            assert table[scope.key][0] == harness.MUTANT_VERDICTS[scope.name]
    assert sum(not ok for ok in harness.MUTANT_VERDICTS.values()) == 5


def test_registry_cells_hold_one_configuration_count(table):
    for entry in scopes.REGISTRY:
        for cell in scopes.registry_cells(entry):
            counts = {table[scopes.Scope("entry", entry, p).key][1]
                      for p in cell}
            assert len(counts) == 1, (entry, counts)


def test_generated_registry_scopes_verify(table):
    options = harness.cli_options()
    for scope in scopes.generate("registry_2r", 0):
        result = harness.verify(scope, options)
        assert not harness.is_wrong(scope, result, table), scope.key


def test_store_reference_is_the_sum_of_its_projections(table):
    store = scopes.generate("registry_2r", 5)[-1]
    ok, total = harness.expected(store, table)
    parts = [table[scopes.Scope("entry", entry,
                                scopes.project(store, obj)).key][1]
             for obj, entry in scopes.STORE_OBJECTS]
    assert ok and total == sum(parts)


def test_wrong_reference_count_is_a_wrong_verdict():
    bench_run = run.Run("registry_2r", 0)
    scope = bench_run.scopes[0]
    bench_run.verdict(scope)
    assert (bench_run.attempted, bench_run.failed) == (1, 0)
    bench_run.table = dict(bench_run.table)
    ok, configurations = bench_run.table[scope.key]
    bench_run.table[scope.key] = [ok, configurations + 1]
    bench_run.verdict(scope)
    assert (bench_run.attempted, bench_run.failed) == (2, 1)


def test_options_come_from_the_cli_parser():
    from repro.__main__ import build_parser

    defaults = build_parser().parse_args(["exhaustive"])
    options = harness.cli_options()
    assert options["por"] == defaults.por
    assert options["steal"] == defaults.steal
    assert options["symmetry"] is None


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def test_self_time_subtracts_what_children_cover():
    layers = ["verdict", "a", "b", "c"]
    #          root      a under root, b under a, c under root
    layer = [0, 1, 2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    own, calls, total = layertrace.self_times(layers, layer, parent,
                                              start, end)
    assert own == pytest.approx({"verdict": 6.0, "a": 2.0, "b": 1.0,
                                 "c": 1.0})
    assert calls == {"verdict": 1, "a": 1, "b": 1, "c": 1}
    assert total == pytest.approx({"verdict": 10.0, "a": 3.0, "b": 1.0,
                                   "c": 1.0})


def test_tracer_records_parents_and_scopes():
    tracer = layertrace.Tracer()
    inner = tracer.wrap(lambda: 1, "inner")
    outer = tracer.wrap(lambda: inner() + inner(), "outer")
    tracer.scope_id = 4
    assert outer() == 2
    names = [tracer.layers[i] for i in tracer.layer]
    assert names == ["outer", "inner", "inner"]
    assert tracer.layers[tracer.root] == layertrace.ROOT
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.scope) == [4, 4, 4]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    assert tracer.stack == [-1]


def test_install_wraps_and_uninstall_restores():
    from repro.core.ralin import RACheckContext
    from repro.proofs import exhaustive

    before = (exhaustive.exhaustive_verify, RACheckContext.check)
    tracer = layertrace.Tracer()
    uninstall = layertrace.install(tracer)
    try:
        assert exhaustive.exhaustive_verify is not before[0]
        assert RACheckContext.check is not before[1]
    finally:
        uninstall()
    assert (exhaustive.exhaustive_verify, RACheckContext.check) == before


def test_traced_verdict_attributes_every_layer(table):
    options = harness.cli_options()
    scope = scopes.generate("registry_2r", 0)[0]
    tracer = layertrace.Tracer()
    uninstall = layertrace.install(tracer)
    try:
        span = tracer.begin(tracer.root)
        result = harness.verify(scope, options)
        tracer.finish(span)
    finally:
        uninstall()
    assert not harness.is_wrong(scope, result, table)
    times = tracer.self_times()
    own, calls, _ = times
    for layer in ("exhaustive", "explore_engine", "system.apply",
                  "system.snapshot", "ralin", "convergence"):
        assert calls.get(layer, 0) > 0, layer
    metrics = layertrace.layer_metrics(tracer, times, [result], [result],
                                       1.0, 1.0)
    assert set(metrics) == set(layertrace.LAYER_MAP)
    assert metrics["explore_engine.states"] == result.stats.states_visited
    assert metrics["trace.unattributed_share"] < 0.5


# ----------------------------------------------------------------------
# The benchmark's contract
# ----------------------------------------------------------------------


def test_metric_names_and_units_are_well_formed(bench):
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [
        w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def test_benchmark_lists_exactly_the_emitted_metrics(bench):
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {name: unit for name, (unit, _, _)
                         in layertrace.LAYER_MAP.items()}
    assert [m["name"] for m in bench["end_to_end"]] == [
        "configs_per_s", "verdict_s_p50", "verdict_s_p90", "peak_rss_mib",
        "setup_s"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry_2r",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
