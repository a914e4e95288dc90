"""The bench regression gate (:mod:`repro.obs.benchdiff`)."""

import json

import pytest

from repro.obs.benchdiff import (
    DEFAULT_TOLERANCE,
    bench_diff_paths,
    classify,
    diff_benches,
    format_bench_diff,
)


class TestClassify:
    @pytest.mark.parametrize("name", [
        "configurations", "distinct_configurations", "naive_configurations",
        "checks", "orbits", "verdicts", "states_visited", "unique_digests",
        "symmetry_group", "fast_configurations", "spilled_states",
    ])
    def test_exact(self, name):
        assert classify(name) == "exact"

    @pytest.mark.parametrize("name", [
        "seconds", "wall_seconds", "naive_seconds", "peak_mib",
    ])
    def test_time(self, name):
        assert classify(name) == "time"

    @pytest.mark.parametrize("name", [
        "speedup", "configs_per_sec", "op_based_speedup", "overall_speedup",
        "modeled_speedup", "hit_ratio", "orbit_reduction", "steal_speedup",
    ])
    def test_rate(self, name):
        assert classify(name) == "rate"

    @pytest.mark.parametrize("name", ["scope", "evictions", "jobs", "notes"])
    def test_info(self, name):
        assert classify(name) == "info"


def _rows_by_path(rows):
    return {row.path: row for row in rows}


class TestDiff:
    def test_self_compare_is_all_ok(self):
        doc = {"entries": {"Counter": {"configurations": 10,
                                       "seconds": 1.0, "speedup": 2.0}}}
        rows = diff_benches(doc, doc)
        assert all(row.status == "ok" for row in rows)
        assert not any(row.gating for row in rows)

    def test_exact_divergence_gates(self):
        old = {"s": {"distinct_configurations": 100}}
        new = {"s": {"distinct_configurations": 101}}
        row = diff_benches(old, new)[0]
        assert row.status == "regression" and row.gating
        assert "regenerate the baseline" in row.detail

    def test_time_regression_respects_tolerance(self):
        old = {"s": {"wall_seconds": 1.0}}
        within = {"s": {"wall_seconds": 1.0 + DEFAULT_TOLERANCE - 0.01}}
        beyond = {"s": {"wall_seconds": 2.0}}
        assert diff_benches(old, within)[0].status == "ok"
        assert diff_benches(old, beyond)[0].status == "regression"
        assert diff_benches(old, {"s": {"wall_seconds": 0.1}})[0].status \
            == "improved"

    def test_rate_regression_is_symmetric_to_time(self):
        old = {"s": {"speedup": 4.0}}
        assert diff_benches(old, {"s": {"speedup": 1.0}})[0].status \
            == "regression"
        assert diff_benches(old, {"s": {"speedup": 8.0}})[0].status \
            == "improved"
        assert diff_benches(old, {"s": {"speedup": 3.5}})[0].status == "ok"

    def test_tolerance_override(self):
        old = {"s": {"wall_seconds": 1.0}}
        new = {"s": {"wall_seconds": 1.2}}
        assert diff_benches(old, new)[0].status == "ok"  # 20% < 30%
        assert diff_benches(old, new, tolerance=0.1)[0].status == "regression"

    def test_missing_in_new_warns_without_gating(self):
        rows = diff_benches({"s": {"wall_seconds": 1.0}}, {})
        row = _rows_by_path(rows)["s"]
        assert row.status == "missing" and not row.gating

    def test_added_in_new_is_informational(self):
        rows = diff_benches({}, {"s": {"wall_seconds": 1.0}})
        assert _rows_by_path(rows)["s"].status == "added"

    def test_info_changes_never_gate(self):
        rows = diff_benches({"s": {"scope": "2 replicas"}},
                            {"s": {"scope": "3 replicas"}})
        row = rows[0]
        assert row.status == "changed" and not row.gating

    def test_non_numeric_exact_change_gates(self):
        rows = diff_benches({"s": {"verdicts": ["ok", "ok"]}},
                            {"s": {"verdicts": ["ok", "FAIL"]}})
        assert rows[0].status == "regression"


class TestSections:
    OLD = {"dpor_3r": {"speedup": 2.0},
           "steal_3r": {"wall_seconds": 1.0},
           "compose_3r": {"configurations": 490}}

    def test_only_named_sections_are_compared(self):
        new = {"dpor_3r": {"speedup": 2.0},
               "steal_3r": {"wall_seconds": 99.0},  # would gate unfiltered
               "compose_3r": {"configurations": 490}}
        rows = diff_benches(self.OLD, new,
                            sections=["dpor_3r", "compose_3r"])
        assert not any(row.gating for row in rows)
        assert all(row.path.startswith(("dpor_3r", "compose_3r"))
                   for row in rows)

    def test_regression_inside_named_section_still_gates(self):
        new = dict(self.OLD, dpor_3r={"speedup": 1.0})
        rows = diff_benches(self.OLD, new, sections=["dpor_3r"])
        assert any(row.gating for row in rows)

    def test_section_dropped_from_new_gates(self):
        new = {"dpor_3r": {"speedup": 2.0}}
        rows = diff_benches(self.OLD, new,
                            sections=["dpor_3r", "compose_3r"])
        row = _rows_by_path(rows)["compose_3r"]
        assert row.status == "regression" and row.gating
        assert "absent from NEW" in row.detail

    def test_section_new_in_new_is_added(self):
        old = {"dpor_3r": {"speedup": 2.0}}
        rows = diff_benches(old, self.OLD,
                            sections=["dpor_3r", "compose_3r"])
        assert _rows_by_path(rows)["compose_3r"].status == "added"

    def test_unknown_section_raises(self):
        with pytest.raises(ValueError, match="unknown bench section"):
            diff_benches(self.OLD, self.OLD, sections=["typo_3r"])


class TestReport:
    def test_report_leads_with_regressions(self):
        old = {"a": {"wall_seconds": 1.0}, "b": {"scope": "x"}}
        new = {"a": {"wall_seconds": 9.0}, "b": {"scope": "y"}}
        report = format_bench_diff(diff_benches(old, new), "OLD", "NEW")
        lines = report.splitlines()
        assert lines[0] == "bench diff: OLD -> NEW"
        body = [line for line in lines if line.startswith("  [")]
        assert "regression" in body[0]
        assert report.splitlines()[-1].startswith("  verdict: REGRESSION")

    def test_clean_report_verdict_ok(self):
        doc = {"a": {"wall_seconds": 1.0}}
        report = format_bench_diff(diff_benches(doc, doc), "OLD", "NEW")
        assert report.splitlines()[-1] == "  verdict: ok (0 gating)"


class TestPaths:
    def test_self_compare_exits_zero(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"s": {"configurations": 5}}))
        report, code = bench_diff_paths(str(path), str(path))
        assert code == 0 and "verdict: ok" in report

    def test_injected_regression_exits_nonzero(self, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(
            {"s": {"distinct_configurations": 100, "wall_seconds": 1.0}}))
        new.write_text(json.dumps(
            {"s": {"distinct_configurations": 100, "wall_seconds": 5.0}}))
        report, code = bench_diff_paths(str(old), str(new))
        assert code == 1 and "verdict: REGRESSION (1 gating)" in report

    def test_unreadable_json_raises_for_cli_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):  # JSONDecodeError subclasses it
            bench_diff_paths(str(bad), str(bad))

    def test_real_committed_baselines_self_compare(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[2]
        path = str(root / "BENCH_explore.json")
        report, code = bench_diff_paths(path, path)
        assert code == 0, report
