"""``repro stats`` must render artifacts from any repo vintage (S1).

Older metrics artifacts predate whole metric families (steal, fp-store,
DPOR) and even individual dump fields.  ``format_metrics`` must
degrade gracefully — ``-`` for missing values, explicit ``(absent)``
rows for missing families — never crash.
"""

from repro.obs.instrument import ARTIFACT_SCHEMA
from repro.proofs.report import format_metrics


def _artifact(instruments):
    return {
        "schema": ARTIFACT_SCHEMA,
        "command": "exhaustive",
        "metrics": {"schema": "repro.metrics/1", "instruments": instruments},
        "counters": {},
        "events": [],
    }


def test_sparse_instrument_dumps_do_not_crash():
    rendered = format_metrics(_artifact({
        "verify.configurations{entry=X}": {
            "name": "verify.configurations", "deterministic": True,
            "kind": "counter",  # no value field
        },
        "no.kind.at.all": {"name": "no.kind.at.all", "value": 3},
        "gauge.no.policy": {"kind": "gauge", "name": "gauge.no.policy",
                            "value": 7},
        "hist.sparse": {"kind": "histogram", "name": "hist.sparse"},
    }))
    assert "verify.configurations{entry=X}" in rendered
    assert "-" in rendered  # missing value renders as a dash
    assert "(?)" in rendered  # missing gauge policy
    assert "hist.sparse" in rendered


def test_pre_observatory_artifact_names_absent_families():
    # An artifact with engine counters but none of the newer families
    # (PR-5 vintage): every family row must say (absent).
    rendered = format_metrics(_artifact({
        "explore.states_visited{kind=op}": {
            "kind": "counter", "name": "explore.states_visited",
            "labels": {"kind": "op"}, "deterministic": False, "value": 42,
        },
    }))
    for label in ("parallel pool", "fingerprint store", "source-DPOR"):
        assert f"{label:<52} {'(absent)':>12}" in rendered


def test_present_family_is_not_marked_absent():
    rendered = format_metrics(_artifact({
        "explore.steal.tasks{entry=X}": {
            "kind": "counter", "name": "explore.steal.tasks",
            "labels": {"entry": "X"}, "deterministic": False, "value": 3,
        },
    }))
    assert "frontier tasks" in rendered
    lines = [line for line in rendered.splitlines() if "(absent)" in line]
    assert len(lines) == 2  # fp-store, dpor — but not the pool
    assert not any("parallel pool" in line for line in lines)


def test_artifact_without_explore_metrics_skips_scheduler_digest():
    rendered = format_metrics(_artifact({
        "check.checks{entry=X}": {
            "kind": "counter", "name": "check.checks",
            "labels": {"entry": "X"}, "deterministic": False, "value": 9,
        },
    }))
    assert "scheduler" not in rendered
    assert "(absent)" not in rendered


def test_empty_artifact_renders_header_and_event_count():
    rendered = format_metrics({})
    assert rendered.splitlines()[0].startswith("metrics artifact")
    assert rendered.splitlines()[-1] == "trace events: 0"
