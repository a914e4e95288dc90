"""Per-condition timing and failure classification (the ``timed`` hook).

``check_update_order`` optionally accumulates wall seconds per Def. 3.5
condition and tags every failing :class:`RAResult` with the condition
that rejected the candidate; :class:`RACheckContext` exposes both through
``CheckStats`` when constructed ``timed=True``.
"""

import dataclasses
import operator

from repro.core.history import History
from repro.core.label import Label
from repro.core.ralin import CheckStats, RACheckContext, check_update_order
from repro.specs import CounterSpec


def _counter_history(ret):
    inc = Label("inc")
    read = Label("read", ret=ret)
    history = History([inc, read], [(inc, read)])
    return history, [inc, read]


class TestConditionClassification:
    def test_success_has_no_condition(self):
        history, order = _counter_history(1)
        result = check_update_order(history, CounterSpec(), order[:1])
        assert result.ok and result.condition is None

    def test_cover_failure(self):
        history, _ = _counter_history(1)
        result = check_update_order(history, CounterSpec(), [])
        assert not result.ok and result.condition == "cover"

    def test_visibility_failure(self):
        a, b = Label("inc"), Label("inc")
        history = History([a, b], [(a, b)])
        result = check_update_order(history, CounterSpec(), [b, a])
        assert not result.ok and result.condition == "i"

    def test_query_justification_failure(self):
        history, order = _counter_history(7)  # one inc cannot read 7
        result = check_update_order(history, CounterSpec(), order[:1])
        assert not result.ok and result.condition == "iii"


class TestTimings:
    def test_timings_accumulate_all_conditions(self):
        history, order = _counter_history(1)
        timings = {}
        result = check_update_order(history, CounterSpec(), order[:1],
                                    timings=timings)
        assert result.ok
        assert set(timings) == {"i", "ii", "iii"}
        assert all(seconds >= 0.0 for seconds in timings.values())

    def test_none_means_no_timing(self):
        history, order = _counter_history(1)
        result = check_update_order(history, CounterSpec(), order[:1])
        assert result.ok  # and no timings dict was required

    def test_timings_stop_at_failing_condition(self):
        history, _ = _counter_history(1)
        timings = {}
        a, b = Label("inc"), Label("inc")
        bad = History([a, b], [(a, b)])
        result = check_update_order(bad, CounterSpec(), [b, a],
                                    timings=timings)
        assert result.condition == "i"
        assert "i" in timings and "iii" not in timings


class TestTimedContext:
    def test_cond_seconds_populated_when_timed(self):
        ctx = RACheckContext(CounterSpec(), lin_class="EO", timed=True)
        history, order = _counter_history(1)
        assert ctx.check(history, order).ok
        assert set(ctx.stats.cond_seconds) >= {"ii", "iii"}

    def test_untimed_context_stays_empty(self):
        ctx = RACheckContext(CounterSpec(), lin_class="EO")
        history, order = _counter_history(1)
        assert ctx.check(history, order).ok
        assert ctx.stats.cond_seconds == {}

    def test_failed_conditions_counted(self):
        ctx = RACheckContext(CounterSpec(), lin_class="EO")
        history, order = _counter_history(9)
        assert not ctx.check(history, order).ok
        assert ctx.stats.failed_conditions == {"iii": 1}

    def test_memoized_failures_keep_counting(self):
        ctx = RACheckContext(CounterSpec(), lin_class="EO")
        h1, o1 = _counter_history(9)
        h2, o2 = _counter_history(9)  # isomorphic: memo hit
        assert not ctx.check(h1, o1).ok
        assert not ctx.check(h2, o2).ok
        assert ctx.stats.verdict_hits == 1
        assert ctx.stats.failed_conditions == {"iii": 2}

    def test_frontier_counters_mirrored(self):
        ctx = RACheckContext(CounterSpec(), lin_class="EO")
        history, order = _counter_history(1)
        ctx.check(history, order)
        assert ctx.stats.frontier_nodes == len(ctx.frontiers)
        assert ctx.stats.frontier_unattached == ctx.frontiers.unattached


class TestMerge:
    def test_merge_rules(self):
        """``frontier_nodes`` merges by ``max``, the per-condition dicts
        key by key, and every other counter sums — in either order, with
        a distinct value in every field, so a field merged by another
        rule, or not at all, shows up."""
        dicts = {"cond_seconds", "failed_conditions"}
        names = [f.name for f in dataclasses.fields(CheckStats)
                 if f.name not in dicts]
        small = {name: i + 1 for i, name in enumerate(names)}
        large = {name: 100 * (i + 1) for i, name in enumerate(names)}
        for first, second in ((small, large), (large, small)):
            merged = CheckStats(**first, cond_seconds={"i": 0.5, "ii": 1.0},
                                failed_conditions={"iii": 2})
            merged.merge(CheckStats(
                **second, cond_seconds={"ii": 2.0, "iii": 4.0},
                failed_conditions={"iii": 3, "cover": 1},
            ))
            for name in names:
                rule = max if name == "frontier_nodes" else operator.add
                assert getattr(merged, name) == rule(first[name],
                                                     second[name]), name
            assert merged.cond_seconds == {"i": 0.5, "ii": 3.0, "iii": 4.0}
            assert merged.failed_conditions == {"iii": 5, "cover": 1}
