"""Unit tests for repro.patterns.matching (Definitions 4–5)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.log.events import Trace
from repro.log.eventlog import EventLog
from repro.patterns.ast import and_, event, seq
from repro.patterns import matching
from repro.patterns.matching import (
    PatternFrequencyEvaluator,
    cached_allowed_orders,
    clear_orders_cache,
    pattern_frequency,
    trace_matches,
)


class TestOrdersCache:
    def test_clear_orders_cache_empties_it(self):
        clear_orders_cache()
        cached_allowed_orders(seq("A", "B"))
        assert len(matching._orders_cache) == 1
        clear_orders_cache()
        assert len(matching._orders_cache) == 0

    def test_cache_is_bounded(self, monkeypatch):
        # Regression: the process-wide cache used to grow without limit
        # across unrelated logs and test runs.
        clear_orders_cache()
        monkeypatch.setattr(matching, "ORDERS_CACHE_MAX", 3)
        patterns = [seq("A", str(i)) for i in range(5)]
        for pattern in patterns:
            cached_allowed_orders(pattern)
        assert len(matching._orders_cache) == 3
        # The most recent entries survive FIFO eviction.
        assert patterns[-1] in matching._orders_cache
        assert patterns[0] not in matching._orders_cache
        clear_orders_cache()

    def test_eviction_does_not_change_results(self, monkeypatch):
        clear_orders_cache()
        monkeypatch.setattr(matching, "ORDERS_CACHE_MAX", 1)
        first = cached_allowed_orders(and_("A", "B"))
        cached_allowed_orders(seq("C", "D"))
        assert cached_allowed_orders(and_("A", "B")) == first
        clear_orders_cache()


class TestTraceMatches:
    def test_single_event(self):
        assert trace_matches(Trace("XAY"), event("A"))
        assert not trace_matches(Trace("XY"), event("A"))

    def test_seq_requires_contiguity(self):
        pattern = seq("A", "B")
        assert trace_matches(Trace("XABY"), pattern)
        assert not trace_matches(Trace("AXB"), pattern)

    def test_and_accepts_both_orders(self):
        pattern = and_("A", "B")
        assert trace_matches(Trace("XABY"), pattern)
        assert trace_matches(Trace("XBAY"), pattern)
        assert not trace_matches(Trace("AXB"), pattern)

    def test_paper_example_2(self):
        pattern = seq("A", and_("B", "C"), "D")
        assert trace_matches(Trace("ABCDE"), pattern)
        assert trace_matches(Trace("ACBDF"), pattern)
        assert not trace_matches(Trace("ABDCE"), pattern)
        assert not trace_matches(Trace("AXBCD"), pattern)


class TestPatternFrequency:
    def test_counts_matching_traces(self):
        log = EventLog(["ABD", "AB", "BA", "XY"])
        assert pattern_frequency(log, seq("A", "B")) == 0.5

    def test_trace_counted_once_despite_repeats(self):
        log = EventLog(["ABAB"])
        assert pattern_frequency(log, seq("A", "B")) == 1.0

    def test_empty_log(self):
        assert pattern_frequency(EventLog([]), event("A")) == 0.0

    def test_vertex_pattern_equals_vertex_frequency(self):
        log = EventLog(["AB", "B", "CA"])
        assert pattern_frequency(log, event("A")) == log.vertex_frequency("A")

    def test_edge_pattern_equals_edge_frequency(self):
        log = EventLog(["AB", "AXB", "BA"])
        assert pattern_frequency(log, seq("A", "B")) == log.edge_frequency(
            "A", "B"
        )


class TestEvaluator:
    @pytest.fixture
    def log(self):
        return EventLog(["ABCD", "ACBD", "ABD", "DCBA"])

    def test_matches_one_shot_function(self, log):
        evaluator = PatternFrequencyEvaluator(log)
        for pattern in (event("A"), seq("A", "B"), seq("A", and_("B", "C"), "D")):
            assert evaluator.frequency(pattern) == pattern_frequency(log, pattern)

    def test_memoization_skips_repeat_scans(self, log):
        evaluator = PatternFrequencyEvaluator(log)
        pattern = seq("A", and_("B", "C"), "D")
        evaluator.frequency(pattern)
        scans = evaluator.evaluations
        evaluator.frequency(pattern)
        assert evaluator.evaluations == scans

    def test_structurally_equal_patterns_share_cache(self, log):
        evaluator = PatternFrequencyEvaluator(log)
        evaluator.frequency(seq("A", "B"))
        scans = evaluator.evaluations
        evaluator.frequency(seq("A", "B"))
        assert evaluator.evaluations == scans

    def test_mapped_frequency_equals_renamed_frequency(self, log):
        other = EventLog(["1234", "1324", "124"])
        evaluator = PatternFrequencyEvaluator(other)
        mapping = {"A": "1", "B": "2", "C": "3", "D": "4"}
        pattern = seq("A", and_("B", "C"), "D")
        assert evaluator.mapped_frequency(pattern, mapping) == pattern_frequency(
            other, pattern.rename(mapping)
        )

    def test_unindexed_mode_agrees_with_indexed(self, log):
        indexed = PatternFrequencyEvaluator(log)
        unindexed = PatternFrequencyEvaluator(log, use_index=False)
        for pattern in (event("C"), seq("B", "D"), and_("B", "C")):
            assert indexed.frequency(pattern) == unindexed.frequency(pattern)

    def test_clear_cache_forces_rescan(self, log):
        evaluator = PatternFrequencyEvaluator(log)
        evaluator.frequency(event("A"))
        scans = evaluator.evaluations
        evaluator.clear_cache()
        evaluator.frequency(event("A"))
        assert evaluator.evaluations == scans + 1


class TestFrequencyProperties:
    @given(
        st.lists(
            st.lists(st.sampled_from(list("ABCD")), min_size=1, max_size=8),
            min_size=1,
            max_size=15,
        )
    )
    def test_and_frequency_at_least_each_seq_order(self, traces):
        # AND(B, C) matches whenever SEQ(B, C) does.
        log = EventLog(traces)
        assert pattern_frequency(log, and_("B", "C")) >= pattern_frequency(
            log, seq("B", "C")
        )

    @given(
        st.lists(
            st.lists(st.sampled_from(list("ABCD")), min_size=1, max_size=8),
            min_size=1,
            max_size=15,
        )
    )
    def test_longer_pattern_never_more_frequent(self, traces):
        # SEQ(A, B, C) matches only traces that SEQ(A, B) also matches.
        log = EventLog(traces)
        assert pattern_frequency(log, seq("A", "B", "C")) <= pattern_frequency(
            log, seq("A", "B")
        )
