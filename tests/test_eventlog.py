"""Unit tests for repro.log.eventlog."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.log.events import Trace
from repro.log.eventlog import EventLog

log_strategy = st.lists(
    st.lists(st.sampled_from(list("ABCD")), min_size=1, max_size=8),
    min_size=1,
    max_size=20,
).map(EventLog)


@pytest.fixture
def sample_log():
    return EventLog(
        [
            Trace("ABCD"),
            Trace("ACBD"),
            Trace("ABD"),
            Trace("AD"),
        ],
        name="sample",
    )


class TestConstruction:
    def test_promotes_plain_sequences(self):
        log = EventLog([["A", "B"], "CD"])
        assert log[0] == Trace("AB")
        assert log[1] == Trace("CD")

    def test_len_and_iteration(self, sample_log):
        assert len(sample_log) == 4
        assert [len(t) for t in sample_log] == [4, 4, 3, 2]

    def test_equality(self):
        assert EventLog(["AB"]) == EventLog(["AB"])
        assert EventLog(["AB"]) != EventLog(["BA"])


class TestAlphabet:
    def test_alphabet(self, sample_log):
        assert sample_log.alphabet() == frozenset("ABCD")

    def test_first_appearance_order(self):
        log = EventLog(["BAC", "DB"])
        assert log.events_in_first_appearance_order() == ["B", "A", "C", "D"]


class TestFrequencies:
    def test_vertex_frequency_counts_traces_not_occurrences(self):
        log = EventLog(["AA", "B"])
        assert log.vertex_frequency("A") == 0.5

    def test_vertex_frequency(self, sample_log):
        assert sample_log.vertex_frequency("A") == 1.0
        assert sample_log.vertex_frequency("B") == 0.75
        assert sample_log.vertex_frequency("C") == 0.5

    def test_unknown_event_has_zero_frequency(self, sample_log):
        assert sample_log.vertex_frequency("Z") == 0.0

    def test_edge_frequency(self, sample_log):
        assert sample_log.edge_frequency("A", "B") == 0.5
        assert sample_log.edge_frequency("C", "D") == 0.25
        assert sample_log.edge_frequency("D", "A") == 0.0

    def test_edge_counted_once_per_trace(self):
        log = EventLog(["ABAB"])
        assert log.edge_frequency("A", "B") == 1.0

    def test_edges_listing(self, sample_log):
        edges = sample_log.edges()
        assert ("A", "B") in edges
        assert ("A", "D") in edges
        assert ("D", "A") not in edges

    def test_empty_log_frequencies(self):
        log = EventLog([])
        assert log.vertex_frequency("A") == 0.0
        assert log.edge_frequency("A", "B") == 0.0

    @given(log_strategy)
    def test_frequencies_are_normalized(self, log):
        for event in log.alphabet():
            assert 0.0 < log.vertex_frequency(event) <= 1.0
        for source, target in log.edges():
            assert 0.0 < log.edge_frequency(source, target) <= 1.0


class TestProjections:
    def test_project_events_drops_other_events(self, sample_log):
        projected = sample_log.project_events({"A", "D"})
        assert projected.alphabet() == frozenset("AD")
        assert projected[0] == Trace("AD")

    def test_project_drops_empty_traces(self):
        log = EventLog(["AB", "CC"])
        assert len(log.project_events({"A", "B"})) == 1

    def test_take_traces(self, sample_log):
        assert len(sample_log.take_traces(2)) == 2
        assert sample_log.take_traces(0) == EventLog([])

    def test_take_traces_negative_rejected(self, sample_log):
        with pytest.raises(ValueError):
            sample_log.take_traces(-1)

    def test_rename_events(self):
        log = EventLog(["AB"]).rename_events({"A": "1", "B": "2"})
        assert log[0] == Trace(["1", "2"])

    @given(log_strategy, st.sets(st.sampled_from(list("ABCD"))))
    def test_projection_never_grows_frequencies_of_kept_events(self, log, keep):
        projected = log.project_events(keep)
        # Dropping traces can only happen when they are empty after
        # projection, so kept-event trace counts are unchanged; the
        # denominator can shrink, so frequencies may grow — but counts
        # must be identical.
        for event in keep & log.alphabet():
            count_before = sum(1 for t in log if event in t)
            count_after = sum(1 for t in projected if event in t)
            assert count_before == count_after


class TestTraceQueries:
    def test_count_traces_with_substring(self, sample_log):
        assert sample_log.count_traces_with_any_substring([("A", "B")]) == 2
        assert sample_log.count_traces_with_any_substring([("A", "D")]) == 1

    def test_variant_counts(self):
        log = EventLog(["AB", "AB", "BA"])
        variants = log.variant_counts()
        assert variants[("A", "B")] == 2
        assert variants[("B", "A")] == 1
