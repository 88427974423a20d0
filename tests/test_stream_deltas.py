"""Property tests for repro.stream.deltas.

The safety invariant of the whole streaming subsystem: for *any* append
sequence, the incrementally maintained state — ``I_t`` postings,
dependency-graph vertex/edge counts, pattern frequencies — is identical
to a from-scratch batch rebuild over the same traces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dependency import dependency_graph
from repro.log.eventlog import EventLog
from repro.patterns.index import PatternIndex
from repro.patterns.matching import pattern_frequency
from repro.patterns.parser import parse_pattern
from repro.stream.deltas import DeltaState, DeltaVerificationError
from repro.stream.ingest import StreamingLog

#: A small pool of patterns over the test alphabet; every draw picks a
#: subset, so pattern-count maintenance is exercised with vertex, edge,
#: SEQ and AND shapes alike.
PATTERN_POOL = tuple(
    parse_pattern(text)
    for text in (
        "A",
        "D",
        "SEQ(A, B)",
        "SEQ(B, C)",
        "SEQ(A, B, C)",
        "AND(A, B)",
        "AND(B, C, D)",
        "SEQ(A, AND(B, C))",
        "SEQ(AND(A, D), C)",
    )
)

traces_strategy = st.lists(
    st.lists(st.sampled_from(list("ABCD")), min_size=1, max_size=8),
    min_size=1,
    max_size=25,
)
patterns_strategy = st.sets(
    st.sampled_from(PATTERN_POOL), min_size=1, max_size=5
).map(lambda drawn: sorted(drawn, key=repr))


def graphs_equal(left, right) -> bool:
    left_vertices = sorted(left.vertices())
    if left_vertices != sorted(right.vertices()):
        return False
    for vertex in left_vertices:
        if left.vertex_weight(vertex) != pytest.approx(
            right.vertex_weight(vertex)
        ):
            return False
    left_edges = sorted(left.edges())
    if left_edges != sorted(right.edges()):
        return False
    return all(
        left.edge_weight(source, target)
        == pytest.approx(right.edge_weight(source, target))
        for source, target in left_edges
    )


class TestIncrementalEqualsBatch:
    @settings(max_examples=60, deadline=None)
    @given(traces_strategy, patterns_strategy)
    def test_random_append_sequences(self, traces, patterns):
        stream = StreamingLog(name="prop")
        deltas = DeltaState(stream, patterns=patterns)
        for trace in traces:
            stream.append_trace(trace)

        batch_log = EventLog([list(t) for t in traces], name="batch")
        batch_index = batch_log.trace_index()

        # I_t postings
        for event in "ABCD":
            assert frozenset(
                stream.log.trace_index().postings(event)
            ) == frozenset(batch_index.postings(event))

        # Dependency graph (vertex + edge counts and frequencies)
        assert graphs_equal(
            dependency_graph(stream.log), dependency_graph(batch_log)
        )

        # Pattern frequencies
        for pattern in patterns:
            assert deltas.frequency(pattern) == pytest.approx(
                pattern_frequency(batch_log, pattern)
            )

        # The built-in cross-check agrees
        deltas.verify()

    @settings(max_examples=30, deadline=None)
    @given(traces_strategy, patterns_strategy)
    def test_mid_stream_tracking_backfills(self, traces, patterns):
        """Patterns registered after ingestion see the full backlog."""
        stream = StreamingLog()
        deltas = DeltaState(stream)
        split = len(traces) // 2
        for trace in traces[:split]:
            stream.append_trace(trace)
        deltas.track(patterns)
        for trace in traces[split:]:
            stream.append_trace(trace)

        batch_log = EventLog([list(t) for t in traces])
        for pattern in patterns:
            assert deltas.frequency(pattern) == pytest.approx(
                pattern_frequency(batch_log, pattern)
            )
        deltas.verify()


class TestVerify:
    def test_detects_corrupted_pattern_count(self):
        stream = StreamingLog(traces=["ABC", "AB"])
        # Three events: patterns this deep keep an eager commit-time
        # count (shorter ones are derived from kernel bitsets).
        pattern = parse_pattern("SEQ(A, B, C)")
        deltas = DeltaState(stream, patterns=[pattern])
        deltas.verify()
        deltas._counts[pattern] -= 1  # simulate a maintenance bug
        with pytest.raises(DeltaVerificationError, match="frequency diverged"):
            deltas.verify()

    def test_detects_out_of_sync_trace_index(self):
        stream = StreamingLog(traces=["ABC"])
        pattern = parse_pattern("SEQ(A, B, C)")
        deltas = DeltaState(stream, patterns=[pattern])
        # Bypass the stream's commit path: the log's index grows, but the
        # delta state never hears about this append and its commit-time
        # count falls behind — exactly the bug class verify() must catch.
        stream.log.append_trace("ABC")
        with pytest.raises(DeltaVerificationError, match="frequency diverged"):
            deltas.verify()

    def test_lifecycle_commits_equal_batch(self):
        stream = StreamingLog()
        pattern = parse_pattern("SEQ(A, B)")
        deltas = DeltaState(stream, patterns=[pattern])
        for case, events in (("c1", "AB"), ("c2", "BAB"), ("c3", "CA")):
            for event in events:
                stream.append_event(case, event)
            stream.close_trace(case)
        assert deltas.frequency(pattern) == pytest.approx(2 / 3)
        deltas.verify()


class TestLazyAbsorption:
    """What the commit hook itself does."""

    def test_self_healing_still_fires_on_the_commit_path(self):
        stream = StreamingLog()
        deltas = DeltaState(stream, check_every=2)
        for trace in ("AB", "BA", "AB", "BA"):
            stream.append_trace(trace)
        # heal() ran at commits 2 and 4, spot-checking the log's index.
        assert deltas.recovery.invariant_checks == 2
        assert deltas.recovery.cheap_check_failures == 0


class TestPatternIndexUpdatePath:
    def test_extend_reports_only_fresh(self):
        index = PatternIndex([parse_pattern("SEQ(A, B)")])
        fresh = index.extend(
            [parse_pattern("SEQ(A, B)"), parse_pattern("AND(C, D)")]
        )
        assert [repr(p) for p in fresh] == ["AND(C,D)"]
        assert len(index) == 2
        assert parse_pattern("AND(C, D)") in index

    def test_extend_ignores_duplicates_within_batch(self):
        index = PatternIndex()
        fresh = index.extend(
            [parse_pattern("A"), parse_pattern("A"), parse_pattern("B")]
        )
        assert len(fresh) == 2
        assert len(index) == 2

    def test_candidates_for_alphabet(self):
        patterns = [
            parse_pattern("SEQ(A, B)"),
            parse_pattern("SEQ(A, C)"),
            parse_pattern("AND(B, C)"),
            parse_pattern("D"),
        ]
        index = PatternIndex(patterns)
        candidates = index.candidates_for_alphabet({"A", "B"})
        assert [repr(p) for p in candidates] == ["SEQ(A,B)"]
        candidates = index.candidates_for_alphabet({"A", "B", "C", "D"})
        assert [repr(p) for p in candidates] == [
            "SEQ(A,B)",
            "SEQ(A,C)",
            "AND(B,C)",
            "D",
        ]
        assert index.candidates_for_alphabet(set()) == []
