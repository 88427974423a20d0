"""Unit tests for repro.stream.ingest and repro.stream.snapshots."""

import pytest

from repro.log.eventlog import EventLog, StaleIndexError
from repro.log.events import Trace
from repro.patterns.matching import PatternFrequencyEvaluator
from repro.patterns.parser import parse_pattern
from repro.stream.ingest import StreamingLog, UnknownCaseError
from repro.stream.snapshots import LogSnapshot


class TestLifecycle:
    def test_open_append_close_commits_in_order(self):
        stream = StreamingLog(name="live")
        stream.open_trace("c1")
        stream.append_event("c1", "A")
        stream.append_event("c2", "X")  # auto-opens c2
        stream.append_event("c1", "B")
        assert len(stream) == 0  # nothing committed yet
        assert stream.open_cases() == {"c1": ("A", "B"), "c2": ("X",)}

        assert stream.close_trace("c1") == 0
        assert stream.close_trace("c2") == 1
        assert stream.log.traces == (Trace("AB"), Trace("X"))
        assert stream.log[0].case_id == "c1"

    def test_open_twice_raises(self):
        stream = StreamingLog()
        stream.open_trace("c1")
        with pytest.raises(ValueError, match="already open"):
            stream.open_trace("c1")

    def test_close_unopened_raises(self):
        stream = StreamingLog()
        with pytest.raises(ValueError, match="not open"):
            stream.close_trace("ghost")

    def test_close_empty_case_raises(self):
        stream = StreamingLog()
        stream.open_trace("c1")
        with pytest.raises(ValueError, match="no events"):
            stream.close_trace("c1")

    def test_abort_discards_without_commit(self):
        stream = StreamingLog()
        stream.append_event("c1", "A")
        stream.abort_trace("c1")
        assert len(stream) == 0
        assert stream.open_cases() == {}
        with pytest.raises(ValueError):
            stream.abort_trace("c1")

    def test_unknown_case_error_is_typed(self):
        # The typed error keeps both historical except clauses working.
        stream = StreamingLog()
        with pytest.raises(UnknownCaseError):
            stream.close_trace("ghost")
        with pytest.raises(KeyError):
            stream.close_trace("ghost")
        assert issubclass(UnknownCaseError, ValueError)
        assert issubclass(UnknownCaseError, KeyError)

    def test_close_twice_raises_unknown_case(self):
        stream = StreamingLog()
        stream.append_event("c1", "A")
        stream.close_trace("c1")
        with pytest.raises(UnknownCaseError, match="not open"):
            stream.close_trace("c1")

    def test_abort_unknown_raises_unless_missing_ok(self):
        stream = StreamingLog()
        with pytest.raises(UnknownCaseError, match="not open"):
            stream.abort_trace("ghost")
        assert stream.abort_trace("ghost", missing_ok=True) is False

    def test_abort_returns_whether_discarded(self):
        stream = StreamingLog()
        stream.append_event("c1", "A")
        assert stream.abort_trace("c1") is True
        # Idempotent under at-least-once cancellation signals.
        assert stream.abort_trace("c1", missing_ok=True) is False

    def test_whole_trace_ingestion(self):
        stream = StreamingLog(traces=["AB", "BC"])
        assert len(stream) == 2
        assert stream.extend(["CD", "DA"]) == 2
        assert stream.append_trace(Trace("AA", case_id="x")) == 4
        assert len(stream.log) == 5

    def test_open_cases_invisible_to_statistics(self):
        stream = StreamingLog(traces=["AB"])
        stream.append_event("c9", "Z")
        assert "Z" not in stream.log.alphabet()
        assert stream.log.vertex_count("Z") == 0


class TestListeners:
    def test_commits_announced_once_in_order(self):
        stream = StreamingLog()
        seen = []
        stream.subscribe(lambda trace_id, trace: seen.append((trace_id, trace.events)))
        stream.append_trace("AB")
        stream.append_event("c1", "C")
        stream.close_trace("c1")
        assert seen == [(0, ("A", "B")), (1, ("C",))]


class TestGenerations:
    def test_generation_bumps_per_commit(self):
        stream = StreamingLog()
        assert stream.generation == 0
        stream.append_trace("AB")
        stream.append_trace("BC")
        assert stream.generation == 2

    def test_frequency_evaluator_fails_loudly_when_stale(self):
        stream = StreamingLog(traces=["AB", "AB"])
        evaluator = PatternFrequencyEvaluator(stream.log)
        pattern = parse_pattern("SEQ(A, B)")
        assert evaluator.frequency(pattern) == 1.0
        stream.append_trace("BA")
        with pytest.raises(StaleIndexError):
            evaluator.frequency(pattern)
        evaluator.refresh()
        assert evaluator.frequency(pattern) == pytest.approx(2 / 3)


class TestIncrementalStatistics:
    def test_append_maintains_counts_like_rebuild(self):
        log = EventLog(["ABC", "AB"])
        log.trace_index()
        log.append_trace("CAB")
        log.append_trace(Trace("BBC"))
        rebuilt = EventLog(log.traces)
        assert log.alphabet() == rebuilt.alphabet()
        for event in rebuilt.alphabet():
            assert log.vertex_count(event) == rebuilt.vertex_count(event)
        assert log.edges() == rebuilt.edges()
        for source, target in rebuilt.edges():
            assert log.edge_count(source, target) == rebuilt.edge_count(
                source, target
            )

    def test_append_empty_trace_rejected(self):
        log = EventLog(["AB"])
        with pytest.raises(ValueError, match="empty"):
            log.append_trace([])


class TestSnapshots:
    def test_snapshot_is_frozen_point_in_time(self):
        stream = StreamingLog(name="live", traces=["AB", "BC"])
        snapshot = stream.snapshot()
        assert isinstance(snapshot, LogSnapshot)
        assert isinstance(snapshot, EventLog)
        assert snapshot.stream_generation == stream.generation
        assert snapshot.sequence == 1
        assert snapshot.name == "live@1"

        stream.append_trace("CD")
        assert len(snapshot) == 2  # unaffected by later appends
        with pytest.raises(TypeError, match="frozen"):
            snapshot.append_trace("XY")

    def test_snapshot_usable_by_batch_consumers(self):
        stream = StreamingLog(traces=["AB", "AB", "AC"])
        snapshot = stream.snapshot()
        index = snapshot.trace_index()
        stream.append_trace("ZZ")  # must not disturb the snapshot's index
        assert index.candidate_traces(["A", "B"]) == {0, 1}
        evaluator = PatternFrequencyEvaluator(snapshot)
        assert evaluator.frequency(parse_pattern("SEQ(A, B)")) == pytest.approx(
            2 / 3
        )

    def test_snapshot_sequence_increments(self):
        stream = StreamingLog(traces=["AB"])
        first = stream.snapshot()
        second = stream.snapshot()
        assert (first.sequence, second.sequence) == (1, 2)
