"""Unit tests for repro.log.index (the I_t inverted index) and the
naive substring-count oracle on EventLog."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.signals import BlockingConfig, compute_signals
from repro.core.scoring import ScoreModel, build_pattern_set
from repro.datagen import generate_reallike
from repro.kernel.interner import pack_bigram
from repro.log.eventlog import EventLog
from repro.log.index import TraceIndex
from repro.stream import DeltaState, OnlineMatcher, StreamingLog

log_strategy = st.lists(
    st.lists(st.sampled_from(list("ABCD")), min_size=1, max_size=8),
    min_size=1,
    max_size=20,
).map(EventLog)


class TestPostings:
    def test_postings_list_trace_ids(self):
        log = EventLog(["AB", "BC", "CA"])
        index = log.trace_index()
        assert index.postings("A") == {0, 2}
        assert index.postings("B") == {0, 1}
        assert index.postings("Z") == frozenset()

    def test_postings_view_is_immutable(self):
        # Regression: postings() used to hand out the live internal set;
        # mutating it could silently corrupt the index.
        log = EventLog(["AB", "BC", "CA"])
        index = log.trace_index()
        view = index.postings("A")
        with pytest.raises(AttributeError):
            view.add(1)
        with pytest.raises(AttributeError):
            view.discard(0)
        assert index.postings("A") == {0, 2}

    def test_posting_bits_layout(self):
        log = EventLog(["AB", "BC", "CA"])
        index = log.trace_index()
        assert index.posting_bits("A") == 0b101
        assert index.posting_bits("B") == 0b011
        assert index.posting_bits("Z") == 0

    def test_posting_bits_maintained_under_append(self):
        log = EventLog(["AB"])
        index = log.trace_index()
        log.append_trace("CA")
        assert log.trace_index() is index
        assert index.posting_bits("A") == 0b11
        assert index.posting_bits("C") == 0b10
        assert index.postings("A") == {0, 1}

    def test_candidate_bits_intersection(self):
        log = EventLog(["AB", "BC", "ABC"])
        index = log.trace_index()
        assert index.candidate_bits(["A", "B"]) == 0b101
        assert index.candidate_bits(["A", "Z"]) == 0
        assert index.candidate_bits([]) == 0b111

    def test_candidates_intersect(self):
        log = EventLog(["AB", "BC", "ABC"])
        index = log.trace_index()
        assert index.candidate_traces(["A", "B"]) == {0, 2}
        assert index.candidate_traces(["A", "B", "C"]) == {2}
        assert index.candidate_traces(["A", "Z"]) == frozenset()

    def test_empty_event_set_selects_all(self):
        log = EventLog(["AB", "BC"])
        index = log.trace_index()
        assert index.candidate_traces([]) == {0, 1}

    @given(log_strategy, st.sets(st.sampled_from(list("ABCD")), max_size=3))
    def test_candidates_equal_scan(self, log, events):
        index = log.trace_index()
        expected = {
            trace_id
            for trace_id, trace in enumerate(log)
            if all(event in trace for event in events)
        }
        assert index.candidate_traces(events) == expected


class TestSubstringCounting:
    def test_counts_any_alternative(self):
        log = EventLog(["ABC", "ACB", "BCA", "AXB"])
        # AND(B, C)-style alternatives share the event set {B, C}.
        assert log.count_traces_with_any_substring(
            [("B", "C"), ("C", "B")]
        ) == 3

    def test_empty_sequence_list(self):
        log = EventLog(["AB"])
        assert log.count_traces_with_any_substring([]) == 0

    def test_rejects_mismatched_event_sets(self):
        log = EventLog(["AB"])
        with pytest.raises(ValueError):
            log.count_traces_with_any_substring([("A", "B"), ("A", "C")])

    def test_trace_counted_once_even_if_both_orders_occur(self):
        log = EventLog(["BCACB"])
        assert log.count_traces_with_any_substring(
            [("B", "C"), ("C", "B")]
        ) == 1

    @given(log_strategy)
    def test_count_matches_unindexed_scan(self, log):
        sequences = [("A", "B", "C"), ("A", "C", "B")]
        expected = sum(
            1
            for trace in log
            if any(trace.contains_substring(s) for s in sequences)
        )
        assert log.count_traces_with_any_substring(sequences) == expected


def _first_appearance(traces):
    seen = {}
    for trace in traces:
        for event in trace:
            seen.setdefault(event, None)
    return list(seen)


def _bits(trace_ids):
    return sum(1 << trace_id for trace_id in trace_ids)


def _grow(build, traces):
    """A log over ``traces``, built in one pass or grown by appends."""
    if build == "one-pass":
        return EventLog(traces)
    if build == "append":
        split = len(traces) // 2
        log = EventLog(traces[:split])
        log.trace_index()  # appends now extend a built index
        for trace in traces[split:]:
            log.append_trace(trace)
        return log
    stream = StreamingLog()
    stream.extend(traces)
    return stream.log


class TestIndexAgainstRawTraces:
    """Every view of the index equals a direct scan of the trace lists."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from("ABCD"), min_size=1, max_size=8),
            max_size=20,
        ),
        st.sampled_from(["one-pass", "append", "stream"]),
    )
    def test_views_equal_scans(self, traces, build):
        log = _grow(build, traces)
        index = log.trace_index()
        order = _first_appearance(traces)
        assert log.events_in_first_appearance_order() == order
        assert log.alphabet() == frozenset(order)
        pairs_of = [set(zip(trace, trace[1:])) for trace in traces]
        assert log.edges() == sorted(set().union(*pairs_of))

        for event in "ABCDE":  # E never occurs
            holders = {i for i, trace in enumerate(traces) if event in trace}
            assert index.postings(event) == holders
            assert index.posting_bits(event) == _bits(holders)
            assert log.vertex_count(event) == len(holders)

        expected_bigrams = {}
        for first in "ABCDE":
            for second in "ABCDE":
                holders = {
                    i for i, pairs in enumerate(pairs_of)
                    if (first, second) in pairs
                }
                assert index.bigram_bits(first, second) == _bits(holders)
                assert log.edge_count(first, second) == len(holders)
                if holders:
                    code = pack_bigram(order.index(first), order.index(second))
                    expected_bigrams[code] = _bits(holders)
        assert index.bigram_postings == expected_bigrams


@pytest.fixture
def index_builds(monkeypatch):
    """Every TraceIndex constructed while the test runs."""
    builds = []
    original = TraceIndex.__init__

    def counting(self, *args, **kwargs):
        builds.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TraceIndex, "__init__", counting)
    return builds


class TestOneIndexPerLog:
    def test_dropped_log_is_freed_by_reference_counting(self):
        task = generate_reallike(num_traces=100, seed=2)
        gc.disable()
        try:
            log = EventLog(task.log_1.traces)
            alive = weakref.ref(log)
            model = ScoreModel(
                log, task.log_2, build_pattern_set(log, task.patterns)
            )
            del model
            del log
            assert alive() is None
        finally:
            gc.enable()

    def test_online_session_builds_no_index(self, index_builds):
        task = generate_reallike(num_traces=300, seed=5)
        stream = StreamingLog(name="live")
        engine = OnlineMatcher(
            task.log_1, stream, patterns=task.patterns,
            drift_threshold=0.0, min_traces=50,
        )
        index = stream.log.trace_index()
        index_builds.clear()
        rematches = 0
        traces = task.log_2.traces
        for start in range(0, len(traces), 50):
            stream.extend(traces[start:start + 50])
            rematches += engine.update().rematched
            assert stream.log.trace_index() is index
        assert rematches >= 2
        assert index_builds == []

    def test_consumers_share_the_existing_index(self, index_builds):
        task = generate_reallike(num_traces=200, seed=3)
        task.log_1.trace_index()
        task.log_2.trace_index()
        stream = StreamingLog(traces=task.log_2.traces)
        index_builds.clear()
        ScoreModel(
            task.log_1, task.log_2,
            build_pattern_set(task.log_1, task.patterns),
        )
        DeltaState(stream, patterns=task.patterns)
        compute_signals(task.log_1, BlockingConfig())
        assert index_builds == []
