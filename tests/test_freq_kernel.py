"""Tests for repro.kernel — interning, automata, and the frequency kernel.

The load-bearing property is *kernel equals naive*: for any log, any
SEQ/AND pattern, and any append sequence, the compiled kernel
(bitsets + bigrams + Aho–Corasick) must count exactly the traces the
Definition 4/5 oracle counts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.automaton import OrderAutomaton
from repro.kernel.frequency import FrequencyKernel, iter_bits
from repro.kernel.interner import BIGRAM_SHIFT, EventInterner, pack_bigram
from repro.log.eventlog import EventLog
from repro.patterns.ast import AND, SEQ, Pattern, and_, event, seq
from repro.patterns.matching import (
    PatternFrequencyEvaluator,
    cached_allowed_orders,
    pattern_frequency,
)

ALPHABET = list("ABCDEF")

trace_strategy = st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=10)
log_strategy = st.lists(trace_strategy, min_size=0, max_size=25).map(EventLog)


@st.composite
def pattern_strategy(draw) -> Pattern:
    """Random SEQ/AND trees over distinct events of ``ALPHABET``."""
    size = draw(st.integers(min_value=1, max_value=5))
    events = draw(st.permutations(ALPHABET))[:size]

    def build(chunk):
        if len(chunk) == 1:
            return event(chunk[0])
        operator = draw(st.sampled_from([SEQ, AND]))
        # Split into 2..len(chunk) contiguous child groups.
        num_children = draw(st.integers(min_value=2, max_value=len(chunk)))
        cuts = sorted(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=len(chunk) - 1),
                    min_size=num_children - 1,
                    max_size=num_children - 1,
                    unique=True,
                )
            )
        )
        groups = []
        previous = 0
        for cut in cuts + [len(chunk)]:
            groups.append(chunk[previous:cut])
            previous = cut
        return operator([build(group) for group in groups if group])

    return build(list(events))


class TestEventInterner:
    def test_dense_first_appearance_ids(self):
        interner = EventInterner()
        assert interner.absorb(("B", "A", "B")) == (0, 1, 0)
        assert interner.absorb(("C", "A")) == (2, 1)
        assert interner.id_of("A") == 1
        assert interner.id_of("Z") is None
        assert interner.event_of(2) == "C"
        assert len(interner) == 3

    def test_bigram_sets_pack_consecutive_pairs(self):
        # The log's index keys its bigram postings by packed id pairs.
        index = EventLog(["ABA", "BB"]).trace_index()
        assert index.bigram_postings == {
            pack_bigram(0, 1): 0b01,
            pack_bigram(1, 0): 0b01,
            pack_bigram(1, 1): 0b10,
        }

    def test_translate_unseen_event_is_none(self):
        interner = EventInterner()
        interner.absorb(("A", "B"))
        assert interner.translate(("A", "B")) == (0, 1)
        assert interner.translate(("A", "Z")) is None

    def test_log_interner_stays_synced_under_append(self):
        log = EventLog(["AB"])
        interner = log.interner()
        assert interner.num_traces == 1
        log.append_trace("BC")
        assert interner.num_traces == 2
        assert log.interner() is interner
        assert interner.interned_traces[1] == (1, 2)


class TestOrderAutomaton:
    def test_single_needle(self):
        automaton = OrderAutomaton([("A", "B")])
        assert automaton.matches("XAB")
        assert automaton.find("XAB") == 3
        assert not automaton.matches("AXB")

    def test_multiple_orders_one_pass(self):
        automaton = OrderAutomaton([("B", "C"), ("C", "B")])
        assert automaton.matches("XCBY")
        assert automaton.matches("XBCY")
        assert not automaton.matches("BXC")

    def test_overlapping_prefix_suffix(self):
        # Failure links must carry partial progress across needles.
        automaton = OrderAutomaton([("A", "A", "B")])
        assert automaton.matches("AAAB")
        assert not automaton.matches("ABAB")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OrderAutomaton([])
        with pytest.raises(ValueError):
            OrderAutomaton([()])

    def test_works_on_ints(self):
        automaton = OrderAutomaton([(0, 1), (1, 0)])
        assert automaton.matches((5, 1, 0, 3))
        assert not automaton.matches((0, 5, 1))

    @given(
        st.lists(
            st.lists(st.sampled_from("AB"), min_size=1, max_size=4).map(tuple),
            min_size=1,
            max_size=5,
        ),
        st.lists(st.sampled_from("ABC"), max_size=12).map(tuple),
    )
    def test_matches_equals_naive_any_substring(self, needles, haystack):
        automaton = OrderAutomaton(needles)
        expected = any(
            haystack[i : i + len(needle)] == needle
            for needle in needles
            for i in range(len(haystack) - len(needle) + 1)
        )
        assert automaton.matches(haystack) == expected


class TestIterBits:
    def test_positions(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b10110)) == [1, 2, 4]


class TestFrequencyKernelTiers:
    @pytest.fixture
    def log(self):
        return EventLog(["ABCD", "ACBD", "ABD", "DCBA", "BAD"])

    def test_single_event_popcount(self, log):
        kernel = FrequencyKernel(log)
        assert kernel.count_matching([("A",)]) == 5
        assert kernel.count_matching([("C",)]) == 3

    def test_bigram_tier_counts_pairs(self, log):
        kernel = FrequencyKernel(log)
        orders = cached_allowed_orders(and_("B", "C"))
        assert kernel.count_matching(orders) == pattern_frequency(
            log, and_("B", "C")
        ) * len(log)
        assert kernel.counters.bigram_queries == 1
        assert kernel.counters.automaton_builds == 0

    def test_automaton_tier_builds_then_memoizes(self, log):
        kernel = FrequencyKernel(log)
        orders = cached_allowed_orders(and_("B", "C", "D"))
        first = kernel.count_matching(orders)
        assert kernel.counters.automaton_builds == 1
        second = kernel.count_matching(orders)
        assert second == first
        assert kernel.counters.automaton_hits == 1
        assert kernel.num_automata == 1

    def test_unseen_event_short_circuits(self, log):
        kernel = FrequencyKernel(log)
        assert kernel.count_matching([("A", "Z")]) == 0

    def test_mismatched_event_sets_rejected(self, log):
        kernel = FrequencyKernel(log)
        with pytest.raises(ValueError):
            kernel.count_matching([("A", "B"), ("A", "C")])

    def test_ablation_flags_agree(self, log):
        reference = FrequencyKernel(log)
        no_automaton = FrequencyKernel(log, use_automaton=False)
        no_bigrams = FrequencyKernel(log, use_bigrams=False)
        for pattern in (and_("B", "C"), and_("B", "C", "D"), seq("A", "B")):
            orders = cached_allowed_orders(pattern)
            expected = reference.count_matching(orders)
            assert no_automaton.count_matching(orders) == expected
            assert no_bigrams.count_matching(orders) == expected

    def test_kernel_reads_the_grown_log(self, log):
        kernel = FrequencyKernel(log)
        assert kernel.count_matching([("A", "B")]) == 2
        log.append_trace("AB")
        assert kernel.count_matching([("A", "B")]) == 3


class TestKernelEqualsNaive:
    @given(log_strategy, pattern_strategy())
    @settings(max_examples=150)
    def test_kernel_frequency_matches_oracle(self, log, pattern):
        kernel_evaluator = PatternFrequencyEvaluator(log)
        naive_evaluator = PatternFrequencyEvaluator(log, use_kernel=False)
        expected = pattern_frequency(log, pattern)
        assert kernel_evaluator.frequency(pattern) == expected
        assert naive_evaluator.frequency(pattern) == expected

    @given(
        st.lists(trace_strategy, min_size=1, max_size=10),
        st.lists(trace_strategy, min_size=1, max_size=10),
        st.lists(pattern_strategy(), min_size=1, max_size=3),
    )
    @settings(max_examples=60)
    def test_kernel_consistent_through_appends(
        self, initial, appended, patterns
    ):
        log = EventLog(initial)
        evaluator = PatternFrequencyEvaluator(log)
        for trace in appended:
            log.append_trace(trace)
            evaluator.refresh()
            oracle_log = EventLog(log.traces)
            for pattern in patterns:
                assert evaluator.frequency(pattern) == pattern_frequency(
                    oracle_log, pattern
                )

    @given(log_strategy, pattern_strategy())
    @settings(max_examples=60)
    def test_mapped_frequency_matches_oracle(self, log, pattern):
        mapping = {source: source.lower() for source in ALPHABET}
        renamed_log = log.rename_events(mapping)
        evaluator = PatternFrequencyEvaluator(renamed_log)
        assert evaluator.mapped_frequency(pattern, mapping) == (
            pattern_frequency(renamed_log, pattern.rename(mapping))
        )
