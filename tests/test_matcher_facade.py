"""Unit tests for the high-level matcher facade and experiments module."""

import json
import pickle

import pytest

from repro import (
    METHODS,
    EventLog,
    EventMatcher,
    MatchOptions,
    match,
    parse_pattern,
)
from repro.blocking import BlockingConfig
from repro.core.astar import SearchBudgetExceeded
from repro.evaluation.experiments import (
    table3_characteristics,
    table4_random_mapping_counts,
)


@pytest.fixture(scope="module")
def example_pair():
    log_1 = EventLog(["ABCDE", "ACBDF", "ABCDF", "ACBDE"] * 3)
    log_2 = EventLog(["34567", "35468", "34568", "35467"] * 3)
    pattern = parse_pattern("SEQ(A, AND(B, C), D)")
    return log_1, log_2, [pattern]


class TestMatchFacade:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_runs(self, example_pair, method):
        log_1, log_2, patterns = example_pair
        result = match(log_1, log_2, patterns=patterns, method=method)
        assert result.method == method
        assert result.elapsed_seconds >= 0.0
        assert len(result.mapping) == 6

    def test_exact_methods_find_the_true_mapping(self, example_pair):
        log_1, log_2, patterns = example_pair
        for method in ("pattern-tight", "pattern-simple", "vertex-edge"):
            result = match(log_1, log_2, patterns=patterns, method=method)
            assert result.mapping.as_dict() == {
                "A": "3", "B": "4", "C": "5", "D": "6", "E": "7", "F": "8",
            }

    def test_unknown_method_rejected(self, example_pair):
        log_1, log_2, patterns = example_pair
        with pytest.raises(ValueError):
            match(log_1, log_2, patterns=patterns, method="psychic")

    def test_budget_raises_when_strict(self, example_pair):
        log_1, log_2, patterns = example_pair
        with pytest.raises(SearchBudgetExceeded):
            match(
                log_1, log_2, patterns=patterns,
                method="pattern-tight", node_budget=1, strict=True,
            )

    def test_budget_degrades_by_default(self, example_pair):
        log_1, log_2, patterns = example_pair
        result = match(
            log_1, log_2, patterns=patterns,
            method="pattern-tight", node_budget=1,
        )
        assert result.degraded
        assert result.gap >= 0.0
        assert len(result.mapping) == 6

    def test_matcher_reusable_across_methods(self, example_pair):
        log_1, log_2, patterns = example_pair
        matcher = EventMatcher(log_1, log_2, patterns=patterns)
        first = matcher.run(MatchOptions("vertex"))
        second = matcher.run(MatchOptions("entropy"))
        assert first.method == "vertex"
        assert second.method == "entropy"

    def test_pattern_set_composition(self, example_pair):
        log_1, log_2, patterns = example_pair
        matcher = EventMatcher(log_1, log_2, patterns=patterns)
        full = matcher.full_pattern_set()
        # 6 vertex patterns + edges + 1 complex pattern.
        assert len(full) == 6 + len(log_1.edges()) + 1


class TestMatchOptions:
    def test_dict_round_trip(self):
        options = MatchOptions(
            "pattern-simple", node_budget=10, time_budget=1.5, strict=True,
            degraded_fallback=0.2, blocking={"frequency_gap": 0.1},
        )
        payload = options.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert MatchOptions.from_dict(payload) == options
        assert pickle.loads(pickle.dumps(options)) == options
        assert MatchOptions.from_dict({}) == MatchOptions()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            MatchOptions.from_dict({"workers": 2})

    @pytest.mark.parametrize("blocking", [True, {}, BlockingConfig()])
    def test_blocking_is_normalized(self, blocking):
        options = MatchOptions(blocking=blocking)
        assert options.blocking == BlockingConfig()
        assert options.to_dict()["blocking"] == BlockingConfig().to_dict()

    @pytest.mark.parametrize("blocking", [None, False])
    def test_blocking_off_is_none(self, blocking):
        assert MatchOptions(blocking=blocking).blocking is None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("method", "psychic"),
            ("node_budget", -1),
            ("node_budget", 1.5),
            ("node_budget", True),
            ("node_budget", "ten"),
            ("time_budget", -1),
            ("time_budget", float("inf")),
            ("time_budget", float("nan")),
            ("time_budget", False),
            ("strict", "no"),
            ("strict", 1),
            ("degraded_fallback", -0.1),
            ("degraded_fallback", "x"),
            ("blocking", "yes"),
            ("blocking", {"frequency_gap": "x"}),
            ("blocking", {"bogus": 1}),
        ],
    )
    def test_invalid_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            MatchOptions(**{field: value})

    @pytest.mark.parametrize("method", ["vertex", "heuristic-advanced"])
    def test_blocking_needs_a_pattern_method(self, method):
        with pytest.raises(ValueError, match="blocking"):
            MatchOptions(method, blocking=True)


class TestExperimentConfigs:
    def test_table3_rows(self):
        rows = table3_characteristics(
            reallike_traces=100,
            synthetic_traces=100,
            synthetic_blocks=2,
            random_traces=100,
        )
        names = [row.name for row in rows]
        assert names == ["real", "synthetic", "random"]
        real, synthetic, random_row = rows
        assert real.num_events == 11
        assert real.num_patterns == 3
        assert synthetic.num_events == 20
        assert random_row.num_patterns == 0

    def test_table4_counts_sum_to_trials(self):
        counts = table4_random_mapping_counts(
            trials=6,
            num_traces=60,
            methods=("vertex", "heuristic-simple"),
        )
        for method, counter in counts.items():
            assert sum(counter.values()) == 6
            for mapping_key in counter:
                assert len(mapping_key) == 4  # 4 pairs per mapping
