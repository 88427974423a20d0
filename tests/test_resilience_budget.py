"""Anytime budget paths: degraded outcomes, gap bounds, warm starts.

Exercises the ISSUE's budget-exhaustion acceptance criteria: every
budgeted exact method must return a complete, injective mapping flagged
``degraded`` with a sound optimality-gap bound instead of raising —
unless ``strict`` asks for the historical exception — and the evaluation
harness must keep reporting DNF rows.
"""

import random
import time

import pytest

from repro.core.astar import AStarMatcher, SearchBudgetExceeded
from repro.core.scoring import ScoreModel, build_pattern_set
from repro.datagen import generate_largevocab, generate_reallike
from repro.evaluation.harness import run_method
from repro.log.eventlog import EventLog
from repro.core.matcher import EventMatcher, MatchOptions, match
from repro.patterns.parser import parse_pattern


def random_log(rng, alphabet, num_traces, max_len=6):
    return EventLog(
        [
            [rng.choice(alphabet) for _ in range(rng.randint(1, max_len))]
            for _ in range(num_traces)
        ]
    )


def _model(seed=1, events=6):
    rng = random.Random(seed)
    log_1 = random_log(rng, "ABCDEF"[:events], 30)
    log_2 = random_log(rng, "123456"[:events], 30)
    return ScoreModel(log_1, log_2, build_pattern_set(log_1))


def _assert_complete_injective(outcome, expected_size):
    mapping = outcome.mapping.as_dict()
    assert len(mapping) == expected_size
    assert len(set(mapping.values())) == expected_size


class TestDegradedOutcomes:
    def test_time_budget_zero_degrades_with_complete_mapping(self):
        outcome = AStarMatcher(_model(), time_budget=0.0).match()
        assert outcome.degraded
        _assert_complete_injective(outcome, 6)
        assert outcome.gap >= 0.0
        assert outcome.score >= 0.0

    def test_node_budget_one_degrades_with_complete_mapping(self):
        outcome = AStarMatcher(_model(), node_budget=1).match()
        assert outcome.degraded
        _assert_complete_injective(outcome, 6)

    def test_stats_populated_on_degraded_run(self):
        outcome = AStarMatcher(_model(), node_budget=5).match()
        stats = outcome.stats
        assert stats.expanded_nodes >= 1
        assert stats.processed_mappings > 0
        assert stats.extra.get("degraded_runs") == 1.0
        assert stats.extra.get("optimality_gap") == pytest.approx(outcome.gap)

    def test_gap_bounds_true_shortfall(self):
        optimum = AStarMatcher(_model()).match()
        assert not optimum.degraded
        assert optimum.gap == 0.0
        for budget in (1, 3, 10, 50):
            degraded = AStarMatcher(_model(), node_budget=budget).match()
            assert degraded.score <= optimum.score + 1e-9
            shortfall = optimum.score - degraded.score
            assert shortfall <= degraded.gap + 1e-9

    def test_achievability_of_degraded_score(self):
        # The returned score must be the real g of the returned mapping,
        # not an estimate.
        model = _model(seed=7)
        outcome = AStarMatcher(
            _model(seed=7), node_budget=4
        ).match()
        assert model.g(outcome.mapping.as_dict()) == pytest.approx(
            outcome.score
        )

    def test_strict_still_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            AStarMatcher(_model(), node_budget=1, strict=True).match()
        with pytest.raises(SearchBudgetExceeded):
            AStarMatcher(_model(), time_budget=0.0, strict=True).match()


class TestWarmStartedExhaustion:
    def test_degraded_never_regresses_below_warm_start(self):
        matcher = EventMatcher(_model().log_1, _model().log_2)
        # A full heuristic pass provides the warm mapping.
        warm = matcher.run(MatchOptions("heuristic-advanced"))
        exhausted = matcher.run(
            MatchOptions("pattern-tight", node_budget=1),
            warm_start=warm.mapping,
        )
        assert exhausted.degraded
        assert exhausted.score >= warm.score - 1e-9
        _assert_complete_injective(exhausted, len(warm.mapping))

    def test_warm_started_stats_populated(self):
        model = _model(seed=3)
        matcher = EventMatcher(model.log_1, model.log_2)
        warm = matcher.run(MatchOptions("heuristic-simple"))
        exhausted = matcher.run(
            MatchOptions("pattern-tight", node_budget=2),
            warm_start=warm.mapping,
        )
        assert exhausted.degraded
        assert exhausted.gap >= 0.0
        assert exhausted.stats.expanded_nodes >= 1


class TestFacade:
    @pytest.fixture(scope="class")
    def example_pair(self):
        log_1 = EventLog(["ABCDE", "ACBDF", "ABCDF", "ACBDE"] * 3)
        log_2 = EventLog(["34567", "35468", "34568", "35467"] * 3)
        return log_1, log_2, [parse_pattern("SEQ(A, AND(B, C), D)")]

    def test_facade_reports_degraded_and_gap(self, example_pair):
        log_1, log_2, patterns = example_pair
        result = match(
            log_1, log_2, patterns=patterns,
            method="pattern-tight", node_budget=3,
        )
        assert result.degraded
        assert result.gap >= 0.0
        _assert_complete_injective(result, 6)

    def test_vertex_edge_degrades_too(self, example_pair):
        log_1, log_2, _ = example_pair
        result = match(log_1, log_2, method="vertex-edge", node_budget=2)
        assert result.degraded
        _assert_complete_injective(result, 6)

    def test_degraded_fallback_rescues_wide_gaps(self, example_pair):
        log_1, log_2, patterns = example_pair
        plain = match(
            log_1, log_2, patterns=patterns,
            method="pattern-tight", node_budget=1,
        )
        rescued = match(
            log_1, log_2, patterns=patterns,
            method="pattern-tight", node_budget=1,
            degraded_fallback=0.0,
        )
        assert rescued.degraded
        assert rescued.score >= plain.score - 1e-9
        # The rescue shrinks the gap by exactly its improvement.
        assert rescued.gap <= plain.gap + 1e-9
        if rescued.score > plain.score:
            assert rescued.method == "heuristic-advanced"

    def test_undegraded_results_report_zero_gap(self, example_pair):
        log_1, log_2, patterns = example_pair
        result = match(log_1, log_2, patterns=patterns)
        assert not result.degraded
        assert result.gap == 0.0

    @pytest.fixture(scope="class")
    def rescue_case(self):
        """A 32-event task, its node-budget degraded result, and how long
        the same call takes with an unbounded rescue."""
        task = generate_largevocab(
            num_families=8, roles_per_family=4, num_traces=60, seed=4
        )
        logs = (task.log_1, task.log_2, task.patterns)
        plain = match(*logs, method="pattern-tight", node_budget=5)
        started = time.monotonic()
        match(*logs, method="pattern-tight", node_budget=5,
              degraded_fallback=0.0)
        return logs, plain, time.monotonic() - started

    def test_time_budget_bounds_the_rescue(self, rescue_case, monkeypatch):
        logs, _, unbounded_s = rescue_case
        # The unbounded rescue takes at least 5x this budget.
        budget = unbounded_s / 6
        searched = []
        exact_search = EventMatcher._exact_search

        def spy(self, *args):
            searched.append(exact_search(self, *args))
            return searched[-1]

        monkeypatch.setattr(EventMatcher, "_exact_search", spy)
        started = time.monotonic()
        result = match(*logs, method="pattern-tight", time_budget=budget,
                       degraded_fallback=0.0)
        assert time.monotonic() - started <= 1.5 * budget
        assert searched[0].degraded and result.degraded
        assert result.score >= searched[0].score

    def test_node_budget_rescue_stops_at_the_time_budget(self, rescue_case):
        logs, plain, unbounded_s = rescue_case
        # The node budget trips first; the rescue then runs into the
        # deadline, which comes well before it would finish.
        budget = unbounded_s / 4
        started = time.monotonic()
        result = match(*logs, method="pattern-tight", node_budget=5,
                       time_budget=budget, degraded_fallback=0.0)
        assert time.monotonic() - started <= 1.5 * budget
        assert result.degraded
        if result.mapping == plain.mapping:
            # A rescue that found nothing new leaves the result as it was.
            assert (result.method, result.score, result.gap) == (
                plain.method, plain.score, plain.gap
            )
        else:
            improvement = result.score - plain.score
            assert improvement > 0.0
            assert result.gap == pytest.approx(plain.gap - improvement)


class TestHarnessStaysStrict:
    def test_run_method_reports_dnf_not_incumbent(self):
        # The paper's figures report budget overruns as DNF rows; the
        # anytime default must not silently change them into scores.
        task = generate_reallike(num_traces=40, seed=5)
        run = run_method(task, "pattern-tight", node_budget=1)
        assert run.dnf
