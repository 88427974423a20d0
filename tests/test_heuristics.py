"""Unit tests for the heuristic matchers (Section 5)."""

import itertools
import random
import time

import pytest

from repro.core.astar import AStarMatcher
from repro.core.heuristic import AdvancedHeuristicMatcher, SimpleHeuristicMatcher
from repro.core.scoring import ScoreModel, build_pattern_set
from repro.log.eventlog import EventLog


def random_log(rng, alphabet, num_traces, max_len=6):
    return EventLog(
        [
            [rng.choice(alphabet) for _ in range(rng.randint(1, max_len))]
            for _ in range(num_traces)
        ]
    )


def random_pair(rng, n, num_traces=20):
    while True:
        log_1 = random_log(rng, "ABCDEF"[:n], num_traces)
        log_2 = random_log(rng, "123456"[:n], num_traces)
        if len(log_1.alphabet()) == n and len(log_2.alphabet()) == n:
            return log_1, log_2


class TestSimpleHeuristic:
    def test_returns_complete_injective_mapping(self):
        rng = random.Random(0)
        log_1, log_2 = random_pair(rng, 5)
        model = ScoreModel(log_1, log_2, build_pattern_set(log_1))
        outcome = SimpleHeuristicMatcher(model).match()
        assert len(outcome.mapping) == 5
        assert len(outcome.mapping.targets()) == 5

    def test_score_equals_recomputed_g(self):
        rng = random.Random(1)
        log_1, log_2 = random_pair(rng, 4)
        model = ScoreModel(log_1, log_2, build_pattern_set(log_1))
        outcome = SimpleHeuristicMatcher(model).match()
        assert outcome.score == pytest.approx(
            model.g(outcome.mapping.as_dict())
        )

    def test_never_beats_exact(self):
        rng = random.Random(2)
        for _ in range(5):
            log_1, log_2 = random_pair(rng, 4)
            patterns = build_pattern_set(log_1)
            heuristic = SimpleHeuristicMatcher(
                ScoreModel(log_1, log_2, patterns)
            ).match()
            exact = AStarMatcher(ScoreModel(log_1, log_2, patterns)).match()
            assert heuristic.score <= exact.score + 1e-9

    def test_processed_mappings_quadratic_not_factorial(self):
        rng = random.Random(3)
        log_1, log_2 = random_pair(rng, 5)
        model = ScoreModel(log_1, log_2, build_pattern_set(log_1))
        outcome = SimpleHeuristicMatcher(model).match()
        assert outcome.stats.processed_mappings <= 5 * 5

    def test_empty_logs(self):
        model = ScoreModel(EventLog([]), EventLog([]), [])
        outcome = SimpleHeuristicMatcher(model).match()
        assert len(outcome.mapping) == 0


class TestAdvancedHeuristic:
    def test_returns_complete_injective_mapping(self):
        rng = random.Random(4)
        log_1, log_2 = random_pair(rng, 5)
        model = ScoreModel(log_1, log_2, build_pattern_set(log_1))
        outcome = AdvancedHeuristicMatcher(model).match()
        assert len(outcome.mapping) == 5
        assert len(outcome.mapping.targets()) == 5

    def test_never_scores_below_simple(self):
        rng = random.Random(5)
        for _ in range(6):
            log_1, log_2 = random_pair(rng, 5)
            patterns = build_pattern_set(log_1)
            simple = SimpleHeuristicMatcher(
                ScoreModel(log_1, log_2, patterns)
            ).match()
            advanced = AdvancedHeuristicMatcher(
                ScoreModel(log_1, log_2, patterns)
            ).match()
            assert advanced.score >= simple.score - 1e-9

    def test_never_beats_exact(self):
        rng = random.Random(6)
        for _ in range(5):
            log_1, log_2 = random_pair(rng, 4)
            patterns = build_pattern_set(log_1)
            advanced = AdvancedHeuristicMatcher(
                ScoreModel(log_1, log_2, patterns)
            ).match()
            exact = AStarMatcher(ScoreModel(log_1, log_2, patterns)).match()
            assert advanced.score <= exact.score + 1e-9

    def test_passed_deadline_leaves_only_the_assignment_and_warm_seeds(self):
        rng = random.Random(8)
        log_1, log_2 = random_pair(rng, 5)
        model = ScoreModel(log_1, log_2, build_pattern_set(log_1))
        warm = dict(zip(model.source_events, reversed(model.target_events)))
        outcome = AdvancedHeuristicMatcher(
            model, initial_mapping=warm, deadline=time.monotonic() - 1.0
        ).match()
        # Only phase A's |V1|·|V2| pairs count: no greedy step, no move.
        assert outcome.stats.processed_mappings == 5 * 5
        assert len(outcome.mapping.targets()) == 5
        assert outcome.score >= model.g(warm)

    def test_unequal_sizes_are_padded(self):
        rng = random.Random(7)
        log_1 = random_log(rng, "ABC", 15)
        log_2 = random_log(rng, "12345", 15)
        model = ScoreModel(log_1, log_2, build_pattern_set(log_1))
        outcome = AdvancedHeuristicMatcher(model).match()
        assert len(outcome.mapping) == len(log_1.alphabet())
        assert outcome.mapping.targets() <= log_2.alphabet()


class TestProposition6:
    """With vertex-only patterns the advanced heuristic is optimal."""

    def test_vertex_patterns_give_the_optimum(self):
        rng = random.Random(9)
        for _ in range(8):
            n = rng.randint(2, 5)
            log_1, log_2 = random_pair(rng, n, num_traces=25)
            patterns = build_pattern_set(
                log_1, include_vertices=True, include_edges=False
            )
            model = ScoreModel(log_1, log_2, patterns)
            outcome = AdvancedHeuristicMatcher(model).match()
            # Brute-force the vertex-form optimum.
            best = max(
                model.g(dict(zip(model.source_events, perm)))
                for perm in itertools.permutations(model.target_events)
            )
            assert outcome.score == pytest.approx(best)
