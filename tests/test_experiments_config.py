"""Smoke tests for the per-figure experiment configurations.

Tiny sizes only — the real series are produced by the benchmark suite;
these verify the wiring (projection, budgets, method lists) end-to-end.
"""

import pytest

from repro.core.bounds import BoundKind
from repro.core.heuristic import SimpleHeuristicMatcher
from repro.core.scoring import ScoreModel
from repro.datagen import generate_reallike
from repro.core.matcher import EventMatcher, MatchOptions
from repro.evaluation.experiments import (
    figure7_exact_vs_events,
    figure8_exact_vs_traces,
    figure9_heuristic_vs_events,
    figure10_heuristic_vs_traces,
    figure12_large_synthetic,
)


class TestFigureConfigs:
    def test_figure7_wiring(self):
        runs = figure7_exact_vs_events(
            sizes=(3,), num_traces=80, methods=("vertex", "pattern-tight"),
            node_budget=50_000,
        )
        assert {r.method for r in runs} == {"vertex", "pattern-tight"}
        assert all(r.num_events == 3 for r in runs)

    def test_figure8_wiring(self):
        runs = figure8_exact_vs_traces(
            counts=(40, 80), num_events=4, methods=("vertex",),
        )
        assert [r.num_traces for r in runs] == [40, 80]

    def test_figure9_wiring(self):
        runs = figure9_heuristic_vs_events(
            sizes=(4,), num_traces=80, methods=("heuristic-simple",),
        )
        assert runs[0].method == "heuristic-simple"
        assert not runs[0].dnf

    def test_figure10_wiring(self):
        runs = figure10_heuristic_vs_traces(
            counts=(50,), num_events=4, methods=("heuristic-advanced",),
        )
        assert runs[0].num_traces == 50

    def test_figure12_wiring_and_dnf(self):
        runs = figure12_large_synthetic(
            sizes=(10, 20), num_traces=60, num_blocks=2,
            methods=("pattern-tight", "entropy"),
            node_budget=50, time_budget=5.0,
        )
        exact_20 = next(
            r for r in runs
            if r.method == "pattern-tight" and r.num_events == 20
        )
        assert exact_20.dnf  # 50-node budget cannot cover 20 events
        entropy_runs = [r for r in runs if r.method == "entropy"]
        assert all(not r.dnf for r in entropy_runs)


class TestMatcherConfiguration:
    def test_heuristic_bound_parameter(self):
        """The simple heuristic runs under every bound kind."""
        task = generate_reallike(num_traces=80, seed=7).project_events(4)
        matcher = EventMatcher(task.log_1, task.log_2, patterns=task.patterns)
        for bound in (BoundKind.SIMPLE, BoundKind.TIGHT, BoundKind.TIGHT_FAST):
            model = ScoreModel(
                task.log_1, task.log_2, matcher.full_pattern_set(),
                bound=bound,
            )
            result = SimpleHeuristicMatcher(model).match()
            assert len(result.mapping) == 4

    def test_vertex_only_matcher_configuration(self):
        task = generate_reallike(num_traces=80, seed=7).project_events(4)
        matcher = EventMatcher(
            task.log_1, task.log_2, include_edges=False
        )
        full = matcher.full_pattern_set()
        assert len(full) == 4  # vertex patterns only
        result = matcher.run(MatchOptions("pattern-tight"))
        assert len(result.mapping) == 4
