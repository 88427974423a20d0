"""Integration tests: full pipelines across modules.

These exercise the library the way the examples and benchmarks do:
generate → (optionally round-trip through interchange formats) →
discover/declare patterns → match with several methods → evaluate.
"""

import io

import pytest

from repro import EventMatcher, MatchOptions, match
from repro.datagen import (
    generate_random_pair,
    generate_reallike,
    generate_synthetic,
)
from repro.evaluation.harness import run_method, sweep_events
from repro.evaluation.metrics import evaluate_mapping
from repro.log.csvio import read_csv, write_csv
from repro.log.xes import read_xes, write_xes
from repro.patterns.discovery import discover_patterns


class TestReallikePipeline:
    @pytest.fixture(scope="class")
    def task(self):
        return generate_reallike(num_traces=800, seed=7)

    def test_exact_matching_recovers_truth(self, task):
        result = match(
            task.log_1, task.log_2, patterns=task.patterns,
            method="pattern-tight", node_budget=500_000,
        )
        quality = evaluate_mapping(result.mapping, task.truth)
        assert quality.f_measure >= 0.9

    def test_method_quality_ordering(self, task):
        """The paper's headline ordering on the real-like dataset."""
        scores = {}
        for method in ("pattern-tight", "heuristic-advanced", "vertex"):
            run = run_method(task, method, node_budget=500_000)
            scores[method] = run.f_measure
        assert scores["pattern-tight"] >= scores["heuristic-advanced"] - 1e-9
        assert scores["heuristic-advanced"] >= scores["vertex"] - 1e-9

    def test_pipeline_through_interchange_formats(self, task, tmp_path):
        """Logs survive CSV/XES round trips and still match identically."""
        csv_path = tmp_path / "log1.csv"
        xes_path = tmp_path / "log2.xes"
        write_csv(task.log_1, csv_path)
        write_xes(task.log_2, xes_path)
        log_1 = read_csv(csv_path)
        log_2 = read_xes(xes_path)
        direct = match(
            task.log_1, task.log_2, patterns=task.patterns, method="vertex"
        )
        reloaded = match(log_1, log_2, patterns=task.patterns, method="vertex")
        assert direct.mapping == reloaded.mapping


class TestDiscoveryPipeline:
    def test_discovered_patterns_help_on_synthetic(self):
        task = generate_synthetic(num_blocks=2, num_traces=1500, seed=11)
        discovered = discover_patterns(
            task.log_1, min_support=0.5, max_length=4, max_patterns=8
        )
        assert discovered
        result = match(
            task.log_1, task.log_2, patterns=discovered,
            method="heuristic-advanced",
        )
        quality = evaluate_mapping(result.mapping, task.truth)
        assert quality.f_measure >= 0.5


class TestSweepPipeline:
    def test_event_sweep_produces_monotone_size_series(self):
        task = generate_reallike(num_traces=300, seed=7)
        runs = sweep_events(task, (3, 5, 7), ("vertex", "heuristic-simple"))
        sizes = sorted({run.num_events for run in runs})
        assert sizes == [3, 5, 7]
        for run in runs:
            assert not run.dnf
            assert run.quality is not None


class TestRandomLogsSanity:
    def test_no_method_is_confidently_wrong(self):
        """On random logs any mapping is as good as any other; matchers
        must still terminate and return complete injective mappings."""
        task = generate_random_pair(num_events=4, num_traces=200, seed=5)
        matcher = EventMatcher(task.log_1, task.log_2)
        for method in ("pattern-tight", "heuristic-simple", "heuristic-advanced"):
            result = matcher.run(MatchOptions(method))
            assert len(result.mapping) == 4
            assert len(result.mapping.targets()) == 4
