"""Unit tests for the metrics registry and its two writers."""

import json

import pytest

from repro.core.matcher import match
from repro.datagen import generate_reallike
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    record_counts,
    sanitize_metric_name,
)
from repro.obs.probe import ObservabilityProbe


class TestPrimitives:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_frontier")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_histogram_buckets_and_moments(self):
        hist = MetricsRegistry().histogram(
            "repro_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(56.05)
        assert hist.cumulative() == [
            (0.1, 1),
            (1.0, 3),
            (10.0, 4),
            (float("inf"), 5),
        ]

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_empty", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_series(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_a") is registry.counter("repro_a")

    def test_label_sets_are_independent_series(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_tier_total", labels={"tier": "bigram"})
        b = registry.counter("repro_tier_total", labels={"tier": "automaton"})
        assert a is not b
        a.inc(3)
        assert b.value == 0

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x", labels={"a": "1", "b": "2"})
        b = registry.counter("repro_x", labels={"b": "2", "a": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_thing")

    def test_name_sanitization(self):
        assert sanitize_metric_name("repro_ok_total") == "repro_ok_total"
        assert sanitize_metric_name("repro.dotted-name") == "repro_dotted_name"
        assert sanitize_metric_name("0starts_bad")[0] == "_"


class TestPrometheusExposition:
    def test_counter_and_gauge_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_runs_total", "Completed runs").inc(3)
        registry.gauge("repro_frontier_size", "Open nodes").set(17)
        text = registry.to_prometheus()
        assert "# HELP repro_frontier_size Open nodes\n" in text
        assert "# TYPE repro_frontier_size gauge\n" in text
        assert "repro_frontier_size 17\n" in text
        assert "# TYPE repro_runs_total counter\n" in text
        assert "repro_runs_total 3\n" in text
        assert text.endswith("\n")

    def test_labelled_series_share_one_family_header(self):
        registry = MetricsRegistry()
        registry.counter("repro_tier_total", "t", labels={"tier": "a"}).inc()
        registry.counter("repro_tier_total", "t", labels={"tier": "b"}).inc(2)
        text = registry.to_prometheus()
        assert text.count("# TYPE repro_tier_total counter") == 1
        assert 'repro_tier_total{tier="a"} 1\n' in text
        assert 'repro_tier_total{tier="b"} 2\n' in text

    def test_histogram_exposition_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_seconds", "Durations", buckets=(0.5, 2.0)
        )
        for value in (0.1, 1.0, 9.0):
            hist.observe(value)
        text = registry.to_prometheus()
        assert "# TYPE repro_seconds histogram\n" in text
        assert 'repro_seconds_bucket{le="0.5"} 1\n' in text
        assert 'repro_seconds_bucket{le="2"} 2\n' in text
        assert 'repro_seconds_bucket{le="+Inf"} 3\n' in text
        assert "repro_seconds_sum 10.1\n" in text
        assert "repro_seconds_count 3\n" in text

    def test_inf_bucket_equals_count_even_with_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_h", buckets=(1.0,))
        hist.observe(100.0)  # beyond every finite bound
        rows = dict(hist.cumulative())
        assert rows[float("inf")] == hist.count == 1
        assert rows[1.0] == 0

    def test_parseable_line_structure(self):
        # Every non-comment line is "<series> <number>".
        registry = MetricsRegistry()
        registry.counter("repro_a", "help a").inc()
        registry.histogram("repro_b", labels={"k": "v"}).observe(0.2)
        for line in registry.to_prometheus().strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            series, value = line.rsplit(" ", 1)
            float(value)  # must parse
            assert series


class TestJsonSnapshot:
    def test_snapshot_groups_by_kind(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_c", labels={"k": "v"}).inc(2)
        registry.gauge("repro_g").set(1.5)
        registry.histogram("repro_h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {'repro_c{k="v"}': 2}
        assert snap["gauges"] == {"repro_g": 1.5}
        assert snap["histograms"]["repro_h"]["count"] == 1
        assert snap["histograms"]["repro_h"]["buckets"] == {"1": 1, "+Inf": 1}
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        assert json.loads(path.read_text()) == snap


class TestRecordCounts:
    def test_feeds_flat_dict_as_counters(self):
        probe = ObservabilityProbe()
        record_counts(
            probe,
            {"processed_mappings": 5, "score": 1.5, "name": "skip-me",
             "flag": True, "negative": -3, "label_updates": 0,
             "expanded_nodes": 4, "bigram_queries": 2,
             "automaton_builds": 1, "automaton_hits": 2},
        )
        snapshot = probe.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["repro_stats_processed_mappings"] == 5
        # A float is a per-run value: it sets a gauge, never a counter.
        assert snapshot["gauges"]["repro_stats_score"] == 1.5
        assert "repro_stats_score" not in counters
        # Strings, bools, zeros and negatives produce no series.
        assert "repro_stats_name" not in counters
        assert "repro_stats_flag" not in counters
        assert "repro_stats_negative" not in counters
        assert "repro_stats_label_updates" not in counters
        # Quantities with a live-metric name publish under it alone.
        assert counters["repro_search_expansions_total"] == 4
        assert "repro_stats_expanded_nodes" not in counters
        assert counters['repro_kernel_tier_total{tier="bigram"}'] == 2
        assert counters['repro_kernel_tier_total{tier="automaton"}'] == 3
        assert counters["repro_stats_automaton_builds"] == 1
        text = probe.metrics.to_prometheus()
        assert "# HELP repro_stats_processed_mappings " in text
        assert "# HELP repro_search_expansions_total " in text

    def test_nested_dicts_join_prefix(self):
        probe = ObservabilityProbe()
        record_counts(
            probe,
            {"extra": {"degraded_runs": 2, "caps_fast_path": 7,
                       "caps_slow_path": 1, "parallel_steals": 3}},
        )
        counters = probe.metrics.snapshot()["counters"]
        assert counters["repro_stats_extra_degraded_runs"] == 2
        assert counters['repro_bounds_caps_total{path="fast"}'] == 7
        assert counters['repro_bounds_caps_total{path="slow"}'] == 1
        assert counters["repro_parallel_steals_total"] == 3
        assert not any(key.startswith("repro_stats_extra_caps")
                       for key in counters)

    def test_float_values_set_gauges_holding_the_last_run(self):
        probe = ObservabilityProbe()
        for gap, seed_score in ((0.5, 28.4), (0.0, 30.1)):
            record_counts(
                probe,
                {"extra": {"optimality_gap": gap,
                           "parallel_seed_score": seed_score,
                           "degraded_runs": 1}},
            )
        snapshot = probe.metrics.snapshot()
        assert snapshot["gauges"]["repro_stats_extra_optimality_gap"] == 0.0
        assert snapshot["gauges"][
            "repro_stats_extra_parallel_seed_score"
        ] == 30.1
        assert snapshot["counters"]["repro_stats_extra_degraded_runs"] == 2

    def test_blocked_runs_publish_per_run_values_as_gauges(self):
        task = generate_reallike(num_traces=300, seed=7)
        probe = ObservabilityProbe()
        for _ in range(2):
            result = match(
                task.log_1, task.log_2, patterns=task.patterns,
                blocking=True, probe=probe,
            )
        extra = result.stats.extra
        text = probe.metrics.to_prometheus()
        gauges = probe.metrics.snapshot()["gauges"]
        for key in ("blocking_gap_cross", "blocking_elapsed_seconds"):
            name = f"repro_stats_extra_{key}"
            assert f"# TYPE {name} gauge" in text
            assert gauges[name] == extra[key]
        # The pruned ratio publishes once, under its blocking name.
        assert "# TYPE repro_blocking_pruned_ratio gauge" in text
        assert gauges["repro_blocking_pruned_ratio"] == (
            extra["blocking_pruned_ratio"]
        )
        assert "repro_stats_extra_blocking_pruned_ratio" not in text

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
