"""Unit tests for the probe seam: null defaults, the live probe wired
through real matcher/stream runs, heartbeats, the one-place publishing
of SearchStats counters, and the SearchStats compatibility fixes."""

import json
from pathlib import Path

import pytest

from repro import EventLog, match, parse_pattern
from repro.core.stats import SearchStats
from repro.datagen import generate_reallike
from repro.obs import (
    NULL_PROBE,
    MetricsRegistry,
    ObservabilityProbe,
    Probe,
    ProgressReporter,
    Tracer,
)
from repro.obs.report import format_observability_report
from repro.stream.engine import OnlineMatcher
from repro.stream.ingest import StreamingLog

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def example_pair():
    log_1 = EventLog(["ABCDE", "ACBDF", "ABCDF", "ACBDE"] * 3)
    log_2 = EventLog(["34567", "35468", "34568", "35467"] * 3)
    pattern = parse_pattern("SEQ(A, AND(B, C), D)")
    return log_1, log_2, [pattern]


class TestNullProbe:
    def test_disabled_and_all_hooks_noop(self):
        probe = NULL_PROBE
        assert probe.enabled is False
        assert isinstance(probe, Probe)
        primitives = sorted(
            name
            for name, value in vars(Probe).items()
            if callable(value) and not name.startswith("_")
        )
        assert primitives == [
            "begin_span", "count", "end_span", "gauge", "observe", "span",
        ]
        with probe.span("anything", attr=1) as inner:
            assert inner is None
        token = probe.begin_span("x")
        assert token is None
        assert probe.end_span(token) is None
        assert probe.count("repro_x_total") is None
        assert probe.count("repro_x_total", 3, tier="bigram") is None
        assert probe.gauge("repro_x", 1.5) is None
        assert probe.observe("repro_x_seconds", 0.25, kind="exact") is None

    def test_null_span_is_reusable(self):
        first = NULL_PROBE.span("a")
        second = NULL_PROBE.span("b")
        assert first is second  # one shared no-op context manager


class TestLiveProbeOnRealMatch:
    @pytest.fixture(scope="class")
    def traced_run(self, example_pair):
        log_1, log_2, patterns = example_pair
        tracer = Tracer()
        probe = ObservabilityProbe(tracer=tracer, metrics=MetricsRegistry())
        result = match(
            log_1, log_2, patterns=patterns, method="pattern-tight",
            probe=probe,
        )
        return probe, tracer, result

    def test_nested_span_chain(self, traced_run):
        probe, tracer, _ = traced_run
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, span)
        for name in ("match.run", "astar.search", "astar.expand",
                     "frequency.eval"):
            assert name in by_name, f"missing span {name}"
        spans = {s.span_id: s for s in tracer.spans}

        def ancestors(span):
            names = []
            while span.parent_id is not None:
                span = spans[span.parent_id]
                names.append(span.name)
            return names

        # search nests under run, expansions under search, and at least
        # one frequency evaluation under an expansion.
        assert "match.run" in ancestors(by_name["astar.search"])
        assert "astar.search" in ancestors(by_name["astar.expand"])
        freq_under_expand = [
            s for s in tracer.spans
            if s.name == "frequency.eval" and "astar.expand" in ancestors(s)
        ]
        assert freq_under_expand

    def test_registry_populated(self, traced_run):
        probe, _, result = traced_run
        counters = probe.metrics.snapshot()["counters"]
        assert counters["repro_search_expansions_total"] == \
            result.stats.expanded_nodes > 0
        tier_counts = {
            key: value for key, value in counters.items()
            if key.startswith("repro_kernel_tier_total")
        }
        assert sum(tier_counts.values()) > 0
        # record_search_stats mirrored the final stats into the registry.
        assert counters["repro_stats_processed_mappings"] == \
            result.stats.processed_mappings

    def test_prometheus_and_chrome_exports_work(self, traced_run, tmp_path):
        probe, tracer, _ = traced_run
        prom = tmp_path / "m.prom"
        probe.metrics.write_prometheus(prom)
        assert "repro_search_expansions_total" in prom.read_text()
        chrome = tmp_path / "t.json"
        tracer.write_chrome(chrome)
        doc = json.loads(chrome.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_report_formats_registry(self, traced_run):
        probe, _, result = traced_run
        text = format_observability_report(
            stats=result.stats, registry=probe.metrics, label="unit"
        )
        assert "unit" in text
        assert "processed" in text or "expansions" in text


class TestOneCountOnePlace:
    """Each SearchStats quantity reaches the registry under one name."""

    #: ``(published series, its former twins, SearchStats value)`` for
    #: every quantity with a live-metric name.
    QUANTITIES = (
        ("repro_search_expansions_total",
         ("repro_stats_expanded_nodes",),
         lambda s: s.expanded_nodes),
        ("repro_search_incumbent_updates_total",
         ("repro_stats_incumbent_updates",),
         lambda s: s.incumbent_updates),
        ("repro_frequency_evaluations_total",
         ("repro_stats_frequency_evaluations",),
         lambda s: s.frequency_evaluations),
        ("repro_frequency_cache_hits_total",
         ("repro_stats_frequency_cache_hits",),
         lambda s: s.frequency_cache_hits),
        ('repro_bounds_caps_total{path="fast"}',
         ("repro_stats_extra_caps_fast_path",),
         lambda s: s.extra["caps_fast_path"]),
        ('repro_kernel_tier_total{tier="popcount"}',
         ("repro_stats_popcount_queries",),
         lambda s: s.popcount_queries),
        ('repro_kernel_tier_total{tier="bigram"}',
         ("repro_stats_bigram_queries",),
         lambda s: s.bigram_queries),
        ('repro_kernel_tier_total{tier="automaton"}',
         (),
         lambda s: s.automaton_builds + s.automaton_hits),
    )

    #: Every former twin name; none may exist any more.
    DROPPED = (
        "repro_stats_expanded_nodes",
        "repro_stats_incumbent_updates",
        "repro_stats_frequency_evaluations",
        "repro_stats_extra_caps_fast_path",
        "repro_stats_extra_caps_slow_path",
        "repro_stats_extra_parallel_chunks",
        "repro_stats_extra_parallel_steals",
    )

    @pytest.fixture(scope="class")
    def probed_run(self):
        task = generate_reallike(num_traces=300, seed=7).project_events(7)
        probe = ObservabilityProbe()
        result = match(
            task.log_1, task.log_2, patterns=task.patterns,
            method="pattern-tight", probe=probe,
        )
        return result.stats, probe.metrics.snapshot()["counters"]

    def test_each_quantity_under_one_name_equal_to_stats(self, probed_run):
        stats, counters = probed_run
        assert stats.expanded_nodes == 257
        for name, twins, value_of in self.QUANTITIES:
            assert [key for key in (name, *twins) if key in counters] == [
                name
            ]
            assert counters[name] == value_of(stats) > 0, name

    def test_no_dropped_twin_exists(self, probed_run):
        _, counters = probed_run
        for name in self.DROPPED:
            assert name not in counters, name

    def test_zero_values_publish_nothing(self, probed_run):
        stats, counters = probed_run
        assert stats.naive_queries == 0
        assert 'repro_kernel_tier_total{tier="naive"}' not in counters
        assert all(value > 0 for value in counters.values())


class TestLiveProbeOnStream:
    REFERENCE = EventLog(["ABCD"] * 8 + ["ACBD"] * 4, name="ref")
    FEED = ["wxyz"] * 8 + ["wyxz"] * 4

    def _engine(self, probe=None):
        stream = StreamingLog(name="live")
        engine = OnlineMatcher(
            self.REFERENCE,
            stream,
            patterns=[parse_pattern("SEQ(A, B, C)")],
            min_traces=1,
            probe=probe,
        )
        return engine, stream

    def test_commits_and_updates_counted(self):
        probe = ObservabilityProbe(metrics=MetricsRegistry())
        engine, stream = self._engine(probe)
        stream.extend(self.FEED)
        engine.update()
        counters = probe.metrics.snapshot()["counters"]
        assert counters["repro_stream_commits_total"] == len(self.FEED)
        assert counters["repro_stream_events_total"] == sum(
            len(word) for word in self.FEED
        )
        assert counters["repro_stream_updates_total"] == 1
        assert counters["repro_stream_rematches_total"] == 1

    def test_swapped_probe_stops_counting_and_reattach_counts_once(self):
        first = ObservabilityProbe()
        second = ObservabilityProbe()
        engine, stream = self._engine(first)
        engine.attach_probe(second)
        engine.attach_probe(second)
        stream.extend(self.FEED)

        def commits(probe):
            counters = probe.metrics.snapshot()["counters"]
            return counters.get("repro_stream_commits_total", 0)

        assert len(self.FEED) == 12
        assert commits(first) == 0
        assert commits(second) == len(self.FEED)

    def test_null_probe_run_never_subscribes(self):
        engine, stream = self._engine()
        listeners = len(stream._listeners)
        engine.attach_probe(NULL_PROBE)
        assert len(stream._listeners) == listeners

    def test_probe_is_runtime_state_not_checkpointed(self):
        probe = ObservabilityProbe(metrics=MetricsRegistry())
        engine, stream = self._engine(probe)
        stream.extend(self.FEED)
        engine.update()
        restored = OnlineMatcher.restore(engine.checkpoint())
        assert restored.probe is NULL_PROBE  # reattach explicitly
        restored.attach_probe(probe)
        assert restored.probe is probe


class TestProgressReporter:
    def test_rate_limited_heartbeats(self):
        times = iter([0.0, 1.0, 3.0, 6.0, 6.5, 12.0])
        lines = []
        reporter = ProgressReporter(
            interval=5.0, sink=lines.append, clock=lambda: next(times)
        )
        assert reporter.heartbeat(0) is False  # arms the clock
        assert reporter.heartbeat(100) is False  # 1s < interval
        assert reporter.heartbeat(200) is False  # 3s < interval
        assert reporter.heartbeat(600) is True  # 6s elapsed
        assert reporter.heartbeat(650) is False  # 0.5s since last
        assert reporter.heartbeat(1200) is True
        assert reporter.reports_emitted == 2
        # Rate uses the delta since the last emission: (600-0)/6 = 100/s.
        assert "100/s" in lines[0]

    def test_line_contents(self):
        times = iter([0.0, 10.0])
        lines = []
        reporter = ProgressReporter(
            interval=5.0, sink=lines.append, clock=lambda: next(times)
        )
        reporter.heartbeat(0)
        reporter.heartbeat(
            500, frontier_size=42, incumbent=1.25, gap=0.125
        )
        assert lines == [
            "[obs] 500 expansions (50/s), frontier 42, "
            "incumbent 1.2500, gap<=0.1250"
        ]

    def test_gauge_updates_drive_heartbeats(self):
        times = iter([0.0, 1.0, 10.0])
        lines = []
        reporter = ProgressReporter(
            interval=5.0, sink=lines.append, clock=lambda: next(times)
        )
        probe = ObservabilityProbe(reporter=reporter)
        probe.gauge("repro_search_frontier_size", 3)  # arms the clock
        probe.gauge("repro_search_frontier_size", 5)  # 1s < interval
        probe.gauge("repro_search_incumbent_score", 1.25)
        probe.gauge("repro_search_bound_gap", 0.125)
        probe.gauge("repro_search_frontier_size", 42)
        assert lines == [
            "[obs] 3 expansions (0/s), frontier 42, "
            "incumbent 1.2500, gap<=0.1250"
        ]

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ProgressReporter(interval=0.0)


class TestSearchStatsCompat:
    def test_merge_keeps_extra_ints_int(self):
        a = SearchStats(extra={"degraded_runs": 1})
        b = SearchStats(extra={"degraded_runs": 2, "gap": 0.5})
        a.merge(b)
        assert a.extra["degraded_runs"] == 3
        assert isinstance(a.extra["degraded_runs"], int)
        assert a.extra["gap"] == pytest.approx(0.5)

    def test_to_dict_round_trip(self):
        stats = SearchStats(
            processed_mappings=7, expanded_nodes=3, extra={"x": 1}
        )
        payload = stats.to_dict()
        assert payload["processed_mappings"] == 7
        assert payload["expanded_nodes"] == 3
        assert payload["extra"] == {"x": 1}
        assert payload["extra"] is not stats.extra  # a copy
        json.dumps(payload)  # JSON-safe


class TestOverheadGuard:
    def test_recorded_disabled_overhead_under_target(self):
        """Reads the latest benchmark record; CI refreshes it every run."""
        path = REPO_ROOT / "BENCH_obs_overhead.json"
        if not path.exists():
            pytest.skip(
                "no BENCH_obs_overhead.json — run "
                "benchmarks/bench_obs_overhead.py first"
            )
        records = json.loads(path.read_text())
        latest = records[-1]
        target = latest["params"]["overhead_target_pct"]
        measured = latest["results"]["analytic_overhead_pct"]
        assert measured < target, (
            f"recorded disabled-probe overhead {measured}% exceeds "
            f"{target}%"
        )
