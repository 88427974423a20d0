"""Tests for repro.stream.engine (OnlineMatcher) and warm-started matching."""

import gc
import json
import weakref

import pytest

from repro.cli import main
from repro.core.distance import frequency_similarity
from repro.core.mapping import Mapping
from repro.core.matcher import match
from repro.core.scoring import ScoreModel, build_pattern_set
from repro.evaluation.reporting import format_stream_report
from repro.log.csvio import write_csv
from repro.log.eventlog import EventLog
from repro.obs.probe import ObservabilityProbe
from repro.patterns.matching import pattern_frequency
from repro.patterns.parser import parse_pattern
from repro.stream.engine import OnlineMatcher
from repro.stream.ingest import StreamingLog

#: Reference: a 4-event workflow, A→B→C dominant with some A→C→B.
REFERENCE = EventLog(["ABCD"] * 12 + ["ACBD"] * 6 + ["ABD"] * 2, name="ref")
#: The same distribution under the truth mapping A→w, B→x, C→y, D→z.
STEADY_FEED = ["wxyz"] * 12 + ["wyxz"] * 6 + ["wxz"] * 2
#: A drifted regime: the dominant order flips and the short variant grows.
SHIFTED_FEED = ["wyxz"] * 16 + ["wxz"] * 12 + ["wxyz"] * 2
PATTERNS = [parse_pattern("SEQ(A, B, C)"), parse_pattern("AND(B, C)")]


def make_engine(**overrides):
    stream = StreamingLog(name="live")
    defaults = dict(
        patterns=PATTERNS,
        drift_threshold=0.05,
        exact_cutoff=6,
        min_traces=1,
    )
    defaults.update(overrides)
    return OnlineMatcher(REFERENCE, stream, **defaults), stream


class TestUpdatePolicy:
    def test_holds_below_min_traces(self):
        engine, stream = make_engine(min_traces=10)
        stream.extend(STEADY_FEED[:5])
        record = engine.update()
        assert not record.rematched
        assert engine.mapping is None
        assert record.score == 0.0

    def test_cold_start_uses_exact_below_cutoff(self):
        engine, stream = make_engine()
        stream.extend(STEADY_FEED)
        record = engine.update()
        assert record.rematched
        assert record.reason == "cold-start"
        assert record.method == "pattern-tight"
        assert engine.mapping is not None
        assert len(engine.mapping) == 4

    def test_heuristic_above_cutoff(self):
        engine, stream = make_engine(exact_cutoff=2)
        stream.extend(STEADY_FEED)
        record = engine.update()
        assert record.method == "heuristic-advanced"

    def test_steady_traffic_holds(self):
        engine, stream = make_engine()
        stream.extend(STEADY_FEED)
        engine.update()
        stream.extend(STEADY_FEED)  # same distribution again
        record = engine.update()
        assert not record.rematched
        assert record.drift <= engine.drift_threshold

    def test_drift_triggers_rematch(self):
        engine, stream = make_engine()
        stream.extend(STEADY_FEED)
        engine.update()
        stream.extend(SHIFTED_FEED * 3)
        record = engine.update()
        assert record.rematched
        assert record.reason == "drift"
        assert record.drift > engine.drift_threshold
        # Baseline resets to the re-matched score.
        assert engine.baseline_score == pytest.approx(engine.current_score())

    def test_new_target_event_triggers_rematch(self):
        engine, stream = make_engine()
        stream.extend(STEADY_FEED)
        engine.update()
        stream.append_trace("wxyzq")  # brand-new event q
        record = engine.update()
        assert record.rematched
        assert record.reason == "alphabet-grew"

    def test_history_records_every_update(self):
        engine, stream = make_engine()
        stream.extend(STEADY_FEED)
        engine.update()
        stream.extend(STEADY_FEED)
        engine.update()
        assert [record.update_id for record in engine.history] == [0, 1]
        assert engine.history[0].rematched
        assert not engine.history[1].rematched


class TestScoreConsistency:
    def test_current_score_matches_batch_recompute(self):
        """The delta-maintained D^N(M) equals a from-scratch evaluation."""
        engine, stream = make_engine()
        stream.extend(STEADY_FEED)
        engine.update()
        stream.extend(SHIFTED_FEED)  # drift the live frequencies

        mapping = engine.mapping.as_dict()
        snapshot = stream.snapshot()
        expected = 0.0
        for pattern in build_pattern_set(REFERENCE, complex_patterns=PATTERNS):
            if not pattern.event_set() <= set(mapping):
                continue
            f1 = pattern_frequency(REFERENCE, pattern)
            f2 = pattern_frequency(snapshot, pattern.rename(mapping))
            expected += frequency_similarity(f1, f2)
        assert engine.current_score() == pytest.approx(expected)

    def test_rematch_score_equals_live_score(self):
        """Right after a re-match the baseline is the realized score."""
        engine, stream = make_engine()
        stream.extend(STEADY_FEED)
        record = engine.update()
        assert record.score == pytest.approx(engine.current_score())
        deltas = engine.deltas
        deltas.verify()


class TestWarmStart:
    def test_exact_warm_start_preserves_optimality(self):
        log_2 = EventLog(STEADY_FEED, name="two")
        cold = match(REFERENCE, log_2, patterns=PATTERNS, method="pattern-tight")
        warm = match(
            REFERENCE,
            log_2,
            patterns=PATTERNS,
            method="pattern-tight",
            warm_start=cold.mapping,
        )
        assert warm.score == pytest.approx(cold.score)

    def test_heuristic_warm_start_never_scores_below_seed(self):
        log_2 = EventLog(STEADY_FEED, name="two")
        seed = Mapping({"A": "w", "B": "x", "C": "y", "D": "z"})
        result = match(
            REFERENCE,
            log_2,
            patterns=PATTERNS,
            method="heuristic-advanced",
            warm_start=seed,
        )
        model = ScoreModel(
            REFERENCE, log_2, build_pattern_set(REFERENCE, PATTERNS)
        )
        assert result.score >= model.g(dict(seed)) - 1e-9

    def test_warm_start_with_vanished_events_is_sanitized(self):
        log_2 = EventLog(STEADY_FEED, name="two")
        stale = Mapping({"A": "w", "GONE": "x", "B": "vanished-target"})
        result = match(
            REFERENCE,
            log_2,
            patterns=PATTERNS,
            method="heuristic-advanced",
            warm_start=stale,
        )
        assert len(result.mapping) == 4  # full mapping despite junk seed


class TestSessionLifetime:
    @pytest.mark.parametrize("probed", [False, True])
    def test_finished_session_frees_without_a_collection(self, probed):
        # Reference counting alone must free a dropped session: no
        # stream -> listener -> engine/delta-state -> stream cycle.
        gc.collect()
        gc.disable()
        try:
            engine, stream = make_engine(
                probe=ObservabilityProbe() if probed else None
            )
            stream.extend(STEADY_FEED)
            engine.update()
            stream.extend(SHIFTED_FEED * 3)
            assert engine.update().rematched
            log = weakref.ref(stream.log)
            del engine, stream
            assert log() is None
        finally:
            gc.enable()


class TestStreamReportAndCli:
    def test_format_stream_report_rows(self):
        engine, stream = make_engine()
        stream.extend(STEADY_FEED)
        engine.update()
        stream.extend(STEADY_FEED)
        engine.update()
        report = format_stream_report(engine.history)
        lines = report.splitlines()
        assert "action" in lines[0]
        assert len(lines) == 4  # header, rule, two rows
        assert "re-match[cold-start]:pattern-tight" in report
        assert "hold" in report

    def test_cli_stream_end_to_end(self, tmp_path, capsys):
        reference_path = tmp_path / "ref.csv"
        feed_path = tmp_path / "feed.csv"
        output_path = tmp_path / "mapping.json"
        write_csv(REFERENCE, reference_path)
        write_csv(EventLog(STEADY_FEED + SHIFTED_FEED, name="feed"), feed_path)
        code = main(
            [
                "stream",
                str(reference_path),
                str(feed_path),
                "--pattern", "SEQ(A, B, C)",
                "--batch-size", "10",
                "--min-traces", "10",
                "--output", str(output_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "re-match[cold-start]" in captured.out
        assert "traces ingested" in captured.out
        saved = json.loads(output_path.read_text())
        assert set(saved) == {"A", "B", "C", "D"}

    def test_cli_stream_empty_feed_fails(self, tmp_path, capsys):
        reference_path = tmp_path / "ref.csv"
        feed_path = tmp_path / "feed.csv"
        write_csv(REFERENCE, reference_path)
        write_csv(EventLog([], name="feed"), feed_path)
        code = main(
            ["stream", str(reference_path), str(feed_path), "--min-traces", "5"]
        )
        assert code == 1
        assert "no mapping" in capsys.readouterr().err
