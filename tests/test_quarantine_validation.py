"""Unit tests for repro.resilience validation, quarantine and reporting."""

import re

import pytest

from repro.log.events import Trace
from repro.obs.report import format_observability_report
from repro.resilience.quarantine import (
    QuarantineRecord,
    QuarantineStore,
    sanitize_events,
)
from repro.resilience.recovery import RecoveryStats
from repro.resilience.validation import TraceValidator
from repro.stream.ingest import StreamingLog


class TestTraceValidator:
    def test_clean_trace_passes(self):
        assert TraceValidator().validate(["A", "B", "C"]) == []

    def test_empty_trace_rejected(self):
        assert "empty trace" in TraceValidator().validate([])

    def test_non_string_event_names_position(self):
        reasons = TraceValidator().validate(["A", None, "C"])
        assert any("position 1" in reason for reason in reasons)
        assert any("non-string" in reason for reason in reasons)

    def test_empty_event_name_rejected(self):
        reasons = TraceValidator().validate(["A", "", "C"])
        assert any("empty event name at position 1" in r for r in reasons)

    def test_length_limit(self):
        validator = TraceValidator(max_trace_length=3)
        assert validator.validate(["A"] * 3) == []
        reasons = validator.validate(["A"] * 4)
        assert any("exceeds limit 3" in reason for reason in reasons)

    def test_alphabet_restriction(self):
        validator = TraceValidator(allowed_alphabet={"A", "B"})
        assert validator.validate(["A", "B"]) == []
        reasons = validator.validate(["A", "X"])
        assert any("outside the allowed alphabet" in r for r in reasons)

    def test_duplicate_case_detection(self):
        validator = TraceValidator()
        committed = {"c1"}
        assert validator.validate(["A"], "c2", committed) == []
        reasons = validator.validate(["A"], "c1", committed)
        assert reasons == ["duplicate case id 'c1'"]

    def test_duplicates_allowed_when_configured(self):
        validator = TraceValidator(forbid_duplicate_cases=False)
        assert validator.validate(["A"], "c1", {"c1"}) == []

    def test_payload_round_trip(self):
        validator = TraceValidator(
            max_trace_length=7,
            allowed_alphabet={"A", "B"},
            forbid_duplicate_cases=False,
        )
        restored = TraceValidator.from_payload(validator.to_payload())
        assert restored.max_trace_length == 7
        assert restored.allowed_alphabet == frozenset({"A", "B"})
        assert restored.forbid_duplicate_cases is False


class TestQuarantineStore:
    def _record(self, reason="bad", case_id=None):
        return QuarantineRecord(
            kind="trace", reason=reason, case_id=case_id, events=("A",)
        )

    def test_records_and_counters(self):
        store = QuarantineStore()
        assert not store
        assert store.add(self._record("r1"))
        assert store.add(self._record("r1"))
        assert store.add(self._record("r2"))
        assert store.total_seen == 3
        assert len(store) == 3
        assert store.counts_by_reason() == {"r1": 2, "r2": 1}

    def test_capacity_bound_keeps_counting(self):
        store = QuarantineStore(capacity=2)
        assert store.add(self._record())
        assert store.add(self._record())
        assert not store.add(self._record())  # payload dropped
        assert len(store) == 2
        assert store.total_seen == 3
        assert store.dropped == 1
        assert "3 rejects" in store.summary()

    def test_payload_round_trip(self):
        store = QuarantineStore(capacity=5)
        store.add(self._record("r", case_id="c9"))
        restored = QuarantineStore.from_payload(store.to_payload())
        assert restored.capacity == 5
        assert restored.total_seen == 1
        assert restored.records[0].case_id == "c9"
        assert restored.counts_by_reason() == {"r": 1}

    def test_sanitize_events_renders_corrupt_payloads(self):
        assert sanitize_events(["A", None, 7]) == ("A", "None", "7")


class TestValidatedStream:
    def test_rejects_quarantined_not_raised(self):
        stream = StreamingLog(validator=TraceValidator())
        assert stream.append_trace(Trace("AB", case_id="c1")) == 0
        assert stream.append_trace([]) is None  # empty
        assert stream.append_trace(Trace("AB", case_id="c1")) is None  # dup
        assert len(stream) == 1
        assert stream.quarantine.total_seen == 2
        assert stream.recovery.quarantined_traces == 2

    def test_corrupt_event_quarantines_at_close(self):
        stream = StreamingLog(validator=TraceValidator())
        stream.append_event("c1", "A")
        stream.append_event("c1", None)  # accepted raw, judged at close
        assert stream.close_trace("c1") is None
        record = stream.quarantine.records[0]
        assert record.kind == "trace"
        assert "non-string event at position 1" in record.reason
        assert record.events == ("A", "None")

    def test_trusting_stream_still_raises_on_non_string(self):
        stream = StreamingLog()
        with pytest.raises(TypeError):
            stream.append_event("c1", None)

    def test_listener_isolation(self):
        stream = StreamingLog(validator=TraceValidator())
        seen = []

        def exploding(trace_id, trace):
            raise RuntimeError("boom")

        stream.subscribe(exploding)
        stream.subscribe(lambda trace_id, trace: seen.append(trace_id))
        assert stream.append_trace(Trace("AB", case_id="c1")) == 0
        # The commit survived, later listeners ran, the error is counted.
        assert seen == [0]
        assert stream.recovery.listener_errors == 1
        errors = [
            r for r in stream.quarantine.records if r.kind == "listener-error"
        ]
        assert len(errors) == 1
        assert "boom" in errors[0].reason

    def test_unvalidated_stream_propagates_listener_errors(self):
        stream = StreamingLog()
        stream.subscribe(lambda *_: (_ for _ in ()).throw(RuntimeError("x")))
        with pytest.raises(RuntimeError):
            stream.append_trace("AB")


class TestRecoveryStats:
    def test_merge_and_total(self):
        a = RecoveryStats(quarantined_traces=2, rebuilds=1)
        b = RecoveryStats(listener_errors=3)
        combined = a.merged_with(b)
        assert combined.quarantined_traces == 2
        assert combined.listener_errors == 3
        assert combined.total() == 6
        assert a.total() == 3  # unchanged

    def test_dict_round_trip(self):
        stats = RecoveryStats(verifications=4, divergences=1)
        assert RecoveryStats.from_dict(stats.as_dict()) == stats

    def test_report_renders_counters_and_quarantine(self):
        stats = RecoveryStats(quarantined_traces=2, rebuilds=1)
        store = QuarantineStore()
        store.add(QuarantineRecord(kind="trace", reason="empty trace"))
        text = format_observability_report(recovery=stats, quarantine=store)
        assert re.search(r"^  quarantined_traces +2$", text, re.MULTILINE)
        assert re.search(r"^  rebuilds +1$", text, re.MULTILINE)
        assert "empty trace" in text
