"""Checkpoint/restore: kill a stream mid-flight, resume, converge.

The acceptance bar: a matching run interrupted by checkpoint+restore
must reach the same mapping and score as an uninterrupted run over the
same feed.
"""

import json

import pytest

from repro.datagen import generate_reallike
from repro.log.events import Trace
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.quarantine import QuarantineStore
from repro.resilience.validation import TraceValidator
from repro.stream.engine import OnlineMatcher
from repro.stream.ingest import StreamingLog


@pytest.fixture(scope="module")
def task():
    return generate_reallike(num_traces=160, seed=41)


def _fresh_engine(task):
    stream = StreamingLog(
        name="live", validator=TraceValidator(), quarantine=QuarantineStore()
    )
    engine = OnlineMatcher(
        task.log_1, stream, patterns=task.patterns,
        min_traces=20, check_every=25,
    )
    return engine


def _feed(engine, traces, batch=20):
    for position, trace in enumerate(traces):
        engine.stream.append_trace(trace)
        if (position + 1) % batch == 0:
            engine.update()
    engine.update()


class TestKillAndResume:
    def test_resumed_run_matches_uninterrupted_run(self, task, tmp_path):
        feed = task.log_2.traces

        uninterrupted = _fresh_engine(task)
        _feed(uninterrupted, feed)

        # "Kill" halfway: checkpoint, drop the live engine, restore.
        half = len(feed) // 2
        first_leg = _fresh_engine(task)
        _feed(first_leg, feed[:half])
        path = tmp_path / "engine.ckpt.json"
        save_checkpoint(first_leg, path)
        del first_leg

        resumed = load_checkpoint(path)
        _feed(resumed, feed[half:])

        assert resumed.mapping == uninterrupted.mapping
        assert resumed.current_score() == pytest.approx(
            uninterrupted.current_score()
        )
        assert len(resumed.stream) == len(uninterrupted.stream)
        resumed.deltas.verify()

    def test_open_cases_survive_the_checkpoint(self, task, tmp_path):
        engine = _fresh_engine(task)
        engine.stream.append_event("dangling", "A")
        engine.stream.append_event("dangling", "B")
        path = tmp_path / "open.ckpt.json"
        save_checkpoint(engine, path)

        resumed = load_checkpoint(path)
        assert resumed.stream.open_cases() == {"dangling": ("A", "B")}
        resumed.stream.append_event("dangling", "C")
        assert resumed.stream.close_trace("dangling") == 0
        assert resumed.stream.log[0] == Trace("ABC")

    def test_quarantine_history_survives(self, task, tmp_path):
        engine = _fresh_engine(task)
        engine.stream.append_trace(Trace([], case_id="empty"))  # rejected
        engine.stream.append_trace(Trace("AB", case_id="ok"))
        engine.stream.append_trace(Trace("AB", case_id="ok"))  # duplicate
        path = tmp_path / "quarantine.ckpt.json"
        save_checkpoint(engine, path)

        resumed = load_checkpoint(path)
        store = resumed.stream.quarantine
        assert store.total_seen == 2
        assert resumed.stream.recovery.quarantined_traces == 2
        # Duplicate detection still works against the restored case set.
        assert resumed.stream.append_trace(Trace("AB", case_id="ok")) is None
        assert store.total_seen == 3

    def test_history_and_recovery_counters_survive(self, task, tmp_path):
        engine = _fresh_engine(task)
        _feed(engine, task.log_2.traces[:60])
        engine.deltas.recovery.rebuilds = 2  # pretend a healed divergence
        path = tmp_path / "hist.ckpt.json"
        save_checkpoint(engine, path)

        resumed = load_checkpoint(path)
        assert len(resumed.history) == len(engine.history)
        assert resumed.history[-1] == engine.history[-1]
        assert resumed.baseline_score == pytest.approx(engine.baseline_score)
        assert resumed.deltas.recovery.rebuilds == 2


class TestCheckpointFormat:
    def test_document_is_versioned_json(self, task, tmp_path):
        engine = _fresh_engine(task)
        path = tmp_path / "fmt.ckpt.json"
        save_checkpoint(engine, path)
        document = json.loads(path.read_text())
        assert document["format"] == "repro-online-checkpoint"
        assert document["version"] == CHECKPOINT_VERSION

    def test_unknown_version_refused(self, task, tmp_path):
        engine = _fresh_engine(task)
        path = tmp_path / "future.ckpt.json"
        save_checkpoint(engine, path)
        document = json.loads(path.read_text())
        document["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_invalid_config_refused(self, task, tmp_path):
        engine = _fresh_engine(task)
        path = tmp_path / "bad-config.ckpt.json"
        save_checkpoint(engine, path)
        document = json.loads(path.read_text())
        document["state"]["config"]["node_budget"] = "ten"
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="node_budget") as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)

    def test_wrong_format_refused(self, task, tmp_path):
        path = tmp_path / "alien.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_corrupt_file_refused(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")
