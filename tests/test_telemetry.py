"""End-to-end observability: trace propagation, harvest, logs, profiler.

The two centerpiece tests mirror the PR's acceptance criteria:

* ``test_trace_id_propagates_http_to_trace_file`` drives a job over the
  HTTP API with an ``X-Trace-Id`` header and asserts the same id is on
  the queued job, inside the worker's spans, and in the merged Chrome
  trace the API serves back.
* ``test_spans_survive_worker_kill_with_retry_lineage`` SIGKILLs the
  pool worker that ran attempt 1 and asserts the merged trace still
  shows that attempt's spans — killed pid and all — as a sibling lane
  of the successful retry.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.log.eventlog import EventLog
from repro.obs.logs import JsonFormatter, LogRingBuffer, bind, record_to_doc
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SamplingProfiler, profile_for
from repro.obs.telemetry import (
    SpanSpool,
    TelemetryHub,
    WorkerTelemetry,
    new_trace_id,
    read_spool,
    validate_trace_id,
)
from repro.obs import benchtrend
from repro.parallel import pool as pool_module
from repro.resilience.supervise import RetryPolicy
from repro.service import workers as workers_module
from repro.service.api import ServiceAPI
from repro.service.daemon import MatchingService

LEFT = EventLog(
    [
        ["request", "validate", "approve", "archive"],
        ["request", "validate", "reject"],
        ["request", "approve", "archive"],
    ],
    name="left",
)
RIGHT = EventLog(
    [
        ["req_recv", "req_check", "req_ok", "req_store"],
        ["req_recv", "req_check", "req_deny"],
        ["req_recv", "req_ok", "req_store"],
    ],
    name="right",
)
PATTERNS = ("SEQ(request, validate)",)


def make_service(tmp_path, **kwargs) -> MatchingService:
    kwargs.setdefault("processes", 0)
    kwargs.setdefault("settle_polls", 0)
    kwargs.setdefault("checkpoint_every", None)
    service = MatchingService(tmp_path / "state", **kwargs)
    service.registry.register("left", LEFT)
    service.registry.register("right", RIGHT)
    return service


# ----------------------------------------------------------------------
# Trace-id plumbing
# ----------------------------------------------------------------------
class TestTraceIds:
    def test_new_trace_ids_are_valid_and_distinct(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(validate_trace_id(i) == i for i in ids)

    def test_validate_rejects_junk(self):
        assert validate_trace_id(None) is None
        assert validate_trace_id("") is None
        assert validate_trace_id("has space") is None
        assert validate_trace_id("x" * 65) is None
        assert validate_trace_id(123) is None
        assert validate_trace_id("ok-id_42") == "ok-id_42"


# ----------------------------------------------------------------------
# Span spools
# ----------------------------------------------------------------------
class TestSpanSpool:
    def test_round_trip(self, tmp_path):
        spool = SpanSpool(
            tmp_path / "j.a1.p1.spans.jsonl", {"trace_id": "t1", "pid": 1}
        )
        spool.add({"name": "a", "start_s": 0.0, "end_s": 1.0})
        spool.add({"name": "b", "start_s": 1.0, "end_s": 2.0})
        spool.close()
        meta, spans = read_spool(tmp_path / "j.a1.p1.spans.jsonl")
        assert meta["trace_id"] == "t1"
        assert [s["name"] for s in spans] == ["a", "b"]

    def test_torn_tail_keeps_completed_prefix(self, tmp_path):
        path = tmp_path / "j.a1.p1.spans.jsonl"
        spool = SpanSpool(path, {"trace_id": "t1"})
        spool.add({"name": "a"})
        spool.add({"name": "b"})
        # Simulate a SIGKILL mid-write: no end trailer, and the last
        # span line is torn inside its JSON.
        spool._handle.flush()
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        meta, spans = read_spool(path)
        assert meta["trace_id"] == "t1"
        assert [s["name"] for s in spans] == ["a"]

    def test_byte_budget_drops_and_counts(self, tmp_path):
        spool = SpanSpool(tmp_path / "j.a1.p1.spans.jsonl", {}, max_bytes=200)
        for i in range(100):
            spool.add({"name": f"span-{i}", "pad": "x" * 40})
        spool.close()
        assert spool.dropped > 0
        _, spans = read_spool(tmp_path / "j.a1.p1.spans.jsonl")
        assert 0 < len(spans) < 100


# ----------------------------------------------------------------------
# Worker sessions and the metric-delta fold
# ----------------------------------------------------------------------
class TestWorkerSessionAndFold:
    def run_job(self, tmp_path, telemetry):
        from repro.log.csvio import write_csv

        write_csv(LEFT, tmp_path / "l.csv")
        write_csv(RIGHT, tmp_path / "r.csv")
        payload = {
            "paths": (str(tmp_path / "l.csv"), str(tmp_path / "r.csv")),
            "patterns": list(PATTERNS),
            "method": "pattern-tight",
        }
        if telemetry is not None:
            payload["telemetry"] = telemetry
        return workers_module.execute_match_job(payload)

    def test_session_spools_spans_and_counters(self, tmp_path):
        spool_dir = tmp_path / "spools"
        spool_dir.mkdir()
        result = self.run_job(
            tmp_path,
            {
                "spool_dir": str(spool_dir),
                "trace_id": "trace-x",
                "job_id": "job-1",
                "attempt": 1,
            },
        )
        summary = result["telemetry"]
        assert summary["trace_id"] == "trace-x"
        assert summary["status"] == "ok"
        assert summary["spans"] > 0
        assert any(r["value"] > 0 for r in summary["counters"])
        [spool] = spool_dir.iterdir()
        meta, spans = read_spool(spool)
        assert meta["trace_id"] == "trace-x"
        assert spans[-1]["name"] == "job.execute"  # root closes last
        assert {s["name"] for s in spans} > {"job.execute"}

    def test_no_telemetry_payload_means_no_telemetry_key(self, tmp_path):
        result = self.run_job(tmp_path, None)
        assert "telemetry" not in result

    def test_fold_outcome_is_exactly_once(self, tmp_path):
        registry = MetricsRegistry()
        hub = TelemetryHub(tmp_path, registry=registry)
        summary = {
            "trace_id": "t",
            "job_id": "job-1",
            "attempt": 2,
            "pid": 4242,
            "counters": [
                {
                    "name": "repro_search_expansions_total",
                    "labels": {},
                    "value": 17,
                }
            ],
        }
        assert hub.fold_outcome(summary) is True
        # A duplicate harvest of the same attempt must not double-count.
        assert hub.fold_outcome(dict(summary)) is False
        # A different attempt of the same job folds again.
        assert hub.fold_outcome(dict(summary, attempt=3)) is True
        text = registry.to_prometheus()
        assert 'repro_worker_search_expansions_total{worker="4242"} 34' in text
        assert hub.stats["metric_folds"] == 2


# ----------------------------------------------------------------------
# HTTP → queue → worker → merged trace file
# ----------------------------------------------------------------------
class TestTracePropagationOverHTTP:
    @pytest.fixture
    def served(self, tmp_path):
        service = make_service(tmp_path)
        api = ServiceAPI(service).start()
        yield service, api
        api.stop()
        service.shutdown()

    def test_trace_id_propagates_http_to_trace_file(self, served):
        service, api = served
        request = urllib.request.Request(
            api.address + "/jobs",
            data=json.dumps(
                {"log_1": "left", "log_2": "right", "patterns": list(PATTERNS)}
            ).encode(),
            method="POST",
            headers={"X-Trace-Id": "e2e-trace-0001"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 202
            assert response.headers["X-Trace-Id"] == "e2e-trace-0001"
            job_id = json.loads(response.read())["job_id"]

        # The queued job carries the caller's trace id.
        assert service.jobs.get(job_id).trace_id == "e2e-trace-0001"
        service.run_until_idle()

        with urllib.request.urlopen(
            api.address + f"/jobs/{job_id}/trace"
        ) as response:
            document = json.loads(response.read())
        assert document["otherData"]["trace_id"] == "e2e-trace-0001"
        assert document["otherData"]["job_id"] == job_id
        worker_spans = [
            e for e in document["traceEvents"] if e.get("cat") == "worker"
        ]
        assert any(e["name"] == "job.execute" for e in worker_spans)
        assert all(
            e["args"]["trace_id"] == "e2e-trace-0001" for e in worker_spans
        )
        # The daemon-plane dispatch→harvest span shares the timeline.
        assert any(
            e.get("cat") == "daemon" and e["name"] == "job.attempt"
            for e in document["traceEvents"]
        )
        # The merged trace file is also on disk under the state dir.
        assert service.telemetry.trace_path(job_id).exists()

    def test_worker_metrics_reach_prometheus_export(self, served):
        service, api = served
        job = service.submit_job("left", "right", patterns=PATTERNS)
        service.run_until_idle()
        with urllib.request.urlopen(api.address + "/metrics") as response:
            text = response.read().decode()
        assert "repro_worker_search_expansions_total" in text
        assert f'worker="{os.getpid()}"' in text  # inline pool = this pid
        # The slimmed result served over the API keeps the summary but
        # not the bulky counter rows.
        summary = service.jobs.get(job.job_id).result["telemetry"]
        assert "counters" not in summary
        assert summary["trace_id"] == job.trace_id

    def test_healthz_reports_telemetry_and_logs_tail_serves(self, served):
        service, api = served
        with urllib.request.urlopen(api.address + "/healthz") as response:
            health = json.loads(response.read())
        assert health["telemetry"]["enabled"] is True
        assert "spans_merged" in health["telemetry"]
        assert "profiler" in health["telemetry"]
        with urllib.request.urlopen(
            api.address + "/logs/tail?n=5"
        ) as response:
            body = json.loads(response.read())
        assert "lines" in body

    def test_trace_disabled_service_serves_404(self, tmp_path):
        service = make_service(tmp_path, telemetry=False)
        api = ServiceAPI(service).start()
        try:
            job = service.submit_job("left", "right", patterns=PATTERNS)
            service.run_until_idle()
            assert service.jobs.get(job.job_id).state == "done"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    api.address + f"/jobs/{job.job_id}/trace"
                )
            assert excinfo.value.code == 404
            # Disabled means no telemetry footprint at all: the hub
            # never even creates its directories.
            telemetry_dir = service.state_dir / "telemetry"
            assert not (telemetry_dir / "spools").exists()
            assert not (telemetry_dir / "traces").exists()
        finally:
            api.stop()
            service.shutdown()


# ----------------------------------------------------------------------
# SIGKILL + retry lineage
# ----------------------------------------------------------------------
def _execute_then_park(payload):
    """Run the real recipe, then park until the hold file disappears.

    Module-level so it pickles by reference into pool workers.  Parking
    *after* execution means the attempt's spans are fully spooled when
    the chaos kill lands — the worker dies with its work done but the
    result undelivered, which is exactly the retry-lineage scenario.
    """
    result = _execute_then_park.real(payload)
    hold = os.environ.get("REPRO_TEST_PARK")
    deadline = time.monotonic() + 30.0
    while hold and os.path.exists(hold):
        if time.monotonic() > deadline:  # pragma: no cover - safety net
            break
        time.sleep(0.01)
    return result


_execute_then_park.real = workers_module.execute_match_job


class TestKillRetryLineage:
    def test_spans_survive_worker_kill_with_retry_lineage(
        self, tmp_path, monkeypatch
    ):
        if pool_module.current_warm_pool() is not None:
            pool_module.close_warm_pool()
        hold = tmp_path / "park"
        hold.touch()
        monkeypatch.setenv("REPRO_TEST_PARK", str(hold))
        monkeypatch.setattr(
            workers_module, "execute_match_job", _execute_then_park
        )
        service = make_service(tmp_path, processes=2, max_retries=2)
        service.retry_policy = RetryPolicy(max_retries=2, backoff_base=0.001)
        spool_dir = service.state_dir / "telemetry" / "spools"
        try:
            job = service.submit_job("left", "right", patterns=PATTERNS)
            service.tick()

            # Wait until attempt 1 has spooled its spans (worker parked).
            deadline = time.monotonic() + 20.0
            first_spool = None
            while first_spool is None:
                assert time.monotonic() < deadline, "attempt 1 never spooled"
                spools = list(spool_dir.glob(f"{job.job_id}.a1.*"))
                if spools and read_spool(spools[0])[1]:
                    first_spool = spools[0]
                time.sleep(0.02)
            # The spool filename names the executing worker's pid.
            killed_pid = int(first_spool.name.split(".p")[1].split(".")[0])

            os.kill(killed_pid, 9)
            hold.unlink()  # the retry runs unparked
            service.run_until_idle()

            outcome = service.jobs.get(job.job_id)
            assert outcome.state == "done"
            assert outcome.worker_deaths >= 1

            document = json.loads(
                service.telemetry.trace_path(job.job_id).read_text()
            )
            other = document["otherData"]
            assert other["attempts"] >= 2
            # Parent + two worker pids — and the killed pid is one of them.
            assert len(other["pids"]) >= 3
            assert killed_pid in other["pids"]
            worker_spans = [
                e for e in document["traceEvents"] if e.get("cat") == "worker"
            ]
            lanes = {(e["pid"], e["tid"]) for e in worker_spans}
            killed_lanes = {lane for lane in lanes if lane[0] == killed_pid}
            retry_lanes = {lane for lane in lanes if lane[0] != killed_pid}
            assert killed_lanes and retry_lanes, lanes
            # Sibling lanes: attempt numbers are the tids.
            assert {tid for _, tid in killed_lanes} == {1}
            assert 2 in {tid for _, tid in retry_lanes}
        finally:
            service.shutdown()
            pool_module.close_warm_pool()


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------
class TestStructuredLogs:
    def test_json_lines_valid_under_concurrent_writers(self, tmp_path):
        log_path = tmp_path / "log.jsonl"
        logger = logging.Logger("repro-test-concurrent")
        handler = logging.FileHandler(log_path)
        handler.setFormatter(JsonFormatter())
        logger.addHandler(handler)

        def writer(worker):
            with bind(trace_id=f"trace-{worker}"):
                for i in range(200):
                    logger.info(
                        "line %d", i, extra={"worker": worker, "i": i}
                    )

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        handler.close()

        lines = log_path.read_text().splitlines()
        assert len(lines) == 8 * 200
        docs = [json.loads(line) for line in lines]  # every line parses
        assert all(d["trace_id"] == f"trace-{d['worker']}" for d in docs)
        assert all(d["level"] == "info" and "ts" in d for d in docs)

    def test_bind_nests_and_restores(self):
        record = logging.LogRecord("n", logging.INFO, "p", 1, "m", (), None)
        with bind(trace_id="outer"):
            with bind(job_id="job-1"):
                doc = record_to_doc(record)
                assert doc["trace_id"] == "outer"
                assert doc["job_id"] == "job-1"
            assert "job_id" not in record_to_doc(record)
        assert "trace_id" not in record_to_doc(record)

    def test_ring_buffer_keeps_latest(self):
        ring = LogRingBuffer(capacity=16)
        logger = logging.Logger("repro-test-ring")
        logger.addHandler(ring)
        for i in range(40):
            logger.info("message %d", i)
        tail = ring.tail(4)
        assert len(ring) == 16
        assert [d["message"] for d in tail] == [
            "message 36", "message 37", "message 38", "message 39"
        ]


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_speedscope_export_is_consistent(self):
        stop = threading.Event()

        def busy():
            while not stop.is_set():
                sum(i * i for i in range(500))

        thread = threading.Thread(target=busy, daemon=True)
        thread.start()
        try:
            profiler = profile_for(0.3, interval=0.005)
        finally:
            stop.set()
            thread.join()
        assert profiler.samples > 0
        doc = profiler.speedscope("test")
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        frames = doc["shared"]["frames"]
        [profile] = doc["profiles"]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        assert profile["samples"], "no stacks captured"
        for stack in profile["samples"]:
            assert all(0 <= index < len(frames) for index in stack)
        assert json.loads(json.dumps(doc)) == doc  # round-trips as JSON
        # The busy loop must show up somewhere in the sampled frames.
        assert any("busy" in f["name"] for f in frames)

    def test_collapsed_output_parses(self):
        profiler = SamplingProfiler(interval=0.005)
        profiler.start()
        time.sleep(0.05)
        profiler.stop()
        for line in profiler.collapsed().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_profile_for_rejects_bad_durations(self):
        with pytest.raises(ValueError):
            profile_for(0)
        with pytest.raises(ValueError):
            profile_for(301)


# ----------------------------------------------------------------------
# Benchmark trend report
# ----------------------------------------------------------------------
class TestBenchTrend:
    def test_direction_heuristics(self):
        assert benchtrend.metric_direction("search.elapsed_s") == "lower"
        assert benchtrend.metric_direction("x.overhead_pct") == "lower"
        assert benchtrend.metric_direction("kernel.speedup") == "higher"
        assert benchtrend.metric_direction("runs.mean_f") == "higher"
        assert benchtrend.metric_direction("something.count") is None

    def _records(self, values, params=None):
        return [
            {
                "date": f"2026-01-{i + 1:02d}",
                "commit": "abc",
                "params": params or {"scale": "quick"},
                "results": {"elapsed_s": v},
            }
            for i, v in enumerate(values)
        ]

    def test_regression_detected_against_trailing_median(self):
        records = self._records([1.0, 1.02, 0.98, 1.01, 1.30])
        rows = benchtrend.analyze_trajectory("demo", records)
        [row] = [r for r in rows if r.metric == "elapsed_s"]
        assert row.regressed and row.delta_pct > 15

    def test_improvement_is_not_a_regression(self):
        records = self._records([1.0, 1.02, 0.98, 0.50])
        rows = benchtrend.analyze_trajectory("demo", records)
        [row] = [r for r in rows if r.metric == "elapsed_s"]
        assert not row.regressed and row.delta_pct < 0

    def test_params_change_resets_baseline(self):
        records = self._records([1.0, 1.01, 0.99])
        records += self._records([9.9], params={"scale": "paper"})
        rows = benchtrend.analyze_trajectory("demo", records)
        # The paper-scale record has no same-params history: not gated.
        assert all(not r.regressed for r in rows)

    def test_gate_exit_codes(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        path.write_text(json.dumps(self._records([1.0, 1.0, 1.0, 2.0])))
        assert benchtrend.run_report(tmp_path, gate=True, out=lambda *a, **k: None) == 1
        path.write_text(json.dumps(self._records([1.0, 1.0, 1.0, 1.0])))
        assert benchtrend.run_report(tmp_path, gate=True, out=lambda *a, **k: None) == 0
