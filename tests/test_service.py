"""Tests for repro.service — the matching daemon.

Covers the acceptance contracts of the service layer:

* a dropped file becomes a registered log (and a poisoned one a
  quarantined file, not a wedged watcher);
* a job submitted over the queue/pool produces the *identical* mapping
  and score as calling the matcher directly;
* the HTTP API round-trips logs, jobs and sessions as JSON;
* kill-and-resume: a service killed mid-stream and resumed from its
  state directory converges to exactly the state of an uninterrupted
  run, even under seeded chaos;
* checkpoint sequence numbers are monotone, and checkpoints/manifests
  from a newer format version are refused with a clear error;
* the daemon loop is event-driven: a submitted job runs, and a stop
  request lands, without waiting out the poll interval; ticks racing
  from two threads harvest every job exactly once.
"""

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from pathlib import Path

import pytest

from repro.blocking import BlockingConfig
from repro.core.matcher import EventMatcher, MatchOptions
from repro.log.csvio import write_csv
from repro.log.eventlog import EventLog
from repro.patterns.parser import parse_pattern
from repro.resilience.chaos import ChaosConfig, ChaosInjector
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.service import (
    MatchingService,
    ServiceAPI,
    UnknownJobError,
    UnknownLogError,
)
from repro.parallel import close_warm_pool, current_warm_pool
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING, JobQueue
from repro.service.workers import WorkerPool

LEFT = EventLog([list("ABC"), list("ACB"), list("AB"), list("BCA")], name="left")
RIGHT = EventLog([list("xyz"), list("xzy"), list("xy"), list("yzx")], name="right")
PATTERNS = ("SEQ(A, B)",)
#: Parses, but names an event missing from LEFT: fails in the worker.
MISSING_EVENT_PATTERNS = ("SEQ(A, Q)",)


def make_service(tmp_path, **options):
    options.setdefault("processes", 0)
    options.setdefault("settle_polls", 0)
    options.setdefault("checkpoint_every", None)
    return MatchingService(tmp_path / "state", **options)


def direct_result(patterns=PATTERNS):
    matcher = EventMatcher(
        LEFT, RIGHT, patterns=[parse_pattern(text) for text in patterns]
    )
    return matcher.run()


class TestDirectoryWatcher:
    def test_dropped_file_registers_and_spools(self, tmp_path):
        service = make_service(tmp_path)
        write_csv(LEFT, service.watcher.drop_dir / "left.csv")
        outcome = service.tick()
        assert outcome["registered"] == ["left"]
        assert "left" in service.registry
        assert service.registry.get("left") == LEFT
        # drop file consumed; canonical copy lives in the spool
        assert not (service.watcher.drop_dir / "left.csv").exists()
        assert (service.state_dir / "spool" / "left.csv").exists()

    def test_settling_defers_ingestion(self, tmp_path):
        service = make_service(tmp_path, settle_polls=1)
        write_csv(LEFT, service.watcher.drop_dir / "left.csv")
        assert service.watcher.poll() == []  # first sight: not yet stable
        assert service.watcher.poll() == ["left"]

    def test_growing_file_is_not_ingested(self, tmp_path):
        service = make_service(tmp_path, settle_polls=1)
        path = service.watcher.drop_dir / "left.csv"
        path.write_text("case_id,activity\n")
        assert service.watcher.poll() == []
        write_csv(LEFT, path)  # still being written: signature changed
        assert service.watcher.poll() == []
        assert service.watcher.poll() == ["left"]

    def test_unreadable_file_is_quarantined_not_fatal(self, tmp_path):
        service = make_service(tmp_path)
        bad = service.watcher.drop_dir / "bad.xes"
        bad.write_text("<log><trace>")
        assert service.watcher.poll() == []
        assert not bad.exists()
        assert (service.watcher.quarantine_dir / "bad.xes").exists()
        [record] = service.quarantine.records
        assert record.kind == "file"
        assert record.source == "bad.xes"
        # ...and the spill file has it too (daemon-grade dead letters)
        assert (service.state_dir / "quarantine.jsonl").exists()

    def test_unsupported_extension_is_quarantined(self, tmp_path):
        service = make_service(tmp_path)
        (service.watcher.drop_dir / "notes.txt").write_text("hello")
        service.watcher.poll()
        [record] = service.quarantine.records
        assert "unsupported log format" in record.reason

    def test_redrop_replaces_registration(self, tmp_path):
        service = make_service(tmp_path)
        write_csv(LEFT, service.watcher.drop_dir / "log.csv")
        service.tick()
        assert service.registry.info("log").num_traces == len(LEFT)
        write_csv(RIGHT, service.watcher.drop_dir / "log.csv")
        service.tick()
        assert service.registry.get("log") == RIGHT


class TestJobQueue:
    def test_lifecycle(self):
        queue = JobQueue()
        job = queue.submit("a", "b", patterns=("SEQ(A, B)",))
        assert job.state == QUEUED
        assert queue.depth == 1
        claimed = queue.claim_next()
        assert claimed.job_id == job.job_id
        assert queue.get(job.job_id).state == RUNNING
        queue.finish(job.job_id, {"score": 1.0}, elapsed_seconds=0.5)
        done = queue.get(job.job_id)
        assert done.state == DONE
        assert done.result == {"score": 1.0}
        assert queue.depth == 0
        assert queue.claim_next() is None

    def test_unknown_job_raises(self):
        with pytest.raises(UnknownJobError):
            JobQueue().get("job-999999")

    def test_rematch_clones_the_recipe(self):
        queue = JobQueue()
        job = queue.submit(
            "a", "b", options=MatchOptions("heuristic-simple", node_budget=3)
        )
        clone = queue.rematch(job.job_id)
        assert clone.job_id != job.job_id
        assert clone.options.method == "heuristic-simple"
        assert clone.options.node_budget == 3
        assert clone.state == QUEUED

    def test_restore_requeues_interrupted_jobs(self):
        queue = JobQueue()
        queued = queue.submit("a", "b")
        running = queue.submit("a", "b")
        finished = queue.submit("a", "b")
        queue._jobs[running.job_id].state = RUNNING
        queue.finish(finished.job_id, {"score": 2.0}, 0.1)
        payload = queue.to_payload()

        fresh = JobQueue()
        assert fresh.restore_payload(payload) == 2  # queued + killed-running
        assert fresh.get(queued.job_id).state == QUEUED
        assert fresh.get(running.job_id).state == QUEUED
        assert fresh.get(finished.job_id).result == {"score": 2.0}
        # counter continues past restored ids: no collisions
        assert fresh.submit("a", "b").job_id == "job-000004"


class TestWorkerExecution:
    def test_job_result_identical_to_direct_match(self, tmp_path):
        service = make_service(tmp_path)
        service.registry.register("left", LEFT)
        service.registry.register("right", RIGHT)
        job = service.submit_job("left", "right", patterns=PATTERNS)
        service.run_until_idle()
        done = service.jobs.get(job.job_id)
        assert done.state == DONE

        expected = direct_result()
        assert done.result["score"] == pytest.approx(expected.score)
        assert done.result["mapping"] == {
            str(source): str(target)
            for source, target in expected.mapping.as_dict().items()
        }
        assert done.result["degraded"] is False

    def test_unknown_log_fails_the_job_at_dispatch(self, tmp_path):
        service = make_service(tmp_path)
        service.registry.register("left", LEFT)
        with pytest.raises(UnknownLogError):
            service.submit_job("left", "missing")
        # a log deleted between submit and dispatch fails, not crashes
        service.registry.register("right", RIGHT)
        job = service.submit_job("left", "right")
        del service.registry._logs["right"]
        service.run_until_idle()
        failed = service.jobs.get(job.job_id)
        assert failed.state == FAILED
        assert "UnknownLogError" in failed.error

    def test_bad_recipe_fails_cleanly(self, tmp_path):
        service = make_service(tmp_path)
        service.registry.register("left", LEFT)
        service.registry.register("right", RIGHT)
        job = service.submit_job(
            "left", "right", patterns=MISSING_EVENT_PATTERNS
        )
        service.run_until_idle()
        failed = service.jobs.get(job.job_id)
        assert failed.state == FAILED
        assert "SEQ(A,Q)" in failed.error

    def test_inline_pool_counts_active_until_harvest(self):
        pool = WorkerPool(processes=0)
        pool.submit("job-1", {"paths": ("nope.csv", "nope.csv"), "patterns": []})
        assert pool.active == 1
        [outcome] = pool.completed()
        assert outcome.job_id == "job-1"
        assert outcome.result is None and "no such file" in outcome.error
        assert not outcome.ok and outcome.kind == "error"
        assert pool.active == 0


class TestHTTPAPI:
    @pytest.fixture
    def served(self, tmp_path):
        service = make_service(tmp_path)
        api = ServiceAPI(service).start()
        yield service, api
        api.stop()

    def _get(self, api, path):
        with urllib.request.urlopen(api.address + path) as response:
            return response.status, json.loads(response.read())

    def _post(self, api, path, payload=None, raw=None):
        data = raw if raw is not None else json.dumps(payload or {}).encode()
        request = urllib.request.Request(
            api.address + path, data=data, method="POST"
        )
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())

    def test_full_workflow_over_http(self, served):
        service, api = served
        # register both logs by POSTing CSV bodies
        for name, log in (("left", LEFT), ("right", RIGHT)):
            import io

            buffer = io.StringIO()
            write_csv(log, buffer)
            status, body = self._post(
                api, f"/logs/{name}", raw=buffer.getvalue().encode()
            )
            assert status == 201
            assert body["num_traces"] == len(log)

        status, body = self._post(
            api,
            "/jobs",
            {"log_1": "left", "log_2": "right", "patterns": list(PATTERNS)},
        )
        assert status == 202
        job_id = body["job_id"]

        # drive the scheduler over HTTP, then poll to completion
        status, _ = self._post(api, "/tick")
        assert status == 200
        status, body = self._get(api, f"/jobs/{job_id}")
        assert status == 200
        assert body["state"] == "done"
        expected = direct_result()
        assert body["result"]["score"] == pytest.approx(expected.score)
        assert body["result"]["mapping"] == {
            str(s): str(t) for s, t in expected.mapping.as_dict().items()
        }

        # health and metrics reflect the work
        status, health = self._get(api, "/healthz")
        assert health["logs"] == 2 and health["jobs"] == 1
        with urllib.request.urlopen(api.address + "/metrics") as response:
            text = response.read().decode()
        assert "repro_service_jobs_finished_total" in text
        assert "repro_service_http_requests_total" in text

    def test_session_workflow_over_http(self, served):
        service, api = served
        service.registry.register("left", LEFT)
        status, body = self._post(
            api, "/sessions", {"name": "live", "reference": "left"}
        )
        assert status == 201
        status, body = self._post(
            api,
            "/sessions/live/traces",
            {"traces": [["x", "y", "z"], ["x", "z", "y"]]},
        )
        assert status == 200
        assert body["num_traces"] == 2
        status, body = self._get(api, "/sessions/live")
        assert body["mapping"] is not None
        status, body = self._post(api, "/sessions/live/checkpoint")
        assert status == 200
        assert (service.state_dir / "sessions" / "live.json").exists()

    def test_errors_are_json_with_right_status(self, served):
        service, api = served
        for path, expected in (
            ("/jobs/job-000042", 404),
            ("/nope", 404),
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(api, path)
            assert excinfo.value.code == expected
            assert "error" in json.loads(excinfo.value.read())
        service.registry.register("left", LEFT)
        service.registry.register("right", RIGHT)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(
                api,
                "/jobs",
                {"log_1": "left", "log_2": "right", "bogus_option": 1},
            )
        assert excinfo.value.code == 400

    @pytest.fixture(scope="class")
    def registered(self, tmp_path_factory):
        """One served service with both logs, shared by read-only cases."""
        service = make_service(tmp_path_factory.mktemp("registered"))
        service.registry.register("left", LEFT)
        service.registry.register("right", RIGHT)
        api = ServiceAPI(service).start()
        yield service, api
        api.stop()

    @pytest.mark.parametrize(
        "options",
        [
            {"method": "bogus"},
            {"node_budget": "ten"},
            {"workers": "2"},
            {"workers": 2},
            {"blocking": {"frequency_gap": "x"}},
            {"method": "heuristic-simple", "blocking": True},
            {"patterns": ["SEQ(A"]},
            {"patterns": "SEQ(A, B)"},
            {"patterns": ["SEQ(A, Q)"]},
            {"strict": "no"},
        ],
    )
    def test_malformed_recipe_is_refused_at_submit(self, registered, options):
        service, api = registered
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(
                api, "/jobs", {"log_1": "left", "log_2": "right", **options}
            )
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert any(field in error for field in options), error
        service.run_until_idle()
        assert len(service.jobs) == 0
        assert service.quarantine.total_seen == 0

    @pytest.mark.parametrize(
        "options",
        [
            {"bogus": 1},
            {"probe": 1},
            {"drift_threshold": "x"},
            {"check_every": "x"},
            {"blocking": "yes"},
            {"blocking": {"frequency_gap": "x"}},
            {"node_budget": "ten"},
            {"time_budget": "x"},
            {"exact_cutoff": "x"},
            {"min_traces": "x"},
            {"patterns": ["SEQ(A, Q)"]},
            {"degraded_gap_threshold": "x"},
            {"validate": "no"},
        ],
    )
    def test_malformed_session_is_refused_at_create(self, registered, options):
        service, api = registered
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(
                api,
                "/sessions",
                {"name": "bad", "reference": "left", **options},
            )
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())
        assert self._get(api, "/sessions")[1]["sessions"] == []
        service.save_state()
        assert list((service.state_dir / "sessions").iterdir()) == []

    def test_shutdown_saves_state_and_signals(self, served):
        service, api = served
        service.registry.register("left", LEFT)
        status, body = self._post(api, "/shutdown")
        assert status == 200
        assert api.stopping.is_set()
        assert service.manifest_path.exists()


class TestEventDrivenLoop:
    """The serve loop wakes on submission, completion and stop requests."""

    POLL_INTERVAL = 30.0  # far beyond every bound asserted below

    @pytest.fixture(params=[0, 2], ids=["inline", "pool"])
    def looping(self, request, tmp_path):
        service = make_service(tmp_path, processes=request.param)
        service.registry.register("left", LEFT)
        service.registry.register("right", RIGHT)
        api = ServiceAPI(service).start()
        loop = threading.Thread(
            target=service.serve, args=(api.stopping, self.POLL_INTERVAL)
        )
        loop.start()
        try:
            yield service, api, loop
        finally:
            api.request_stop()
            loop.join(timeout=10)
            api.stop()
            service.shutdown()
            if request.param:
                close_warm_pool()

    def _call(self, api, method, path, payload=None):
        connection = http.client.HTTPConnection("127.0.0.1", api.port)
        try:
            body = json.dumps(payload) if payload is not None else None
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_submitted_job_runs_without_waiting_for_a_tick(self, looping):
        service, api, _loop = looping
        started = time.monotonic()
        status, job = self._call(
            api,
            "POST",
            "/jobs",
            {"log_1": "left", "log_2": "right", "patterns": list(PATTERNS)},
        )
        assert status == 202
        while True:
            status, body = self._call(api, "GET", f"/jobs/{job['job_id']}")
            if body["state"] in ("done", "failed") or (
                time.monotonic() - started > 2.0
            ):
                break
            time.sleep(0.01)
        assert body["state"] == "done", body
        assert time.monotonic() - started < 2.0
        assert body["result"]["mapping"] == {
            str(s): str(t) for s, t in direct_result().mapping.as_dict().items()
        }

    def test_shutdown_ends_the_loop_at_once(self, looping):
        _service, api, loop = looping
        status, _ = self._call(api, "POST", "/shutdown")
        assert status == 200
        loop.join(timeout=2.0)
        assert not loop.is_alive()

    def test_keep_alive_requests_do_not_stall(self, looping):
        _service, api, _loop = looping
        connection = http.client.HTTPConnection("127.0.0.1", api.port)
        timings = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                timings.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        # Nagle + delayed ACK held each response body for ~40 ms.
        assert statistics.median(timings) < 0.010, timings


class TestConcurrentTicks:
    ROUNDS = 10
    JOBS_PER_ROUND = 16

    def test_racing_ticks_harvest_each_job_once(self, tmp_path):
        """POST /tick races the serve loop; neither may corrupt a harvest."""
        service = make_service(tmp_path, processes=2)
        service.registry.register("left", LEFT)
        service.registry.register("right", RIGHT)
        finishes = Counter()
        finish = service.jobs.finish

        def counting_finish(job_id, result, elapsed_seconds):
            finishes[job_id] += 1
            finish(job_id, result, elapsed_seconds)

        service.jobs.finish = counting_finish
        errors = []

        def busy():
            return service.jobs.depth or service.pool.active

        def ticker():
            deadline = time.monotonic() + 60.0
            try:
                while busy() and not errors:
                    assert time.monotonic() < deadline, "never went idle"
                    service.tick()
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)

        jobs = []
        # Switch threads as often as possible so the two tickers really
        # interleave inside a harvest.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(self.ROUNDS):
                jobs += [
                    service.submit_job("left", "right", patterns=PATTERNS)
                    for _ in range(self.JOBS_PER_ROUND)
                ]
                threads = [threading.Thread(target=ticker) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=90)
                if errors:
                    break
        finally:
            sys.setswitchinterval(interval)
            service.shutdown()
            close_warm_pool()
        assert errors == []
        assert all(service.jobs.get(job.job_id).state == DONE for job in jobs)
        assert finishes == Counter({job.job_id: 1 for job in jobs})


class TestConcurrentSessionTraffic:
    """Requests to one session run on separate server threads."""

    def test_concurrent_appends_commit_every_trace(self, tmp_path):
        service = make_service(tmp_path)
        service.registry.register("ref", LEFT)
        service.sessions.create("live", "ref", patterns=PATTERNS)
        batch = [list("xyz"), list("xzy"), list("xy"), list("yzx"),
                 list("xyz")]
        errors = []

        def client():
            try:
                for _ in range(60):
                    service.sessions.append("live", batch)
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=client) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        engine = service.sessions.get("live")
        assert len(engine.stream) == 900
        assert service.sessions.status("live")["updates"] == 180
        engine.deltas.verify()


class TestServeCommand:
    def test_sigint_stops_a_long_interval_daemon_promptly(self, tmp_path):
        state = tmp_path / "state"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(state),
             "--port", "0", "--poll-interval", "30"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            for line in daemon.stderr:
                if "# serving on http://" in line:
                    break
            else:
                pytest.fail("daemon exited before serving")
            time.sleep(0.2)  # let the loop enter its 30 s wait
            started = time.monotonic()
            daemon.send_signal(signal.SIGINT)
            assert daemon.wait(timeout=10) == 0
            assert time.monotonic() - started < 5.0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            daemon.stderr.close()
        assert (state / "manifest.json").exists()


class TestSaveAndResume:
    def test_manifest_round_trip(self, tmp_path):
        service = make_service(tmp_path)
        service.registry.register("left", LEFT)
        service.registry.register("right", RIGHT)
        job = service.submit_job("left", "right", patterns=PATTERNS)
        service.run_until_idle()
        interrupted = service.submit_job("right", "left")
        service.save_state()

        fresh = make_service(tmp_path)
        summary = fresh.resume()
        assert summary["logs"] == 2
        assert summary["jobs_requeued"] == 1
        assert fresh.jobs.get(job.job_id).result["score"] == pytest.approx(
            direct_result().score
        )
        fresh.run_until_idle()
        assert fresh.jobs.get(interrupted.job_id).state == DONE

    def test_manifest_job_with_workers_runs_serially(self, tmp_path):
        """A stored job's ``workers`` key is ignored: no pool is started."""
        close_warm_pool()
        service = make_service(tmp_path)
        service.registry.register("left", LEFT)
        service.registry.register("right", RIGHT)
        job = service.submit_job("left", "right", patterns=PATTERNS)
        service.save_state()
        document = json.loads(service.manifest_path.read_text())
        [stored] = document["jobs"]["jobs"]
        stored["workers"] = 2
        service.manifest_path.write_text(json.dumps(document))

        fresh = make_service(tmp_path)
        assert fresh.resume()["jobs_requeued"] == 1
        fresh.run_until_idle()
        done = fresh.jobs.get(job.job_id)
        assert done.state == DONE
        expected = direct_result()
        assert done.result["score"] == pytest.approx(expected.score)
        assert done.result["mapping"] == {
            str(source): str(target)
            for source, target in expected.mapping.as_dict().items()
        }
        assert current_warm_pool() is None

    def test_manifest_jobs_with_refused_recipes_fail_on_resume(self, tmp_path):
        """Recipes older builds queued but this one refuses never run."""
        service = make_service(tmp_path)
        service.registry.register("left", LEFT)
        service.registry.register("right", RIGHT)
        for _ in range(3):
            service.submit_job("left", "right", patterns=PATTERNS)
        service.save_state()
        document = json.loads(service.manifest_path.read_text())
        poisoned, unparsable, blocked = document["jobs"]["jobs"]
        poisoned.update(
            method="no-such-method", state="failed", error="poisoned"
        )
        unparsable["node_budget"] = "ten"
        blocked["blocking"] = True
        service.manifest_path.write_text(json.dumps(document))

        fresh = make_service(tmp_path)
        assert fresh.resume()["jobs_requeued"] == 1
        for stored, field in (
            (poisoned, "method"), (unparsable, "node_budget")
        ):
            job = fresh.jobs.get(stored["job_id"])
            assert job.state == FAILED
            assert field in job.error
        fresh.run_until_idle()
        assert [job.attempts for job in fresh.jobs.jobs()] == [0, 0, 1]
        done = fresh.jobs.get(blocked["job_id"])
        assert done.state == DONE
        assert done.options.blocking == BlockingConfig()
        # Refused recipes round-trip verbatim and cannot be re-run.
        fresh.save_state()
        again = make_service(tmp_path)
        again.resume()
        assert again.jobs.get(unparsable["job_id"]).to_payload()[
            "node_budget"
        ] == "ten"
        with pytest.raises(ValueError, match="node_budget"):
            again.jobs.rematch(unparsable["job_id"])

    def test_spool_survives_manifest_loss(self, tmp_path):
        """SIGKILL before any manifest save must not orphan spooled logs."""
        service = make_service(tmp_path)
        service.registry.register("left", LEFT)
        service.registry.register("right", RIGHT)
        assert not service.manifest_path.exists()  # never saved: the kill

        fresh = make_service(tmp_path)
        summary = fresh.resume()
        assert summary["logs"] == 2
        assert fresh.registry.get("left") == LEFT
        assert fresh.registry.info("left").source == "spool-scan"

    def test_newer_manifest_version_is_refused(self, tmp_path):
        service = make_service(tmp_path)
        service.save_state()
        document = json.loads(service.manifest_path.read_text())
        document["version"] = 99
        service.manifest_path.write_text(json.dumps(document))
        fresh = make_service(tmp_path)
        with pytest.raises(ValueError, match="newer than this build"):
            fresh.resume()


class TestKillAndResumeUnderChaos:
    """Satellite: the service survives a kill mid-stream, under chaos."""

    def _feed(self):
        clean = [list("xyz"), list("xzy"), list("xy"), list("yzx")] * 6
        injector = ChaosInjector(
            ChaosConfig(
                drop_event_rate=0.05,
                corrupt_event_rate=0.05,
                duplicate_trace_rate=0.1,
                seed=20260808,
            )
        )
        return list(injector.perturb(clean))

    def _run(self, service, feed):
        engine = service.sessions.get("live")
        for case_id, events in feed:
            if not events:
                continue  # chaos dropped the whole payload
            for event in events:
                engine.stream.append_event(case_id, event)
            engine.stream.close_trace(case_id)
            engine.update()

    def test_resumed_session_matches_uninterrupted_run(self, tmp_path):
        feed = self._feed()
        split = len(feed) // 2

        control = make_service(tmp_path / "control")
        control.registry.register("ref", LEFT)
        control.sessions.create("live", "ref", patterns=PATTERNS)
        self._run(control, feed)
        expected = control.sessions.status("live")

        # interrupted run: feed half, save, "kill", resume, feed the rest
        victim = make_service(tmp_path / "victim")
        victim.registry.register("ref", LEFT)
        victim.sessions.create("live", "ref", patterns=PATTERNS)
        self._run(victim, feed[:split])
        victim.save_state()
        del victim  # the kill

        resumed = make_service(tmp_path / "victim")
        summary = resumed.resume()
        assert summary["sessions"] == ["live"]
        self._run(resumed, feed[split:])
        actual = resumed.sessions.status("live")

        assert actual["mapping"] == expected["mapping"]
        assert actual["score"] == pytest.approx(expected["score"])
        assert actual["num_traces"] == expected["num_traces"]


class TestCheckpointSequence:
    """Satellite: monotone sequence numbers + newer-version refusal."""

    def _engine(self, tmp_path):
        service = make_service(tmp_path)
        service.registry.register("ref", LEFT)
        service.sessions.create("live", "ref")
        service.sessions.append("live", [["x", "y"], ["y", "x"]])
        return service

    def test_sequence_increases_across_saves_and_restores(self, tmp_path):
        service = self._engine(tmp_path)
        path = service.sessions.checkpoint("live")
        assert json.loads(path.read_text())["sequence"] == 1
        service.sessions.checkpoint("live")
        assert json.loads(path.read_text())["sequence"] == 2

        engine = load_checkpoint(path)
        assert engine.checkpoint_sequence == 2
        save_checkpoint(engine, path)
        assert json.loads(path.read_text())["sequence"] == 3

    def test_newer_checkpoint_version_is_refused(self, tmp_path):
        service = self._engine(tmp_path)
        path = service.sessions.checkpoint("live")
        document = json.loads(path.read_text())
        document["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="newer"):
            load_checkpoint(path)
