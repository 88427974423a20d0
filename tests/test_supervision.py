"""Supervised execution: worker-crash recovery, retries, and
backpressure.

The centerpiece is the seeded worker-kill chaos test: SIGKILL a warm-pool
worker mid-job via :meth:`ChaosInjector.kill_worker` and assert the
daemon retries the job to a mapping *bit-identical* to an uninterrupted
run — the supervision layer may change when a job finishes, never what
it computes.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.log.eventlog import EventLog
from repro.parallel import pool as pool_module
from repro.resilience.chaos import ChaosConfig, ChaosInjector
from repro.resilience.recovery import RecoveryStats
from repro.resilience.supervise import DegradedStateMachine, RetryPolicy
from repro.service import workers as workers_module
from repro.service.api import ServiceAPI
from repro.service.daemon import MatchingService
from repro.service.jobs import FAILED, JobQueue, QueueFullError
from repro.service.workers import WorkerPool

LEFT = EventLog(
    [
        ["request", "validate", "approve", "archive"],
        ["request", "validate", "reject"],
        ["request", "approve", "archive"],
        ["request", "validate", "approve", "archive"],
    ],
    name="left",
)
RIGHT = EventLog(
    [
        ["req_recv", "req_check", "req_ok", "req_store"],
        ["req_recv", "req_check", "req_deny"],
        ["req_recv", "req_ok", "req_store"],
        ["req_recv", "req_check", "req_ok", "req_store"],
    ],
    name="right",
)
PATTERNS = ("SEQ(request, validate)", "SEQ(validate, approve)")


def make_service(tmp_path, **kwargs) -> MatchingService:
    kwargs.setdefault("processes", 0)
    kwargs.setdefault("settle_polls", 0)
    kwargs.setdefault("checkpoint_every", None)
    service = MatchingService(tmp_path / "state", **kwargs)
    service.registry.register("left", LEFT)
    service.registry.register("right", RIGHT)
    return service


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5, jitter=0.0
        )
        delays = [policy.backoff(n) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.1, seed=42)
        first = [policy.backoff(1, policy.rng()) for _ in range(3)]
        assert len(set(first)) == 1  # same seed, same schedule
        assert all(1.0 <= d <= 1.1 for d in first)

    def test_verdict_poisons_after_max_retries(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.verdict(attempts=1, worker_deaths=0) == "retry"
        assert policy.verdict(attempts=2, worker_deaths=0) == "retry"
        assert policy.verdict(attempts=3, worker_deaths=0) == "poison"

    def test_verdict_poisons_after_two_worker_deaths(self):
        policy = RetryPolicy(max_retries=10)
        assert policy.verdict(attempts=1, worker_deaths=1) == "retry"
        assert policy.verdict(attempts=2, worker_deaths=2) == "poison"

    def test_deadline_for_prefers_job_deadline(self):
        policy = RetryPolicy(deadline=30.0)
        assert policy.deadline_for(None) == 30.0
        assert policy.deadline_for(2.5) == 2.5
        assert RetryPolicy().deadline_for(None) is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_rejects_non_numeric_deadlines(self):
        for bad in ("5", True, float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError):
                RetryPolicy(deadline=bad)


class TestDegradedStateMachine:
    def test_ready_until_marked_then_clears(self):
        machine = DegradedStateMachine()
        assert machine.ready and machine.state == "ready"
        machine.mark("queue-saturated")
        machine.mark("worker-pool-rebuilding")
        assert not machine.ready
        assert machine.snapshot()["status"] == "degraded"
        assert "queue-saturated" in machine.snapshot()["reasons"]
        machine.clear("queue-saturated")
        assert not machine.ready  # one reason still active
        machine.clear("worker-pool-rebuilding")
        assert machine.ready
        assert machine.transitions == 2  # down once, up once

    def test_clearing_unknown_reason_is_noop(self):
        machine = DegradedStateMachine()
        machine.clear("never-marked")
        assert machine.ready and machine.transitions == 0


# ----------------------------------------------------------------------
# Queue lifecycle: bound, retry, backoff
# ----------------------------------------------------------------------
class TestQueuePolicy:
    def test_bounded_queue_refuses_submissions(self):
        queue = JobQueue(bound=2)
        queue.submit("a", "b")
        queue.submit("a", "b")
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit("a", "b")
        assert excinfo.value.retry_after >= 1.0
        # Finishing a job frees a slot.
        job = queue.claim_next()
        queue.finish(job.job_id, {}, 0.0)
        queue.submit("a", "b")

    def test_restore_bypasses_the_bound(self):
        source = JobQueue()
        for _ in range(4):
            source.submit("a", "b")
        restored = JobQueue(bound=2)
        assert restored.restore_payload(source.to_payload()) == 4

    def test_retry_requeues_with_backoff_stamp(self):
        queue = JobQueue()
        queue.submit("a", "b")
        job = queue.claim_next()
        assert job.attempts == 1
        future = time.monotonic() + 60.0
        queue.retry(job.job_id, "boom", not_before=future, worker_died=True)
        assert queue.claim_next() is None  # backoff still pending
        assert queue.backoff_pending() == 1
        reclaimed = queue.claim_next(now=future + 1.0)
        assert reclaimed is not None
        assert reclaimed.attempts == 2
        assert reclaimed.worker_deaths == 1
        assert reclaimed.error == "boom"

    def test_retry_requires_running_state(self):
        queue = JobQueue()
        job = queue.submit("a", "b")
        with pytest.raises(ValueError):
            queue.retry(job.job_id, "boom")

    def test_submit_rejects_malformed_deadlines(self):
        queue = JobQueue()
        for bad in ("5", True, False, float("nan"), float("inf"), 0, -1.0):
            with pytest.raises(ValueError):
                queue.submit("a", "b", deadline=bad)
        assert len(queue) == 0  # nothing malformed got queued
        job = queue.submit("a", "b", deadline=5)  # ints coerce to float
        assert queue.get(job.job_id).deadline == 5.0

    def test_restore_drops_malformed_manifest_deadlines(self):
        queue = JobQueue()
        queue.submit("a", "b", deadline=9.0)
        payload = queue.to_payload()
        payload["jobs"][0]["deadline"] = "9"  # hand-edited/corrupt manifest
        restored = JobQueue()
        restored.restore_payload(payload)
        assert restored.jobs()[0].deadline is None

    def test_attempts_survive_the_manifest(self):
        queue = JobQueue()
        job = queue.submit("a", "b", deadline=9.0)
        claimed = queue.claim_next()
        queue.retry(claimed.job_id, "boom", worker_died=True)
        restored = JobQueue()
        restored.restore_payload(queue.to_payload())
        back = restored.get(job.job_id)
        assert back.attempts == 1
        assert back.worker_deaths == 1
        assert back.deadline == 9.0
        assert back.not_before == 0.0  # monotonic stamps never persist


# ----------------------------------------------------------------------
# Daemon-level retry / poison / deadline (inline pool: deterministic)
# ----------------------------------------------------------------------
class TestSupervisedDaemon:
    def test_error_job_retries_then_poisons_into_quarantine(self, tmp_path):
        service = make_service(tmp_path, max_retries=2)
        # Shrink backoffs so the test doesn't sleep its way to a minute.
        service.retry_policy = RetryPolicy(max_retries=2, backoff_base=0.001)
        job = service.submit_job("left", "right", method="no-such-method")
        service.run_until_idle()
        failed = service.jobs.get(job.job_id)
        assert failed.state == FAILED
        assert failed.attempts == 3  # first try + two retries
        assert "poisoned after 3 attempt(s)" in failed.error
        assert "no-such-method" in failed.error
        assert service.recovery.jobs_retried == 2
        assert service.recovery.jobs_poisoned == 1
        [record] = [
            r for r in service.quarantine.records if r.kind == "job"
        ]
        assert record.case_id == job.job_id
        assert "no-such-method" in record.reason

    def test_zero_retries_fails_on_first_error(self, tmp_path):
        service = make_service(tmp_path, max_retries=0)
        job = service.submit_job("left", "right", method="no-such-method")
        service.run_until_idle()
        assert service.jobs.get(job.job_id).state == FAILED
        assert service.recovery.jobs_retried == 0
        assert service.recovery.jobs_poisoned == 1

    def test_inline_deadline_counts_and_poisons(self, tmp_path, monkeypatch):
        service = make_service(tmp_path, max_retries=1, job_deadline=0.000001)
        service.retry_policy = RetryPolicy(
            max_retries=1, deadline=0.000001, backoff_base=0.001
        )
        job = service.submit_job("left", "right")
        service.run_until_idle()
        failed = service.jobs.get(job.job_id)
        assert failed.state == FAILED
        assert service.recovery.jobs_deadline_exceeded == 2
        assert service.recovery.jobs_poisoned == 1

    def test_per_job_deadline_overrides_service_default(self, tmp_path):
        service = make_service(tmp_path, job_deadline=0.000001, max_retries=0)
        # A generous per-job deadline rescues this job from the absurd
        # service-wide default.
        job = service.submit_job("left", "right", deadline=60.0)
        service.run_until_idle()
        assert service.jobs.get(job.job_id).state == "done"
        assert service.recovery.jobs_deadline_exceeded == 0

    def test_backpressure_counts_and_degrades(self, tmp_path):
        service = make_service(tmp_path, queue_bound=1)
        service.submit_job("left", "right")
        with pytest.raises(QueueFullError):
            service.submit_job("left", "right")
        assert service.recovery.backpressure_rejections == 1
        assert not service.readiness.ready
        assert "queue-saturated" in service.readiness.reasons()
        service.run_until_idle()
        assert service.readiness.ready  # drained below the bound

    def test_retried_recipe_reaches_identical_mapping(self, tmp_path):
        """A job that fails transiently must converge to the exact result
        an undisturbed run produces."""
        baseline = make_service(tmp_path / "a")
        job = baseline.submit_job("left", "right", patterns=PATTERNS)
        baseline.run_until_idle()
        expected = baseline.jobs.get(job.job_id).result

        service = make_service(tmp_path / "b", max_retries=2)
        service.retry_policy = RetryPolicy(max_retries=2, backoff_base=0.001)
        real_execute = workers_module.execute_match_job
        calls = {"n": 0}

        def flaky_execute(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("induced transient failure")
            return real_execute(payload)

        workers_module.execute_match_job = flaky_execute
        try:
            retried = service.submit_job("left", "right", patterns=PATTERNS)
            service.run_until_idle()
        finally:
            workers_module.execute_match_job = real_execute
        outcome = service.jobs.get(retried.job_id)
        assert outcome.state == "done"
        assert outcome.attempts == 2
        assert service.recovery.jobs_retried == 1
        assert outcome.result["mapping"] == expected["mapping"]
        assert outcome.result["score"] == expected["score"]


# ----------------------------------------------------------------------
# HTTP backpressure + readiness
# ----------------------------------------------------------------------
class TestBackpressureAPI:
    @pytest.fixture
    def served(self, tmp_path):
        service = make_service(tmp_path, queue_bound=1)
        api = ServiceAPI(service).start()
        yield service, api
        api.stop()

    def _get(self, api, path):
        request = urllib.request.Request(api.address + path)
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read()), response
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), error

    def _post(self, api, path, payload):
        request = urllib.request.Request(
            api.address + path,
            data=json.dumps(payload).encode(),
            method="POST",
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read()), response
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), error

    def test_saturated_queue_returns_429_with_retry_after(self, served):
        service, api = served
        body = {"log_1": "left", "log_2": "right"}
        status, _, _ = self._post(api, "/jobs", body)
        assert status == 202
        status, payload, response = self._post(api, "/jobs", body)
        assert status == 429
        assert "queue is full" in payload["error"]
        assert int(response.headers["Retry-After"]) >= 1

    def test_readyz_serves_503_while_degraded_then_recovers(self, served):
        service, api = served
        status, payload, _ = self._get(api, "/readyz")
        assert status == 200 and payload["status"] == "ready"
        body = {"log_1": "left", "log_2": "right"}
        self._post(api, "/jobs", body)
        self._post(api, "/jobs", body)  # 429, marks degraded
        status, payload, _ = self._get(api, "/readyz")
        assert status == 503
        assert "queue-saturated" in payload["reasons"]
        service.run_until_idle()
        status, payload, _ = self._get(api, "/readyz")
        assert status == 200 and payload["status"] == "ready"

    def test_deadline_is_an_accepted_job_option(self, served):
        service, api = served
        status, payload, _ = self._post(
            api,
            "/jobs",
            {"log_1": "left", "log_2": "right", "deadline": 30.0},
        )
        assert status == 202
        assert payload["deadline"] == 30.0

    def test_malformed_deadline_is_a_400_not_a_daemon_crash(self, served):
        """A non-numeric deadline from an unauthenticated POST must be
        rejected at submission, never stored to detonate as a TypeError
        inside the daemon's deadline arithmetic."""
        service, api = served
        body = {"log_1": "left", "log_2": "right"}
        for bad in ("5", True, float("nan"), -3, 0):
            status, payload, _ = self._post(
                api, "/jobs", {**body, "deadline": bad}
            )
            assert status == 400
            assert "deadline" in payload["error"]
        assert len(service.jobs) == 0  # nothing malformed was queued
        # The daemon still accepts and schedules well-formed work.
        status, _, _ = self._post(api, "/jobs", {**body, "deadline": 60.0})
        assert status == 202
        service.run_until_idle()
        assert service.jobs.jobs()[-1].state == "done"

    def test_healthz_reports_supervision_counters(self, served):
        service, api = served
        status, payload, _ = self._get(api, "/healthz")
        assert status == 200
        assert payload["readiness"] == "ready"
        assert set(payload["supervision"]) == {
            "jobs_retried",
            "workers_respawned",
            "jobs_poisoned",
            "jobs_deadline_exceeded",
            "backpressure_rejections",
        }


# ----------------------------------------------------------------------
# Watcher: transient OSError gets one retry
# ----------------------------------------------------------------------
class TestWatcherIORetry:
    def test_transient_oserror_retries_before_quarantine(
        self, tmp_path, monkeypatch
    ):
        service = make_service(tmp_path)
        drop = service.watcher.drop_dir
        path = drop / "good.csv"
        path.write_text("case_id,activity\n1,a\n1,b\n2,a\n")
        import repro.service.watcher as watcher_module

        real_read = watcher_module.read_csv
        calls = {"n": 0}

        def flaky_read(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient I/O hiccup")
            return real_read(*args, **kwargs)

        monkeypatch.setattr(watcher_module, "read_csv", flaky_read)
        assert service.watcher.poll() == []  # hiccup: deferred, not rejected
        assert path.exists()
        assert service.watcher.files_quarantined == 0
        assert service.watcher.io_retries == 1
        assert service.watcher.poll() == ["good"]  # second poll succeeds
        assert not path.exists()

    def test_persistent_oserror_quarantines_on_second_failure(
        self, tmp_path, monkeypatch
    ):
        service = make_service(tmp_path)
        drop = service.watcher.drop_dir
        (drop / "bad.csv").write_text("case_id,activity\n1,a\n")
        import repro.service.watcher as watcher_module

        def always_fails(*args, **kwargs):
            raise OSError("disk is on fire")

        monkeypatch.setattr(watcher_module, "read_csv", always_fails)
        assert service.watcher.poll() == []
        assert service.watcher.files_quarantined == 0
        assert service.watcher.poll() == []
        assert service.watcher.files_quarantined == 1
        [record] = [
            r for r in service.quarantine.records if r.kind == "file"
        ]
        assert "disk is on fire" in record.reason


# ----------------------------------------------------------------------
# Reporting: supervision counters surface in format_recovery_stats
# ----------------------------------------------------------------------
class TestSupervisionReporting:
    def test_supervision_line_appears_when_counters_fire(self):
        from repro.evaluation.reporting import format_recovery_stats

        stats = RecoveryStats(jobs_retried=3, workers_respawned=1)
        text = format_recovery_stats(stats)
        assert "supervision" in text
        assert "retries 3" in text
        assert "respawns 1" in text

    def test_supervision_line_absent_on_clean_runs(self):
        from repro.evaluation.reporting import format_recovery_stats

        text = format_recovery_stats(RecoveryStats())
        assert "supervision" not in text

    def test_recovery_stats_merge_covers_new_fields(self):
        merged = RecoveryStats(jobs_retried=1, jobs_poisoned=2)
        merged.merge(
            RecoveryStats(jobs_retried=4, backpressure_rejections=5)
        )
        assert merged.jobs_retried == 5
        assert merged.jobs_poisoned == 2
        assert merged.backpressure_rejections == 5


# ----------------------------------------------------------------------
# WorkerPool fail-over: finished results survive pool sweeps
# ----------------------------------------------------------------------
class _FakeWarmPool:
    """Stands in for WarmPool: respawn bookkeeping + scripted submits."""

    workers = 2

    def __init__(self, broken: bool = False):
        self.broken = broken
        self.respawned = 0

    def respawn(self, kill_workers: bool = False):
        self.respawned += 1
        self.broken = False

    def submit(self, fn, payload):
        if self.broken:
            raise BrokenProcessPool("pool is dead")
        future = Future()
        future.set_running_or_notify_cancel()
        return future


def _flight(job_id, deadline=None, started=None):
    payload = {"deadline": deadline}
    if started is None:
        started = time.perf_counter()
    return workers_module._InFlight(job_id, payload, started)


class TestFailOverHarvest:
    def make_pool(self, warm):
        pool = WorkerPool(processes=0)
        pool._pool = warm
        return pool

    def test_deadline_sweep_preserves_finished_results(self):
        """A job whose result is ready but unharvested when an unrelated
        job blows its deadline must keep its genuine ok outcome, not be
        reported as a crash casualty of the rebuild."""
        pool = self.make_pool(_FakeWarmPool())
        done = Future()
        done.set_running_or_notify_cancel()
        done.set_result({"mapping": {"a": "b"}})
        pending = Future()
        pending.set_running_or_notify_cancel()
        expired = Future()
        expired.set_running_or_notify_cancel()
        pool._futures[done] = _flight("job-done")
        pool._futures[pending] = _flight("job-pending")
        pool._futures[expired] = _flight(
            "job-late", deadline=0.001, started=time.perf_counter() - 1.0
        )
        outcomes = {o.job_id: o for o in pool.completed()}
        assert outcomes["job-late"].kind == "deadline"
        assert outcomes["job-done"].kind == "ok"
        assert outcomes["job-done"].result == {"mapping": {"a": "b"}}
        assert outcomes["job-pending"].kind == "crash"
        assert pool.respawns == 1
        assert pool._futures == {}

    def test_submit_on_broken_pool_sweeps_stale_futures(self):
        """submit() hitting BrokenProcessPool must fail over the broken
        executor's futures immediately — leaving them behind makes the
        next harvest respawn a second time and crash-classify jobs
        freshly submitted to the healthy rebuilt executor."""
        warm = _FakeWarmPool(broken=True)
        pool = self.make_pool(warm)
        stale_done = Future()
        stale_done.set_running_or_notify_cancel()
        stale_done.set_result({"mapping": {}})
        stale_pending = Future()
        stale_pending.set_running_or_notify_cancel()
        pool._futures[stale_done] = _flight("job-a")
        pool._futures[stale_pending] = _flight("job-b")
        pool.submit("job-c", {"deadline": None})
        # Exactly one respawn; only the fresh submission is in flight.
        assert pool.respawns == 1
        assert warm.respawned == 1
        assert len(pool._futures) == 1
        outcomes = {o.job_id: o for o in pool.completed()}
        assert set(outcomes) == {"job-a", "job-b"}
        assert outcomes["job-a"].kind == "ok"  # finished result kept
        assert outcomes["job-b"].kind == "crash"
        assert pool.respawns == 1  # harvest did not respawn again


# ----------------------------------------------------------------------
# WorkerPool shutdown: bounded drain
# ----------------------------------------------------------------------
class TestBoundedShutdown:
    def test_inline_shutdown_abandons_nothing(self):
        pool = WorkerPool(processes=0)
        pool.submit("job-1", {"paths": ("x.csv", "x.csv"), "patterns": []})
        assert pool.shutdown() == []


# ----------------------------------------------------------------------
# The tentpole chaos test: SIGKILL a worker mid-job, recover bit-identical
# ----------------------------------------------------------------------
def _held_execute(payload):
    """Record the executing pid, poll-wait on a hold file, run the job.

    Module-level so it pickles by reference; the hold-file path arrives
    via the environment, which forked workers inherit.  The pid lands in
    ``<hold>.pid`` (written atomically) so the test can kill exactly the
    worker holding the job.
    """
    hold = os.environ.get("REPRO_TEST_HOLD")
    if hold:
        staged = f"{hold}.pid.tmp"
        Path(staged).write_text(str(os.getpid()))
        os.replace(staged, f"{hold}.pid")
    deadline = time.monotonic() + 30.0
    while hold and os.path.exists(hold):
        if time.monotonic() > deadline:  # pragma: no cover - safety net
            break
        time.sleep(0.01)
    return _held_execute.real(payload)


_held_execute.real = workers_module.execute_match_job


class TestWorkerKillChaos:
    def test_killed_worker_recovers_to_identical_mapping(
        self, tmp_path, monkeypatch
    ):
        if pool_module.current_warm_pool() is not None:
            pool_module.close_warm_pool()
        baseline = make_service(tmp_path / "baseline")
        reference = baseline.submit_job("left", "right", patterns=PATTERNS)
        baseline.run_until_idle()
        expected = baseline.jobs.get(reference.job_id).result

        hold = tmp_path / "hold"
        hold.touch()
        monkeypatch.setenv("REPRO_TEST_HOLD", str(hold))
        monkeypatch.setattr(
            workers_module, "execute_match_job", _held_execute
        )
        service = make_service(
            tmp_path / "chaos", processes=2, max_retries=2
        )
        service.retry_policy = RetryPolicy(max_retries=2, backoff_base=0.001)
        try:
            job = service.submit_job("left", "right", patterns=PATTERNS)
            service.tick()  # dispatch onto the warm pool
            assert service.pool.active == 1

            # Wait for a worker to actually pick the job up.
            deadline = time.monotonic() + 10.0
            while not service.pool.worker_pids():
                assert time.monotonic() < deadline, "workers never spawned"
                time.sleep(0.01)
            pid_file = Path(f"{hold}.pid")
            while not pid_file.exists():
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            holder = int(pid_file.read_text())

            # Kill the worker holding the job, never the idle one: an
            # idle victim lets the held job finish before the executor
            # notices the death.
            injector = ChaosInjector(ChaosConfig(seed=7))
            victim = injector.kill_worker([holder])
            assert victim == holder
            assert injector.actions.workers_killed == 1

            hold.unlink()  # release the (now re-run) recipe
            service.run_until_idle()

            outcome = service.jobs.get(job.job_id)
            assert outcome.state == "done"
            assert outcome.worker_deaths >= 1
            assert service.recovery.jobs_retried >= 1
            assert service.recovery.workers_respawned >= 1
            # Bit-identical recovery: the supervised re-run equals the
            # undisturbed baseline exactly.
            assert outcome.result["mapping"] == expected["mapping"]
            assert outcome.result["score"] == expected["score"]
            assert outcome.result["stats"] == expected["stats"]
        finally:
            service.shutdown()
            pool_module.close_warm_pool()
