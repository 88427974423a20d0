"""The matching daemon: one object wiring watcher, queue, pool, sessions.

:class:`MatchingService` owns a state directory::

    <state>/
      drop/             watched; operators drop .csv/.xes files here
      drop/quarantine/  unreadable dropped files, moved aside
      spool/            canonical CSVs of every registered log
      sessions/         one versioned checkpoint per online session
      quarantine.jsonl  spill-to-disk dead letters (rows, traces, files)
      manifest.json     registry + job queue + service metadata

and exposes the verbs the rest of the package builds on:

* :meth:`tick` — one scheduling round: poll the drop directory,
  dispatch queued jobs to the worker pool, harvest finished ones.
  Tests drive ticks directly for determinism; ticks are serialized, so
  ``POST /tick`` may race the loop safely.
* :meth:`serve` — the daemon loop, event-driven: it ticks whenever
  :attr:`~MatchingService.wakeup` is set (a job was submitted, a worker
  future resolved, a stop was requested) and otherwise once per poll
  interval, which paces only the time-driven work: drop-directory
  polls, retry backoff stamps, job deadlines and periodic checkpoints.
* :meth:`save_state` — manifest + session checkpoints, atomically.
* :meth:`resume` — rebuild the whole service from a state directory:
  spooled logs re-register, DONE/FAILED jobs return as history, killed
  RUNNING jobs re-queue, sessions restore from their checkpoints.

The kill-and-resume contract: ``save_state`` followed by process death
followed by ``resume`` on a fresh instance reaches the same mappings
and scores as never having died.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.obs.logs import bind, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import ObservabilityProbe, Probe
from repro.obs.profiler import SamplingProfiler
from repro.obs.telemetry import TelemetryHub
from repro.resilience.quarantine import QuarantineRecord, QuarantineStore
from repro.resilience.recovery import RecoveryStats
from repro.resilience.supervise import (
    OUTCOME_CRASH,
    OUTCOME_DEADLINE,
    DegradedStateMachine,
    RetryPolicy,
    reap_stale_files,
)
from repro.service.jobs import JobQueue, MatchJob, QueueFullError
from repro.service.registry import LogRegistry, UnknownLogError
from repro.service.sessions import SessionManager
from repro.service.watcher import DirectoryWatcher
from repro.service.workers import WorkerPool, job_payload

MANIFEST_FORMAT = "repro-service-manifest"
MANIFEST_VERSION = 1

logger = get_logger("service.daemon")


class MatchingService:
    """Matching-as-a-service over one state directory.

    Parameters
    ----------
    state_dir:
        Root of all service state (created if missing).
    processes:
        Worker processes for match jobs; ``0`` executes jobs inline in
        the daemon thread (deterministic, the test/CI mode).
    settle_polls:
        Stability polls the watcher requires before ingesting a dropped
        file (``0`` = ingest on sight).
    checkpoint_every:
        Seconds between periodic :meth:`save_state` calls from
        :meth:`tick`; ``None`` saves only on shutdown/demand.
    probe:
        Pass an existing probe to share a registry; by default the
        service builds its own :class:`ObservabilityProbe` so
        ``/metrics`` always has content.
    max_retries:
        Attempts beyond the first a failing job may consume before it
        is poisoned into quarantine (see :class:`RetryPolicy`).
    job_deadline:
        Default per-job wall-clock budget in seconds, enforced by the
        daemon (``None`` disables); a job may carry its own ``deadline``.
    queue_bound:
        Maximum queued+running jobs before submissions are refused with
        :class:`QueueFullError` (the API's 429); ``None`` = unbounded.
    retry_seed:
        Seed for the backoff jitter RNG — supervised schedules replay
        bit-for-bit like chaos runs.
    telemetry:
        Cross-process trace collection (PR 9): attempts spool spans in
        the workers, the daemon merges them per job and folds worker
        counter deltas into ``/metrics``.  ``False`` restores the
        telemetry-free payload and execution path bit-for-bit.
    profile:
        Attach a sampling profiler to the daemon process *and* ask each
        worker attempt to profile itself (speedscope files land next to
        the spools).  Default off — profiling is a debugging posture.
    log_ring:
        A :class:`~repro.obs.logs.LogRingBuffer` already wired into the
        logging tree (the CLI does this); exposed at ``GET /logs/tail``.
    """

    def __init__(
        self,
        state_dir: str | Path,
        processes: int = 0,
        settle_polls: int = 0,
        checkpoint_every: float | None = 30.0,
        probe: Probe | None = None,
        max_retries: int = 2,
        job_deadline: float | None = None,
        queue_bound: int | None = None,
        retry_seed: int = 0,
        telemetry: bool = True,
        profile: bool = False,
        log_ring=None,
    ):
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        if probe is None:
            probe = ObservabilityProbe(metrics=MetricsRegistry())
        self.probe = probe
        self.retry_policy = RetryPolicy(
            max_retries=max_retries, deadline=job_deadline, seed=retry_seed
        )
        self._retry_rng = self.retry_policy.rng()
        self.recovery = RecoveryStats()
        self.readiness = DegradedStateMachine()
        self.telemetry = TelemetryHub(
            self.state_dir,
            registry=getattr(probe, "metrics", None),
            enabled=telemetry,
            profile_workers=profile,
        )
        self._spools_reaped_once = False
        self.log_ring = log_ring
        self.profiler = SamplingProfiler() if profile else None
        if self.profiler is not None:
            self.profiler.start()
        self.quarantine = QuarantineStore(
            spill_path=self.state_dir / "quarantine.jsonl"
        )
        self.registry = LogRegistry(self.state_dir / "spool")
        self.watcher = DirectoryWatcher(
            self.state_dir / "drop",
            self.registry,
            self.quarantine,
            settle_polls=settle_polls,
            probe=probe,
        )
        self.jobs = JobQueue(probe=probe, bound=queue_bound)
        #: Wakes :meth:`serve` early: set on submission, when a worker
        #: future resolves, and when a stop is requested.
        self.wakeup = threading.Event()
        self.pool = WorkerPool(processes=processes, probe=probe)
        self.pool.wakeup = self.wakeup
        self._respawns_seen = self.pool.respawns
        self._respawned_this_round = False
        self.sessions = SessionManager(
            self.registry,
            self.state_dir / "sessions",
            quarantine=self.quarantine,
            probe=probe,
        )
        self.checkpoint_every = checkpoint_every
        self._last_save = time.monotonic()
        self._manifest_lock = threading.Lock()
        # The loop and POST /tick both tick; harvesting is not reentrant.
        self._tick_lock = threading.Lock()
        self.started_at = time.time()
        self.ticks = 0

    # ------------------------------------------------------------------
    # The scheduling loop
    # ------------------------------------------------------------------
    def tick(self, poll_drop: bool = True) -> dict:
        """One scheduling round; returns what it did (for tests/logs).

        ``poll_drop=False`` skips the drop-directory poll, so wakeups
        between two paced polls cannot shorten the watcher's settle
        window (which counts polls, not seconds).
        """
        with self._tick_lock:
            self.ticks += 1
            if not self._spools_reaped_once:
                # Deferred past construction so a resume() can claim its
                # jobs' spools first; anything left belongs to no job this
                # daemon will ever harvest.
                self._spools_reaped_once = True
                reaped = self.telemetry.reap(
                    known_job_ids=[job.job_id for job in self.jobs.jobs()],
                    reaper=reap_stale_files,
                )
                if reaped:
                    logger.info(
                        "reaped orphaned telemetry spools",
                        extra={"count": reaped},
                    )
            registered = self.watcher.poll() if poll_drop else []
            dispatched = self._dispatch()
            finished = self._harvest()
            self._update_readiness()
            if (
                self.checkpoint_every is not None
                and time.monotonic() - self._last_save >= self.checkpoint_every
            ):
                self.save_state()
            return {
                "registered": registered,
                "dispatched": dispatched,
                "finished": finished,
            }

    def serve(self, stopping: threading.Event, poll_interval: float) -> None:
        """Run the daemon loop until ``stopping`` is set.

        Each round clears :attr:`wakeup` *before* it checks ``stopping``
        and ticks, so a wake that lands mid-tick is never lost, then
        sleeps until the next wake or the next drop-directory poll falls
        due.  Polls stay exactly ``poll_interval`` apart however often
        jobs wake the loop, and no round waits longer than
        ``poll_interval``, so backoff stamps, deadlines and checkpoints
        are checked at least that often.  Whoever sets ``stopping`` must
        set :attr:`wakeup` after it (see :meth:`ServiceAPI.request_stop`).
        """
        next_poll = time.monotonic()
        while True:
            self.wakeup.clear()
            if stopping.is_set():
                return
            now = time.monotonic()
            poll_drop = now >= next_poll
            if poll_drop:
                next_poll = now + poll_interval
            self.tick(poll_drop=poll_drop)
            self.wakeup.wait(max(0.0, next_poll - time.monotonic()))

    def run_until_idle(self, max_ticks: int = 10_000) -> int:
        """Tick until no queued/running jobs remain; returns tick count.

        A tick that makes no progress (waiting on worker futures, or on
        a retry's backoff stamp to pass) waits on :attr:`wakeup`, so a
        resolving future resumes ticking at once; the short timeout
        covers backoff stamps and deadlines, which nothing signals.
        """
        spent = 0
        while self.jobs.depth > 0 or self.pool.active > 0:
            spent += 1
            if spent > max_ticks:
                raise RuntimeError(
                    f"service did not go idle within {max_ticks} ticks"
                )
            self.wakeup.clear()
            outcome = self.tick()
            if not (outcome["dispatched"] or outcome["finished"]):
                self.wakeup.wait(0.02 if self.pool.processes else 0.005)
        return spent

    def _dispatch(self) -> list[str]:
        dispatched = []
        while True:
            job = self.jobs.claim_next()
            if job is None:
                break
            try:
                payload = job_payload(
                    job,
                    self.registry.path(job.log_1),
                    self.registry.path(job.log_2),
                    deadline=self.retry_policy.deadline_for(job.deadline),
                    telemetry=self.telemetry.attempt_payload(job),
                )
            except UnknownLogError as error:
                self.jobs.fail(job.job_id, f"UnknownLogError: {error}")
                continue
            self.telemetry.attempt_started(job)
            with bind(trace_id=job.trace_id, job_id=job.job_id):
                logger.info(
                    "dispatching job attempt",
                    extra={
                        "attempt": job.attempts,
                        "method": job.options.method,
                    },
                )
            self.pool.submit(job.job_id, payload)
            dispatched.append(job.job_id)
        return dispatched

    def _harvest(self) -> list[str]:
        """Apply the retry policy to every harvested attempt.

        ``ok`` finishes the job; any failure consults
        :meth:`RetryPolicy.verdict` — ``retry`` re-queues the same pure
        recipe behind a jittered backoff stamp, ``poison`` fails it and
        routes a dead-letter record into quarantine (kind ``"job"``).
        Executor rebuilds performed by the pool are mirrored into
        :class:`RecoveryStats` here.
        """
        finished = []
        for outcome in self.pool.completed():
            job_id = outcome.job_id
            job = self.jobs.get(job_id)
            self.telemetry.attempt_finished(
                job_id, job.attempts, outcome.kind, outcome.error
            )
            if outcome.ok:
                # Fold the attempt's counter snapshot into /metrics
                # (exactly once — one JobOutcome per attempt is the
                # pool's harvest guarantee), then slim the bulky counter
                # rows out of the result document the API serves.
                telemetry = (outcome.result or {}).get("telemetry")
                if telemetry is not None:
                    self.telemetry.fold_outcome(telemetry)
                    outcome.result["telemetry"] = {
                        k: v for k, v in telemetry.items() if k != "counters"
                    }
                self.jobs.finish(job_id, outcome.result, outcome.elapsed_seconds)
                self.telemetry.merge_job(job_id, job.trace_id)
                with bind(trace_id=job.trace_id, job_id=job_id):
                    logger.info(
                        "job finished",
                        extra={
                            "attempt": job.attempts,
                            "elapsed_seconds": round(outcome.elapsed_seconds, 3),
                        },
                    )
                finished.append(job_id)
                continue
            worker_died = outcome.kind in (OUTCOME_CRASH, OUTCOME_DEADLINE)
            if outcome.kind == OUTCOME_DEADLINE:
                self.recovery.jobs_deadline_exceeded += 1
            verdict = self.retry_policy.verdict(
                attempts=job.attempts,
                worker_deaths=job.worker_deaths + (1 if worker_died else 0),
            )
            if verdict == "retry":
                delay = self.retry_policy.backoff(job.attempts, self._retry_rng)
                self.jobs.retry(
                    job_id,
                    outcome.error or outcome.kind,
                    not_before=time.monotonic() + delay,
                    worker_died=worker_died,
                )
                self.recovery.jobs_retried += 1
                with bind(trace_id=job.trace_id, job_id=job_id):
                    logger.warning(
                        "job attempt failed; retrying",
                        extra={
                            "kind": outcome.kind,
                            "attempt": job.attempts,
                            "backoff_seconds": round(delay, 3),
                            "error": (outcome.error or "")[:300],
                        },
                    )
                self.probe.count(
                    "repro_service_job_retries_total", kind=outcome.kind
                )
            else:
                self._poison(job, outcome)
                finished.append(job_id)
        respawns = self.pool.respawns
        self._respawned_this_round = respawns > self._respawns_seen
        if self._respawned_this_round:
            self.recovery.workers_respawned += respawns - self._respawns_seen
            self._respawns_seen = respawns
        return finished

    def _poison(self, job: MatchJob, outcome) -> None:
        """Dead-letter a job the policy refuses to retry again."""
        error = (
            f"poisoned after {job.attempts} attempt(s) "
            f"(last failure: {outcome.error or outcome.kind})"
        )
        self.jobs.fail(job.job_id, error, outcome.elapsed_seconds)
        self.quarantine.add(
            QuarantineRecord(
                kind="job",
                reason=error,
                case_id=job.job_id,
                events=(
                    f"log_1={job.log_1}",
                    f"log_2={job.log_2}",
                    f"method={job.options.method}",
                    f"worker_deaths={job.worker_deaths}",
                ),
                source="service",
            )
        )
        self.recovery.jobs_poisoned += 1
        self.telemetry.merge_job(job.job_id, job.trace_id)
        with bind(trace_id=job.trace_id, job_id=job.job_id):
            logger.error(
                "job poisoned into quarantine",
                extra={"kind": outcome.kind, "attempts": job.attempts},
            )
        self.probe.count(
            "repro_service_jobs_poisoned_total", kind=outcome.kind
        )

    def _update_readiness(self) -> None:
        """Recompute the /readyz verdict from queue and pool state."""
        bound = self.jobs.bound
        if bound is not None and self.jobs.depth >= bound:
            self.readiness.mark("queue-saturated")
        else:
            self.readiness.clear("queue-saturated")
        # A pool that had to rebuild is suspect until it completes a
        # scheduling round without another rebuild.
        if self._respawned_this_round:
            self.readiness.mark("worker-pool-rebuilding")
        else:
            self.readiness.clear("worker-pool-rebuilding")

    # ------------------------------------------------------------------
    # Submission facade (used by the API layer and tests)
    # ------------------------------------------------------------------
    def submit_job(self, log_1: str, log_2: str, **options) -> MatchJob:
        """Validate log names exist now, then queue the job.

        Raises :class:`QueueFullError` (counted as backpressure) when
        the queue is at its bound — callers map it to HTTP 429.
        """
        for name in (log_1, log_2):
            self.registry.info(name)  # raises UnknownLogError
        try:
            job = self.jobs.submit(log_1, log_2, **options)
        except QueueFullError:
            self.recovery.backpressure_rejections += 1
            self.readiness.mark("queue-saturated")
            self.probe.count("repro_service_backpressure_total")
            raise
        self.wakeup.set()
        return job

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.state_dir / "manifest.json"

    def save_state(self) -> Path:
        """Write the manifest and checkpoint every session, atomically."""
        with self._manifest_lock:
            self.sessions.checkpoint_all()
            document = {
                "format": MANIFEST_FORMAT,
                "version": MANIFEST_VERSION,
                "registry": self.registry.to_payload(),
                "jobs": self.jobs.to_payload(),
                "quarantine": self.quarantine.to_payload(),
            }
            temp = self.manifest_path.with_suffix(".json.tmp")
            temp.write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n"
            )
            os.replace(temp, self.manifest_path)
        self._last_save = time.monotonic()
        return self.manifest_path

    def resume(self) -> dict:
        """Restore registry, jobs, quarantine and sessions from disk.

        Safe on a fresh directory (restores nothing).  Returns a summary
        of what came back.
        """
        summary = {"logs": 0, "jobs_requeued": 0, "sessions": []}
        if self.manifest_path.exists():
            document = json.loads(self.manifest_path.read_text())
            if document.get("format") != MANIFEST_FORMAT:
                raise ValueError(
                    f"{self.manifest_path} is not a service manifest"
                )
            version = document.get("version")
            if isinstance(version, int) and version > MANIFEST_VERSION:
                raise ValueError(
                    f"manifest version {version} is newer than this build "
                    f"supports ({MANIFEST_VERSION}); upgrade before resuming"
                )
            summary["logs"] = self.registry.restore_payload(
                document.get("registry", {})
            )
            summary["jobs_requeued"] = self.jobs.restore_payload(
                document.get("jobs", {})
            )
            quarantine_payload = document.get("quarantine")
            if quarantine_payload:
                restored = QuarantineStore.from_payload(quarantine_payload)
                restored.spill_path = self.quarantine.spill_path
                self.quarantine = restored
                self.watcher.quarantine = restored
                self.sessions.quarantine = restored
        # Safety net under manifest loss (e.g. SIGKILL before the first
        # periodic save): spool files exist before the manifest mentions
        # them, so anything on disk but not in the manifest re-registers.
        summary["logs"] += self.registry.scan_spool()
        summary["sessions"] = self.sessions.resume()
        # Restored jobs keep their spools (their attempts merge when the
        # job reaches a terminal state under this daemon); everything
        # else in the spool directory is a dead generation's leftovers.
        self._spools_reaped_once = True
        self.telemetry.reap(
            known_job_ids=[job.job_id for job in self.jobs.jobs()],
            reaper=reap_stale_files,
        )
        logger.info(
            "service resumed",
            extra={
                "logs": summary["logs"],
                "jobs_requeued": summary["jobs_requeued"],
                "sessions": len(summary["sessions"]),
            },
        )
        return summary

    def shutdown(self) -> list[str]:
        """Save everything and drain the pool boundedly.

        Jobs still in flight after the drain timeout are abandoned (the
        manifest saved above holds them as RUNNING, so a later
        ``resume`` re-queues them) and their ids returned.
        """
        self.save_state()
        if self.profiler is not None and self.profiler.running:
            self.profiler.stop()
            try:
                profile_path = (
                    self.state_dir / "telemetry" / "daemon.speedscope.json"
                )
                profile_path.parent.mkdir(parents=True, exist_ok=True)
                profile_path.write_text(
                    json.dumps(self.profiler.speedscope(name="repro-daemon"))
                )
                logger.info(
                    "wrote daemon profile", extra={"path": str(profile_path)}
                )
            except OSError:
                pass
        return self.pool.shutdown()

    # ------------------------------------------------------------------
    # Introspection (what /healthz and /readyz serve)
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "ticks": self.ticks,
            "logs": len(self.registry),
            "jobs": len(self.jobs),
            "queue_depth": self.jobs.depth,
            "sessions": len(self.sessions),
            "quarantined": self.quarantine.total_seen,
            "workers": self.pool.processes,
            "readiness": self.readiness.state,
            "telemetry": {
                **self.telemetry.state(),
                "profiler": (
                    self.profiler.state()
                    if self.profiler is not None
                    else {"running": False, "samples": 0}
                ),
            },
            "supervision": {
                "jobs_retried": self.recovery.jobs_retried,
                "workers_respawned": self.recovery.workers_respawned,
                "jobs_poisoned": self.recovery.jobs_poisoned,
                "jobs_deadline_exceeded": self.recovery.jobs_deadline_exceeded,
                "backpressure_rejections": (
                    self.recovery.backpressure_rejections
                ),
            },
        }

    def readyz(self) -> dict:
        """The ``/readyz`` document (status + active degraded reasons)."""
        return self.readiness.snapshot()
