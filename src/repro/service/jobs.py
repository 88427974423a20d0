"""Match jobs: the unit of work the daemon schedules.

A :class:`MatchJob` is a *recipe*, not a computation — two registered
log names, pattern texts, and matcher options.  Log names resolve to
spool paths at dispatch time, so a job survives the daemon restarting
(it lives in the manifest as plain JSON) and always matches the current
registration of its logs.

The :class:`JobQueue` owns the lifecycle::

    QUEUED --claim--> RUNNING --finish--> DONE
                       |    |
                       |    +--fail----> FAILED
                       +----retry----> QUEUED (backoff-pending)

All transitions are lock-protected (HTTP handler threads submit while
the daemon loop claims) and every transition is visible to the probe:
``repro_service_jobs_submitted_total``, ``repro_service_jobs_finished``
``_total{state=...}`` and the ``repro_service_queue_depth`` gauge.

Supervision (PR 8) adds two queue-level policies:

* **Backpressure** — a ``bound`` on queue depth; :meth:`submit` raises
  :class:`QueueFullError` once that many jobs are queued or running,
  which the HTTP API maps to ``429 Too Many Requests``.
* **Retry bookkeeping** — each job counts its ``attempts`` and the
  ``worker_deaths`` it caused; :meth:`retry` flips a RUNNING job back to
  QUEUED with a ``not_before`` backoff stamp that :meth:`claim_next`
  honours.  ``not_before`` is a ``time.monotonic`` value and therefore
  deliberately *not* persisted — after a restart every queued job is
  immediately runnable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

from repro.obs.probe import NULL_PROBE, Probe
from repro.obs.telemetry import new_trace_id, validate_trace_id
from repro.resilience.supervise import validate_deadline

class UnknownJobError(KeyError):
    """An API call referenced a job id that does not exist."""


class QueueFullError(RuntimeError):
    """Submission refused: the queue is at its depth bound.

    Carries ``retry_after`` — the coarse seconds a client should wait
    before resubmitting (the API surfaces it as a ``Retry-After``
    header).
    """

    def __init__(self, depth: int, bound: int, retry_after: float = 1.0):
        super().__init__(
            f"queue is full ({depth} jobs against a bound of {bound})"
        )
        self.depth = depth
        self.bound = bound
        self.retry_after = retry_after


QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: States a job can be observed in; terminal ones keep their payload.
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)


@dataclass
class MatchJob:
    """One scheduled matching run between two registered logs."""

    job_id: str
    log_1: str
    log_2: str
    patterns: tuple[str, ...] = ()
    method: str = "pattern-tight"
    node_budget: int | None = None
    time_budget: float | None = None
    strict: bool = False
    degraded_fallback: float | None = None
    #: Blocking-tier request: ``None``/``False`` off, ``True`` default
    #: knobs, or a :class:`~repro.blocking.BlockingConfig` field dict.
    blocking: dict | bool | None = None
    state: str = QUEUED
    result: dict | None = None
    error: str | None = None
    elapsed_seconds: float = 0.0
    # -- telemetry (PR 9) -----------------------------------------------
    #: Correlation id minted at submission (or propagated from the
    #: client's ``X-Trace-Id``); rides the payload into the worker and
    #: names every span/log line the job produces across processes.
    trace_id: str | None = None
    # -- supervision bookkeeping (PR 8) --------------------------------
    #: Optional per-job wall-clock budget in seconds (overrides the
    #: service-level default when set).
    deadline: float | None = None
    #: Completed execution attempts (0 until first claimed).
    attempts: int = 0
    #: Workers that died while executing this job (two = poison).
    worker_deaths: int = 0
    #: ``time.monotonic`` stamp before which claim_next skips this job.
    #: Monotonic clocks don't survive restarts, so this is never
    #: persisted — restored jobs are immediately runnable.
    not_before: float = 0.0

    def to_payload(self) -> dict:
        return {
            "job_id": self.job_id,
            "log_1": self.log_1,
            "log_2": self.log_2,
            "patterns": list(self.patterns),
            "method": self.method,
            "node_budget": self.node_budget,
            "time_budget": self.time_budget,
            "strict": self.strict,
            "degraded_fallback": self.degraded_fallback,
            "blocking": self.blocking,
            "state": self.state,
            "result": self.result,
            "error": self.error,
            "elapsed_seconds": self.elapsed_seconds,
            "trace_id": self.trace_id,
            "deadline": self.deadline,
            "attempts": self.attempts,
            "worker_deaths": self.worker_deaths,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MatchJob":
        # Keys this build does not know, such as the removed per-job
        # ``workers`` option, are ignored, so older manifests still load.
        # A hand-edited or corrupt manifest must not wedge restore (or,
        # worse, smuggle a non-numeric deadline past submit-time
        # validation into the daemon loop): drop malformed deadlines.
        try:
            deadline = validate_deadline(payload.get("deadline"))
        except ValueError:
            deadline = None
        return cls(
            job_id=payload["job_id"],
            log_1=payload["log_1"],
            log_2=payload["log_2"],
            patterns=tuple(payload.get("patterns", ())),
            method=payload.get("method", "pattern-tight"),
            node_budget=payload.get("node_budget"),
            time_budget=payload.get("time_budget"),
            strict=payload.get("strict", False),
            degraded_fallback=payload.get("degraded_fallback"),
            blocking=payload.get("blocking"),
            state=payload.get("state", QUEUED),
            result=payload.get("result"),
            error=payload.get("error"),
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
            trace_id=validate_trace_id(payload.get("trace_id")),
            deadline=deadline,
            attempts=payload.get("attempts", 0),
            worker_deaths=payload.get("worker_deaths", 0),
        )


class JobQueue:
    """Thread-safe FIFO of :class:`MatchJob` with terminal-state history.

    ``bound``, when set, caps the number of non-terminal jobs; a
    saturated queue refuses further submissions with
    :class:`QueueFullError` instead of growing without limit.
    """

    def __init__(self, probe: Probe | None = None, bound: int | None = None):
        if bound is not None and bound < 1:
            raise ValueError("queue bound must be positive")
        self._jobs: dict[str, MatchJob] = {}
        self._order: list[str] = []
        self._counter = 0
        self._lock = threading.Lock()
        self._probe = probe if probe is not None else NULL_PROBE
        self.bound = bound

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        log_1: str,
        log_2: str,
        patterns=(),
        method: str = "pattern-tight",
        node_budget: int | None = None,
        time_budget: float | None = None,
        strict: bool = False,
        degraded_fallback: float | None = None,
        blocking: dict | bool | None = None,
        deadline: float | None = None,
        trace_id: str | None = None,
        enforce_bound: bool = True,
    ) -> MatchJob:
        """Queue a new job; raises :class:`QueueFullError` at the bound.

        ``trace_id`` propagates a caller-supplied correlation id (the
        API's ``X-Trace-Id``); anything unusable is replaced by a fresh
        one, never rejected — correlation must not fail a submission.
        ``enforce_bound=False`` bypasses backpressure — used by manifest
        restore, where refusing previously-accepted jobs would lose them.
        """
        # Deadlines come from unauthenticated API payloads and flow into
        # parent-side `elapsed > deadline` arithmetic: reject anything
        # non-numeric/non-finite/non-positive here (the API's 400)
        # before it can detonate inside the daemon loop.
        deadline = validate_deadline(deadline)
        trace_id = validate_trace_id(trace_id) or new_trace_id()
        with self._lock:
            depth = self._depth_locked()
            if enforce_bound and self.bound is not None and depth >= self.bound:
                raise QueueFullError(depth, self.bound)
            self._counter += 1
            job = MatchJob(
                job_id=f"job-{self._counter:06d}",
                log_1=log_1,
                log_2=log_2,
                patterns=tuple(patterns),
                method=method,
                node_budget=node_budget,
                time_budget=time_budget,
                strict=strict,
                degraded_fallback=degraded_fallback,
                blocking=blocking,
                deadline=deadline,
                trace_id=trace_id,
            )
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
            depth = self._depth_locked()
        if self._probe.enabled:
            self._probe.on_job_submitted(method)
            self._probe.on_queue_depth(depth)
        return job

    def rematch(self, job_id: str) -> MatchJob:
        """Queue a fresh job with the same recipe as ``job_id``."""
        original = self.get(job_id)
        return self.submit(
            original.log_1,
            original.log_2,
            patterns=original.patterns,
            method=original.method,
            node_budget=original.node_budget,
            time_budget=original.time_budget,
            strict=original.strict,
            degraded_fallback=original.degraded_fallback,
            blocking=original.blocking,
            deadline=original.deadline,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def claim_next(self, now: float | None = None) -> MatchJob | None:
        """Oldest *runnable* queued job, flipped to RUNNING; ``None`` if idle.

        A job whose ``not_before`` backoff stamp is still in the future
        is skipped, not removed — it becomes runnable again once the
        clock passes the stamp.  Claiming counts as the start of an
        attempt, so ``attempts`` increments here.
        """
        if now is None:
            now = time.monotonic()
        with self._lock:
            for job_id in self._order:
                job = self._jobs[job_id]
                if job.state == QUEUED and job.not_before <= now:
                    job.state = RUNNING
                    job.attempts += 1
                    return replace(job)
        return None

    def backoff_pending(self, now: float | None = None) -> int:
        """Queued jobs currently held back by a backoff stamp."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            return sum(
                1
                for job in self._jobs.values()
                if job.state == QUEUED and job.not_before > now
            )

    def finish(self, job_id: str, result: dict, elapsed_seconds: float) -> None:
        self._finalize(job_id, DONE, result=result, elapsed=elapsed_seconds)

    def fail(self, job_id: str, error: str, elapsed_seconds: float = 0.0) -> None:
        self._finalize(job_id, FAILED, error=error, elapsed=elapsed_seconds)

    def retry(
        self,
        job_id: str,
        error: str,
        not_before: float = 0.0,
        worker_died: bool = False,
    ) -> MatchJob:
        """Flip a RUNNING job back to QUEUED for another attempt.

        ``error`` records why the last attempt failed (kept on the job
        so an eventually-poisoned job carries its history); ``not_before``
        is the monotonic stamp the backoff computed; ``worker_died``
        increments the poison-relevant death counter.
        """
        with self._lock:
            job = self._jobs[job_id]
            if job.state != RUNNING:
                raise ValueError(
                    f"cannot retry job {job_id!r} in state {job.state!r}"
                )
            job.state = QUEUED
            job.error = error
            job.result = None
            job.not_before = not_before
            if worker_died:
                job.worker_deaths += 1
            snapshot = replace(job)
        if self._probe.enabled:
            self._probe.on_queue_depth(self.depth)
        return snapshot

    def _finalize(
        self,
        job_id: str,
        state: str,
        result: dict | None = None,
        error: str | None = None,
        elapsed: float = 0.0,
    ) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.state = state
            job.result = result
            job.error = error
            job.elapsed_seconds = elapsed
            method = job.method
            depth = self._depth_locked()
        if self._probe.enabled:
            self._probe.on_job_finished(method, state, elapsed)
            self._probe.on_queue_depth(depth)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> MatchJob:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(f"no job named {job_id!r}")
            return replace(job)

    def jobs(self) -> list[MatchJob]:
        with self._lock:
            return [replace(self._jobs[job_id]) for job_id in self._order]

    def _depth_locked(self) -> int:
        return sum(
            1
            for job in self._jobs.values()
            if job.state in (QUEUED, RUNNING)
        )

    @property
    def depth(self) -> int:
        """Jobs not yet in a terminal state."""
        with self._lock:
            return self._depth_locked()

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    # ------------------------------------------------------------------
    # Manifest round-trip
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        with self._lock:
            return {
                "counter": self._counter,
                "jobs": [
                    self._jobs[job_id].to_payload() for job_id in self._order
                ],
            }

    def restore_payload(self, payload: dict) -> int:
        """Reload jobs from a manifest; interrupted jobs re-queue.

        DONE and FAILED jobs come back verbatim (their results are part
        of the service's history); QUEUED jobs stay queued; RUNNING jobs
        were killed mid-flight, so they restart from QUEUED — match jobs
        are pure functions of their recipe, rerunning is always safe.
        Returns how many jobs were re-queued for execution.
        """
        requeued = 0
        with self._lock:
            for job_payload in payload.get("jobs", ()):
                job = MatchJob.from_payload(job_payload)
                if job.state == RUNNING:
                    job.state = QUEUED
                    job.result = None
                    job.error = None
                if job.state == QUEUED:
                    requeued += 1
                if job.job_id not in self._jobs:
                    self._order.append(job.job_id)
                self._jobs[job.job_id] = job
            self._counter = max(
                self._counter, payload.get("counter", len(self._jobs))
            )
        return requeued
