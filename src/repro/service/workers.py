"""Job execution: the picklable recipe boundary and the supervised pool.

A match job crosses the process boundary as a plain dict (spool paths,
pattern texts, the job's :class:`~repro.core.matcher.MatchOptions`) and
comes back as a plain dict (mapping, score, gap, search counters).
:func:`execute_match_job` is the module-level function both sides agree
on — it reads the two spool CSVs and parses the pattern texts itself,
so a job's result is a pure function of its recipe.

:class:`WorkerPool` runs those recipes either **inline** (``processes=0``
— synchronous, in-process; the deterministic mode used by tests, the CI
smoke job, and ``repro serve --workers 0``) or on the persistent
:class:`~repro.parallel.pool.WarmPool` shared with the parallel search
layer.  Inline mode is not a toy: because results are produced by the
same function either way, switching modes cannot change any job's
output, only its latency.

The pool is *supervised* (PR 8): every harvested attempt comes back as
a :class:`JobOutcome` classified ``ok``/``error``/``crash``/
``deadline``, so the daemon's retry policy can tell a deterministic
recipe error (never worth a blind re-run on its own merits, but
bounded-retried for uniformity) from a worker that was SIGKILLed mid-
job (always worth one).  A ``BrokenProcessPool`` — the executor-wide
failure mode a single dead worker triggers — fails over every in-flight
job to the ``crash`` path and rebuilds the executor via
:meth:`~repro.parallel.pool.WarmPool.respawn`; a job that outlives its
parent-enforced wall-clock deadline is abandoned and its runaway worker
reclaimed the same way.  Because job recipes are pure, a retried
attempt on the rebuilt pool produces a bit-identical result to an
uninterrupted run.
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent.futures import wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

from repro.core.matcher import EventMatcher, MatchResult
from repro.log.csvio import read_csv
from repro.log.eventlog import EventLog
from repro.obs.probe import NULL_PROBE, Probe
from repro.obs.telemetry import WorkerTelemetry
from repro.parallel.pool import current_warm_pool, get_warm_pool
from repro.patterns.parser import parse_pattern
from repro.resilience.supervise import (
    OUTCOME_CRASH,
    OUTCOME_DEADLINE,
    OUTCOME_ERROR,
    OUTCOME_OK,
)

#: Longest ``shutdown`` waits for in-flight jobs before abandoning them.
SHUTDOWN_TIMEOUT = 30.0


def job_payload(
    job,
    path_1: str,
    path_2: str,
    deadline: float | None = None,
    telemetry: dict | None = None,
) -> dict:
    """The picklable recipe for ``job`` with log names resolved to paths.

    ``deadline`` is the effective wall-clock budget (the job's own, or
    the service default) — carried in the payload so the parent-side
    enforcement travels with the recipe through retries.  ``telemetry``
    (from :meth:`~repro.obs.telemetry.TelemetryHub.attempt_payload`)
    carries the trace id, attempt number and spool directory into the
    worker; ``None`` keeps the recipe — and the execution path — byte-
    identical to a telemetry-free build.
    """
    payload = {
        "paths": (str(path_1), str(path_2)),
        "patterns": list(job.patterns),
        "options": job.options,
        "deadline": deadline if deadline is not None else job.deadline,
    }
    if telemetry is not None:
        payload["telemetry"] = telemetry
    return payload


def _read_spool(path: str) -> EventLog:
    """One spool CSV (the registry spools every log as CSV)."""
    if not Path(path).exists():
        raise FileNotFoundError(f"no such file: {path}")
    return read_csv(path, name=Path(path).stem)


def execute_match_job(payload: dict) -> dict:
    """Rebuild a task from its recipe, run the matcher, serialize the result.

    Runs in a worker process (or inline); must stay importable at module
    level and touch only picklable state.  When the payload carries a
    ``telemetry`` dict a :class:`~repro.obs.telemetry.WorkerTelemetry`
    session spools spans and counts metrics around the run, and its
    summary rides home under the result's ``"telemetry"`` key; without
    one the matcher runs under the null probe exactly as before.
    """
    session = None
    telemetry_cfg = payload.get("telemetry")
    if telemetry_cfg:
        try:
            session = WorkerTelemetry.from_payload(telemetry_cfg)
        except OSError:
            session = None  # an unwritable spool dir must not fail the job
    try:
        path_1, path_2 = payload["paths"]
        matcher = EventMatcher(
            _read_spool(path_1),
            _read_spool(path_2),
            patterns=[parse_pattern(text) for text in payload["patterns"]],
        )
        result = matcher.run(
            payload["options"],
            probe=session.probe if session is not None else None,
        )
    except BaseException:
        # Close the spool so the merged trace shows where the attempt
        # died (SIGKILL skips this, but the per-span flush already left
        # the completed prefix on disk).
        if session is not None:
            session.finish(status="error")
        raise
    serialized = serialize_result(result)
    if session is not None:
        serialized["telemetry"] = session.finish(status="ok")
    return serialized


def serialize_result(result: MatchResult) -> dict:
    """A :class:`MatchResult` as the JSON document the API serves."""
    return {
        "method": result.method,
        "mapping": {
            str(source): str(target)
            for source, target in sorted(result.mapping.as_dict().items())
        },
        "score": result.score,
        "degraded": result.degraded,
        "gap": result.gap,
        "elapsed_seconds": result.elapsed_seconds,
        "stats": {
            "processed_mappings": result.stats.processed_mappings,
            "expanded_nodes": result.stats.expanded_nodes,
        },
    }


@dataclass(frozen=True)
class JobOutcome:
    """One harvested job attempt, classified for the retry policy.

    ``kind`` is one of ``"ok"`` / ``"error"`` (the recipe raised) /
    ``"crash"`` (the worker died under the job) / ``"deadline"`` (the
    attempt outlived its wall-clock budget and was abandoned).
    """

    job_id: str
    kind: str
    result: dict | None = None
    error: str | None = None
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.kind == OUTCOME_OK


@dataclass(frozen=True)
class _InFlight:
    job_id: str
    payload: dict
    started: float


class WorkerPool:
    """Run job recipes inline or across supervised worker processes.

    The daemon loop drives it with two calls: :meth:`submit` hands over
    a claimed job's recipe, :meth:`completed` harvests finished ones as
    :class:`JobOutcome` records and never blocks.  Every worker future
    sets :attr:`wakeup` when it resolves — with a result, an error, or a
    ``BrokenProcessPool`` after a worker death — so the loop sleeps on
    that event instead of polling the futures.  Inline mode executes
    during :meth:`submit` and queues the outcome for the next harvest,
    so the loop's control flow is identical in both modes.
    """

    def __init__(self, processes: int = 0, probe: Probe | None = None):
        if processes < 0:
            raise ValueError("processes must be non-negative")
        self.processes = processes
        self.probe = probe if probe is not None else NULL_PROBE
        if processes:
            reused = current_warm_pool() is not None
            self._pool = get_warm_pool(processes)
            self.probe.gauge("repro_parallel_pool_reuse", float(reused))
            self.probe.count(
                "repro_parallel_pool_reuses_total"
                if reused
                else "repro_parallel_pool_spawns_total"
            )
        else:
            self._pool = None
        self._futures: dict = {}  # future -> _InFlight
        self._done: list[JobOutcome] = []
        #: Set from the executor's thread whenever a worker future
        #: resolves; a daemon replaces it with the event its loop waits on.
        self.wakeup = threading.Event()
        #: Executor rebuilds this pool performed (mirrored by the daemon
        #: into RecoveryStats.workers_respawned).
        self.respawns = 0
        #: Job ids abandoned by :meth:`shutdown`'s bounded drain.
        self.abandoned: list[str] = []

    @property
    def active(self) -> int:
        """Jobs submitted but not yet harvested."""
        return len(self._futures) + len(self._done)

    def worker_pids(self) -> list[int]:
        """Live worker pids (empty in inline mode) — the chaos surface."""
        return self._pool.worker_pids() if self._pool is not None else []

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, job_id: str, payload: dict) -> None:
        if self._pool is None:
            started = time.perf_counter()
            try:
                result = execute_match_job(payload)
                outcome = JobOutcome(job_id, OUTCOME_OK, result=result)
            # SystemExit included: an inline job must never take the
            # daemon down with it.
            except (Exception, SystemExit) as error:  # noqa: BLE001
                outcome = JobOutcome(
                    job_id, OUTCOME_ERROR, error=_describe(error)
                )
            elapsed = time.perf_counter() - started
            deadline = payload.get("deadline")
            if outcome.ok and deadline is not None and elapsed > deadline:
                # Inline mode cannot interrupt a running job, but the
                # contract must not silently differ from pool mode: an
                # over-deadline attempt is a deadline failure either way.
                outcome = JobOutcome(
                    job_id,
                    OUTCOME_DEADLINE,
                    error=_deadline_error(elapsed, deadline),
                )
            self._done.append(
                JobOutcome(
                    outcome.job_id,
                    outcome.kind,
                    result=outcome.result,
                    error=outcome.error,
                    elapsed_seconds=elapsed,
                )
            )
            return
        started = time.perf_counter()
        try:
            future = self._pool.submit(execute_match_job, payload)
        except BrokenProcessPool:
            # The pool died between harvests (e.g. a worker was killed
            # while idle).  Sweep the broken executor's in-flight
            # futures *now* — left behind, they would resolve as
            # BrokenProcessPool on the next harvest and trigger a second
            # respawn that crash-classifies jobs freshly submitted to
            # the healthy rebuild.  Then rebuild and submit on the fresh
            # executor; a second refusal means the environment cannot
            # spawn workers at all, which is a crash outcome, not a
            # daemon crash.
            self._done.extend(
                self._fail_over("worker pool broke (worker died)")
            )
            self._respawn("submit-broken")
            try:
                future = self._pool.submit(execute_match_job, payload)
            except BrokenProcessPool as error:
                self._done.append(
                    JobOutcome(job_id, OUTCOME_CRASH, error=_describe(error))
                )
                return
        self._futures[future] = _InFlight(job_id, payload, started)
        future.add_done_callback(self._wake)

    def _wake(self, _future) -> None:
        self.wakeup.set()

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    def completed(self) -> list[JobOutcome]:
        """Harvest every finished attempt without waiting for running ones."""
        harvested = list(self._done)
        self._done.clear()
        harvested.extend(self._check_deadlines())
        if self._futures:
            finished = [future for future in self._futures if future.done()]
            pool_broke = False
            for future in finished:
                outcome = self._harvest_one(future, self._futures.pop(future))
                # A done future only yields ``crash`` when its executor
                # broke, so the kind doubles as the rebuild signal.
                pool_broke = pool_broke or outcome.kind == OUTCOME_CRASH
                harvested.append(outcome)
            if pool_broke:
                # A broken executor resolves *all* futures exceptionally,
                # so any stragglers surface as crashes too; fail them
                # over now and rebuild once.
                harvested.extend(
                    self._fail_over("worker pool broke (worker died)")
                )
                self._respawn("worker-death", kill_workers=False)
        return harvested

    def _harvest_one(self, future, flight: _InFlight) -> JobOutcome:
        """Classify one finished future (``future.done()`` must hold)."""
        elapsed = time.perf_counter() - flight.started
        try:
            return JobOutcome(
                flight.job_id,
                OUTCOME_OK,
                result=future.result(),
                elapsed_seconds=elapsed,
            )
        except BrokenProcessPool as error:
            return JobOutcome(
                flight.job_id,
                OUTCOME_CRASH,
                error=_describe(error),
                elapsed_seconds=elapsed,
            )
        except (Exception, SystemExit) as error:  # noqa: BLE001
            return JobOutcome(
                flight.job_id,
                OUTCOME_ERROR,
                error=_describe(error),
                elapsed_seconds=elapsed,
            )

    def _check_deadlines(self) -> list[JobOutcome]:
        """Abandon in-flight attempts that outlived their deadline.

        The runaway worker is still computing; the only way to reclaim
        it without cooperative cancellation (which a wedged worker by
        definition cannot offer) is to rebuild the pool, so every other
        in-flight job fails over to the crash path and retries on the
        fresh executor.
        """
        now = time.perf_counter()
        expired = [
            (future, flight)
            for future, flight in self._futures.items()
            if flight.payload.get("deadline") is not None
            and now - flight.started > flight.payload["deadline"]
            and not future.done()
        ]
        if not expired:
            return []
        outcomes = []
        for future, flight in expired:
            self._futures.pop(future, None)
            outcomes.append(
                JobOutcome(
                    flight.job_id,
                    OUTCOME_DEADLINE,
                    error=_deadline_error(
                        now - flight.started, flight.payload["deadline"]
                    ),
                    elapsed_seconds=now - flight.started,
                )
            )
        outcomes.extend(
            self._fail_over("pool rebuilt to reclaim an over-deadline worker")
        )
        self._respawn("deadline", kill_workers=True)
        return outcomes

    def _fail_over(self, reason: str) -> list[JobOutcome]:
        """Sweep the in-flight set: harvest finished futures for real,
        fail the genuinely-running rest over to ``crash`` outcomes.

        Harvesting first matters — a future whose result is ready but
        not yet collected (say it finished just as an unrelated job
        blew its deadline) must keep its genuine outcome instead of
        being reported as a casualty of the rebuild, which would both
        discard a computed result and spuriously push its job toward
        the poison threshold.
        """
        outcomes = [
            self._harvest_one(future, self._futures.pop(future))
            for future in [f for f in self._futures if f.done()]
        ]
        now = time.perf_counter()
        outcomes.extend(
            JobOutcome(
                flight.job_id,
                OUTCOME_CRASH,
                error=f"in-flight when {reason}",
                elapsed_seconds=now - flight.started,
            )
            for flight in self._futures.values()
        )
        self._futures.clear()
        return outcomes

    def _respawn(self, reason: str, kill_workers: bool = False) -> None:
        self._pool.respawn(kill_workers=kill_workers)
        self.respawns += 1
        self.probe.count("repro_service_pool_respawns_total", reason=reason)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = SHUTDOWN_TIMEOUT) -> list[str]:
        """Drain in-flight jobs boundedly; report the abandoned ones.

        The warm pool is the process-wide singleton and deliberately
        survives daemon shutdown — that persistence is what makes
        restarts cheap.  But the *drain* must be bounded: a worker that
        died mid-job leaves a future that never resolves, and a daemon
        that waits on it forever turns one worker death into an
        unkillable shutdown.  Jobs still unfinished after ``timeout``
        seconds are abandoned (they re-queue from the manifest on the
        next ``--resume``) and their ids returned.
        """
        self.abandoned = []
        if self._pool is not None and self._futures:
            _done, not_done = wait(list(self._futures), timeout=timeout)
            self.abandoned = sorted(
                self._futures[future].job_id for future in not_done
            )
            self._futures.clear()
        return self.abandoned


def _describe(error: BaseException) -> str:
    """One-line error description plus the innermost frame for triage."""
    tail = traceback.extract_tb(error.__traceback__)
    where = f" at {tail[-1].filename}:{tail[-1].lineno}" if tail else ""
    return f"{type(error).__name__}: {error}{where}"


def _deadline_error(elapsed: float, deadline: float) -> str:
    return (
        f"deadline exceeded: attempt ran {elapsed:.3f}s "
        f"against a {deadline:.3f}s wall-clock budget"
    )
