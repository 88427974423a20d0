"""Supervised execution: the policies that keep the daemon's execution
plane alive.

PR 3 hardened the *data* plane — dirty traces quarantine, delta state
self-heals, checkpoints survive kills.  This module applies the same
discipline to the *execution* plane, where the faults are processes
instead of payloads:

* :class:`RetryPolicy` — per-job wall-clock deadlines, bounded retries
  with exponential backoff and seeded jitter, and the poison-job rule
  (a job that exhausts its retries, or that takes two workers down with
  it, stops being retried and becomes a dead letter).  Jitter comes
  from a seeded :class:`random.Random`, so a supervised run's schedule
  is replayable exactly like a chaos run.
* :class:`DegradedStateMachine` — the service's readiness state: READY
  until some component marks a reason (worker pool rebuilding, queue
  saturated), DEGRADED until every reason clears.  ``/readyz`` serves
  its verdict as 200/503.
* :func:`reap_stale_files` — sweeps crash-safe byproducts (telemetry
  span spools, per-worker profiles) that a dead daemon left behind.

Everything here is parent-side bookkeeping on cold paths (job
transitions, pool rebuilds, startup) — the no-fault path pays a few
dict/float operations per job, which ``bench_resilience`` bounds at
<5% over unsupervised dispatch.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

#: Outcome kinds a supervised attempt can end with (the retry policy
#: decides per kind whether another attempt is worth scheduling).
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"
OUTCOME_CRASH = "crash"
OUTCOME_DEADLINE = "deadline"

#: A job whose execution killed this many workers is poison regardless
#: of how many retries its policy would still allow.
POISON_WORKER_DEATHS = 2


def validate_deadline(value, field: str = "deadline") -> float | None:
    """``value`` as a positive finite deadline in seconds, or ``None``.

    Deadlines arrive from unauthenticated HTTP payloads and flow
    straight into parent-side arithmetic (``elapsed > deadline``), so
    anything that is not a positive finite real number — strings, bools,
    NaN, infinities, non-positives — is rejected here with
    :class:`ValueError` (the API's 400) instead of detonating as a
    :class:`TypeError` inside the daemon loop.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"{field} must be a number of seconds, got {type(value).__name__}"
        )
    if not math.isfinite(value) or value <= 0:
        raise ValueError(
            f"{field} must be a positive, finite number of seconds"
        )
    return float(value)


@dataclass(frozen=True)
class RetryPolicy:
    """Deadlines, bounded retries, exponential backoff with seeded jitter.

    Parameters
    ----------
    max_retries:
        Attempts *after* the first one a failing job may consume before
        it is declared poison (``0`` fails jobs on their first error).
    deadline:
        Default per-job wall-clock budget in seconds, enforced by the
        parent (a job may carry its own tighter/looser deadline);
        ``None`` disables deadline enforcement.
    backoff_base:
        Delay before the first retry, in seconds.
    backoff_factor:
        Multiplier applied per subsequent retry.
    backoff_max:
        Hard cap on any single delay.
    jitter:
        Fraction of the delay randomized (``0.1`` = up to +10%), drawn
        from a :class:`random.Random` seeded with ``seed`` so schedules
        replay bit-for-bit.
    """

    max_retries: int = 2
    deadline: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        validate_deadline(self.deadline)
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def rng(self) -> random.Random:
        """A fresh seeded jitter source (one per supervised queue)."""
        return random.Random(self.seed)

    def backoff(self, attempt: int, rng: random.Random | None = None) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        delay = min(delay, self.backoff_max)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * rng.random()
        return min(delay, self.backoff_max)

    def verdict(self, attempts: int, worker_deaths: int) -> str:
        """``"retry"`` or ``"poison"`` for a job that just failed.

        ``attempts`` counts completed attempts including the failing
        one; ``worker_deaths`` counts workers that died executing it.
        """
        if worker_deaths >= POISON_WORKER_DEATHS:
            return "poison"
        if attempts > self.max_retries:
            return "poison"
        return "retry"

    def deadline_for(self, job_deadline: float | None) -> float | None:
        """The effective deadline: the job's own, else the policy's."""
        return job_deadline if job_deadline is not None else self.deadline


class DegradedStateMachine:
    """READY ⇄ DEGRADED, driven by named reasons.

    Components :meth:`mark` a reason when they enter a degraded mode
    (worker pool rebuilding after a crash, queue saturated) and
    :meth:`clear` it when they recover; the service is READY exactly
    when no reason is active.  Transitions are counted so an operator
    can distinguish "degraded once at startup" from "flapping".
    """

    READY = "ready"
    DEGRADED = "degraded"

    def __init__(self):
        self._reasons: dict[str, float] = {}
        self.transitions = 0

    @property
    def state(self) -> str:
        return self.DEGRADED if self._reasons else self.READY

    @property
    def ready(self) -> bool:
        return not self._reasons

    def reasons(self) -> list[str]:
        """Active reasons, oldest first."""
        return sorted(self._reasons, key=self._reasons.__getitem__)

    def mark(self, reason: str) -> None:
        if reason not in self._reasons:
            if not self._reasons:
                self.transitions += 1
            self._reasons[reason] = time.monotonic()

    def clear(self, reason: str) -> None:
        if self._reasons.pop(reason, None) is not None and not self._reasons:
            self.transitions += 1

    def snapshot(self) -> dict:
        """The ``/readyz`` document."""
        return {"status": self.state, "reasons": self.reasons()}


def reap_stale_files(
    directory, suffixes: tuple[str, ...], known_prefixes=()
) -> int:
    """Unlink files in ``directory`` no live owner can claim.

    Crash-safe byproducts (telemetry span spools, per-worker profiles)
    are written under a state directory with a
    ``<owner-id>.<rest><suffix>`` name; after a daemon death nobody
    will ever merge them, so the successor sweeps everything whose
    owner id (the filename up to the first ``.``) is not in
    ``known_prefixes``.  Races with a concurrent
    writer or reaper are benign — an unlink that loses just finds the
    file gone.  Returns how many files were removed.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    known = set(known_prefixes)
    reaped = 0
    for path in directory.iterdir():
        name = path.name
        if not name.endswith(suffixes):
            continue
        if name.split(".", 1)[0] in known:
            continue
        try:
            path.unlink()
        except OSError:
            continue
        reaped += 1
    return reaped
