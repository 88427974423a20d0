"""repro.resilience — graceful degradation and self-healing streams.

The production-facing layer of the reproduction: every long-running path
degrades instead of failing.

* **Anytime exact search** — budget-exhausted A* returns a complete,
  injective incumbent flagged ``degraded`` with an optimality-gap bound
  (see :mod:`repro.core.astar`); ``strict=True`` keeps the historical
  :class:`~repro.core.astar.SearchBudgetExceeded`.
* **Ingestion hardening** — a :class:`TraceValidator` in front of
  :class:`~repro.stream.ingest.StreamingLog` routes schema/arity/
  duplicate-case rejects into a bounded :class:`QuarantineStore` with
  reasons; commit listeners are isolated so one bad subscriber cannot
  poison the stream.
* **Self-healing deltas** — sampled invariant checks on
  :class:`~repro.stream.deltas.DeltaState`, escalating to a full
  ``verify()`` and a rebuild-with-backoff on divergence, all counted in
  :class:`RecoveryStats`.
* **Fault injection** — :class:`ChaosInjector` manufactures dirty feeds
  (drop/duplicate/reorder/corrupt, flaky listeners) for the chaos tests.
* **Checkpoint/restore** — :func:`save_checkpoint` /
  :func:`load_checkpoint` round-trip a live
  :class:`~repro.stream.engine.OnlineMatcher` through a versioned JSON
  document and resume mid-stream.
* **Supervised execution** — :class:`RetryPolicy` (deadlines, bounded
  retries with seeded backoff jitter, poison-job verdicts) and
  :class:`DegradedStateMachine` (the daemon's READY/DEGRADED
  readiness; see :mod:`repro.resilience.supervise`).
"""

from repro.resilience.chaos import (
    ChaosActions,
    ChaosConfig,
    ChaosInjector,
    InducedListenerError,
    corrupt_delta_state,
)
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.quarantine import (
    QuarantineRecord,
    QuarantineStore,
    load_spilled,
    replay_spilled,
    sanitize_events,
)
from repro.resilience.recovery import RecoveryStats
from repro.resilience.supervise import DegradedStateMachine, RetryPolicy
from repro.resilience.validation import TraceValidator

__all__ = [
    "CHECKPOINT_VERSION",
    "ChaosActions",
    "ChaosConfig",
    "ChaosInjector",
    "CheckpointError",
    "DegradedStateMachine",
    "InducedListenerError",
    "QuarantineRecord",
    "QuarantineStore",
    "RecoveryStats",
    "RetryPolicy",
    "TraceValidator",
    "corrupt_delta_state",
    "load_checkpoint",
    "load_spilled",
    "replay_spilled",
    "save_checkpoint",
    "sanitize_events",
]
