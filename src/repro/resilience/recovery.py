"""Counters for the self-healing paths.

:class:`RecoveryStats` plays the same role for the resilience layer that
:class:`~repro.core.stats.SearchStats` plays for the matchers: every
degradation, quarantine, invariant check, divergence and rebuild is
counted, so an operator can tell a healthy stream (all zeros) from one
that is silently limping (rebuilds climbing) at a glance.  They render
through :func:`~repro.obs.report.format_observability_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class RecoveryStats:
    """Counters accumulated by the resilience machinery."""

    #: Traces rejected by validation and routed to quarantine.
    quarantined_traces: int = 0
    #: Commit listeners that raised and were isolated.
    listener_errors: int = 0
    #: Cheap sampled invariant checks run on the delta state.
    invariant_checks: int = 0
    #: Cheap checks that failed and escalated to a full verify().
    cheap_check_failures: int = 0
    #: Full verify() cross-checks run (escalations + explicit calls).
    verifications: int = 0
    #: verify() runs that found incremental state diverged from batch.
    divergences: int = 0
    #: From-scratch rebuilds of the delta state after a divergence.
    rebuilds: int = 0
    #: Rebuild requests suppressed by the exponential backoff window.
    rebuilds_suppressed: int = 0
    # -- execution-plane supervision (PR 8) -----------------------------
    #: Job attempts re-queued after an error, worker crash, or deadline.
    jobs_retried: int = 0
    #: Worker-pool rebuilds after a worker death or runaway job.
    workers_respawned: int = 0
    #: Jobs declared poison (retries exhausted / two workers killed)
    #: and routed to the quarantine store instead of retried forever.
    jobs_poisoned: int = 0
    #: Job attempts abandoned because their wall-clock deadline passed.
    jobs_deadline_exceeded: int = 0
    #: Submissions rejected (HTTP 429) because the job queue was full.
    backpressure_rejections: int = 0

    def merge(self, other: "RecoveryStats") -> None:
        """Accumulate another layer's counters into this one."""
        for field in fields(self):
            setattr(
                self,
                field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )

    def merged_with(self, other: "RecoveryStats") -> "RecoveryStats":
        """A fresh sum of two layers' counters (neither is mutated)."""
        combined = RecoveryStats()
        combined.merge(self)
        combined.merge(other)
        return combined

    def total(self) -> int:
        """Sum of all counters — zero means nothing ever degraded."""
        return sum(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "RecoveryStats":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})
