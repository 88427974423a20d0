"""Incremental ingestion and online matching.

The batch pipeline (freeze a log, build indices, run a matcher) assumed a
finished log; this package serves *live* event traffic instead:

* :class:`~repro.stream.ingest.StreamingLog` — append-only ingestion with
  a per-case open/close lifecycle over a wrapped
  :class:`~repro.log.eventlog.EventLog`;
* :class:`~repro.stream.deltas.DeltaState` — tracked pattern
  frequencies over the live log's own ``I_t`` trace index (each
  committed trace scanned exactly once), with a batch-rebuild
  :meth:`~repro.stream.deltas.DeltaState.verify` cross-check;
* :class:`~repro.stream.engine.OnlineMatcher` — holds the current mapping
  ``M``, recomputes its realized pattern normal distance cheaply from the
  maintained frequencies, and re-matches (warm-started) only when drift
  exceeds a threshold;
* :class:`~repro.stream.snapshots.LogSnapshot` — frozen point-in-time
  views for batch consumers outside the engine, which re-matches on the
  live log.
"""

from repro.stream.deltas import DeltaState, DeltaVerificationError
from repro.stream.engine import OnlineMatcher, StreamUpdate
from repro.stream.ingest import StreamingLog
from repro.stream.snapshots import LogSnapshot

__all__ = [
    "DeltaState",
    "DeltaVerificationError",
    "LogSnapshot",
    "OnlineMatcher",
    "StreamUpdate",
    "StreamingLog",
]
