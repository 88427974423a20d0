"""Append-only ingestion: the :class:`StreamingLog`.

A streaming log accepts live event traffic — single events appended to
open cases, or whole traces at once — and commits each case to a wrapped
:class:`~repro.log.eventlog.EventLog` when it closes.  Commitment is the
unit of consistency:

* open (still-growing) cases are invisible to every statistic, index and
  matcher — a case participates in frequencies only once its final event
  order is known;
* each committed trace is announced exactly once to subscribed listeners
  (delta maintainers, engines), in commit order, with its trace id, after
  the wrapped log has extended its trace index ``I_t`` with it;
* the wrapped log's generation counter advances per commit, so a stale
  frequency memo fails loudly.

:meth:`StreamingLog.snapshot` hands out frozen point-in-time copies for
batch consumers outside the online engine (which re-matches on the live
log); batch matchers need no changes to consume them.

Hardened ingestion: construct the stream with a
:class:`~repro.resilience.validation.TraceValidator` and commits are
*admitted* rather than trusted — schema/arity/duplicate-case rejects are
routed to a bounded
:class:`~repro.resilience.quarantine.QuarantineStore` with reasons
instead of raising, and commit listeners are isolated (a raising
listener is quarantined and counted, the commit and the remaining
listeners proceed).  Without a validator the historical trusting
behaviour is unchanged.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from repro.log.events import Event, Trace
from repro.log.eventlog import EventLog
from repro.resilience.quarantine import (
    QuarantineRecord,
    QuarantineStore,
    sanitize_events,
)
from repro.resilience.recovery import RecoveryStats
from repro.resilience.validation import TraceValidator
from repro.stream.snapshots import LogSnapshot

#: Listener signature: called with (trace_id, trace) after each commit.
CommitListener = Callable[[int, Trace], None]


class UnknownCaseError(ValueError, KeyError):
    """A case id that is not currently open was closed or aborted.

    Subclasses :class:`ValueError` (what these paths historically
    raised) and :class:`KeyError` (what the mistake morally is), so both
    historical ``except`` clauses keep working.
    """


class StreamingLog:
    """An append-only event log with a per-case open/close lifecycle.

    Parameters
    ----------
    name:
        Name of the wrapped log (snapshots inherit it, suffixed with the
        snapshot sequence number).
    traces:
        Optional initial backlog, committed immediately in order.
    validator:
        Optional :class:`~repro.resilience.validation.TraceValidator`.
        When set, every commit is validated first; rejects go to the
        quarantine store (with reasons) instead of raising, and raising
        commit listeners are isolated the same way.
    quarantine:
        Dead-letter store for rejects; auto-created when a validator is
        given without one.
    """

    def __init__(
        self,
        name: str = "",
        traces: Iterable[Trace | Sequence[Event]] = (),
        validator: TraceValidator | None = None,
        quarantine: QuarantineStore | None = None,
    ):
        self._log = EventLog([], name=name)
        # Build the trace index up-front so every commit extends it in
        # O(|trace|) instead of deferring a full pass to the first read.
        self._log.trace_index()
        self._open: dict[str, list[Event]] = {}
        self._listeners: list[CommitListener] = []
        self._snapshots_taken = 0
        self._validator = validator
        if validator is not None and quarantine is None:
            quarantine = QuarantineStore()
        self._quarantine = quarantine
        self._committed_cases: set[str] = set()
        self.recovery = RecoveryStats()
        for trace in traces:
            self.append_trace(trace)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def log(self) -> EventLog:
        """The live log of committed traces (grows in place)."""
        return self._log

    @property
    def generation(self) -> int:
        return self._log.generation

    @property
    def name(self) -> str:
        return self._log.name

    def __len__(self) -> int:
        """Number of *committed* traces."""
        return len(self._log)

    def open_cases(self) -> dict[str, tuple[Event, ...]]:
        """The still-open cases and their events so far."""
        return {case: tuple(events) for case, events in self._open.items()}

    @property
    def validator(self) -> TraceValidator | None:
        return self._validator

    @property
    def quarantine(self) -> QuarantineStore | None:
        """The dead-letter store (``None`` when the stream is unvalidated)."""
        return self._quarantine

    @property
    def committed_cases(self) -> frozenset[str]:
        """Case ids that have been committed (duplicate-case detection)."""
        return frozenset(self._committed_cases)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"StreamingLog({len(self._log)} committed, "
            f"{len(self._open)} open{label})"
        )

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def subscribe(self, listener: CommitListener) -> None:
        """Register ``listener`` to be called after every commit.

        Listeners registered mid-stream see only subsequent commits; the
        delta maintainer back-fills the backlog itself at attach time.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Per-event lifecycle
    # ------------------------------------------------------------------
    def open_trace(self, case_id: str) -> None:
        """Explicitly open a case (error if already open)."""
        if case_id in self._open:
            raise ValueError(f"case {case_id!r} is already open")
        self._open[case_id] = []

    def append_event(self, case_id: str, event: Event) -> None:
        """Append one event to a case, opening it if necessary.

        On a trusting (unvalidated) stream a non-string event raises
        immediately; with a validator the raw value is accepted here and
        judged at close time, so a corrupt event quarantines its whole
        trace instead of crashing mid-case.
        """
        if self._validator is None and not isinstance(event, str):
            raise TypeError(f"events must be strings, got {event!r}")
        self._open.setdefault(case_id, []).append(event)

    def close_trace(self, case_id: str) -> int | None:
        """Close a case, committing its trace; returns the trace id.

        Raises :class:`UnknownCaseError` when ``case_id`` is not open
        (never opened, already closed, or aborted).  On a validated
        stream a rejected trace is quarantined and ``None`` is returned;
        on a trusting stream an empty case raises ``ValueError``.
        """
        try:
            events = self._open.pop(case_id)
        except KeyError:
            raise UnknownCaseError(f"case {case_id!r} is not open") from None
        if self._validator is None and not events:
            raise ValueError(
                f"case {case_id!r} has no events; refusing to commit an "
                "empty trace"
            )
        return self._admit(events, case_id)

    def abort_trace(self, case_id: str, missing_ok: bool = False) -> bool:
        """Discard an open case without committing it.

        Returns whether a case was actually discarded.  An unknown (or
        already-closed) case id raises :class:`UnknownCaseError` unless
        ``missing_ok=True``, which makes the call an idempotent no-op —
        the mode for at-least-once upstream cancellation signals.
        """
        if case_id not in self._open:
            if missing_ok:
                return False
            raise UnknownCaseError(f"case {case_id!r} is not open") from None
        del self._open[case_id]
        return True

    # ------------------------------------------------------------------
    # Whole-trace ingestion
    # ------------------------------------------------------------------
    def append_trace(self, trace: Trace | Sequence[Event]) -> int | None:
        """Commit a whole trace at once; returns the trace id.

        On a validated stream a rejected trace lands in quarantine and
        ``None`` is returned instead.
        """
        if isinstance(trace, Trace):
            return self._admit(list(trace.events), trace.case_id)
        return self._admit(list(trace), None)

    def extend(self, traces: Iterable[Trace | Sequence[Event]]) -> int:
        """Commit many traces in order; returns how many were committed.

        Quarantined traces are not counted.
        """
        count = 0
        for trace in traces:
            if self.append_trace(trace) is not None:
                count += 1
        return count

    def _admit(self, events: list, case_id: str | None) -> int | None:
        """Validate raw events, then commit or quarantine them."""
        if self._validator is not None:
            reasons = self._validator.validate(
                events, case_id=case_id, committed_cases=self._committed_cases
            )
            if reasons:
                self.recovery.quarantined_traces += 1
                self._quarantine.add(
                    QuarantineRecord(
                        kind="trace",
                        reason="; ".join(reasons),
                        case_id=case_id,
                        events=sanitize_events(events),
                        source="stream",
                    )
                )
                return None
        return self._commit(Trace(events, case_id=case_id))

    def _commit(self, trace: Trace) -> int:
        trace_id = self._log.append_trace(trace)
        if trace.case_id is not None:
            self._committed_cases.add(trace.case_id)
        for listener in self._listeners:
            if self._quarantine is None:
                listener(trace_id, trace)
                continue
            # Listener isolation: one raising subscriber must not poison
            # the stream or starve the listeners after it.
            try:
                listener(trace_id, trace)
            except Exception as error:  # noqa: BLE001 — the isolation point
                self.recovery.listener_errors += 1
                self._quarantine.add(
                    QuarantineRecord(
                        kind="listener-error",
                        reason=f"{type(error).__name__}: {error}",
                        case_id=trace.case_id,
                        events=trace.events,
                        source="stream",
                    )
                )
        return trace_id

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, name: str | None = None) -> LogSnapshot:
        """A frozen point-in-time copy of the committed traces.

        The snapshot records the stream's current generation; batch
        matchers and indices consume it like any other event log, and it
        can never go stale because it never changes.
        """
        self._snapshots_taken += 1
        if name is None:
            base = self._log.name or "stream"
            name = f"{base}@{self._snapshots_taken}"
        return LogSnapshot(
            self._log.traces,
            name=name,
            stream_generation=self._log.generation,
            sequence=self._snapshots_taken,
        )
