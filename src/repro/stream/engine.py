"""Online matching: keep a mapping current while a log streams in.

The :class:`OnlineMatcher` serves the paper's matching problem against
live traffic.  One side (``reference``) is a frozen log over which the
patterns are declared; the other side arrives as a
:class:`~repro.stream.ingest.StreamingLog`.  Between (expensive) matcher
runs the engine only does cheap bookkeeping:

* a :class:`~repro.stream.deltas.DeltaState` maintains the frequencies of
  the *mapped* patterns ``M(p)`` in the streaming log — each committed
  trace is scanned once, at commit time;
* after each batch, :meth:`update` re-evaluates the realized pattern
  normal distance ``D^N(M)`` of the current mapping directly from those
  maintained frequencies (a sum over patterns, no trace access);
* only when the score has drifted beyond a configurable relative
  threshold — or the target vocabulary grew, or no mapping exists yet —
  does the engine re-match, warm-starting the advanced heuristic from the
  previous mapping and using exact A* (with the warm score as incumbent)
  below a vocabulary-size cutoff.

Every :meth:`update` call appends a :class:`StreamUpdate` record to
:attr:`OnlineMatcher.history`, which the evaluation layer renders as a
drift/re-match report.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import asdict, dataclass

from repro.core.distance import frequency_similarity
from repro.core.mapping import Mapping
from repro.core.matcher import EventMatcher, MatchOptions, check_number
from repro.core.scoring import build_pattern_set
from repro.log.events import Trace
from repro.log.eventlog import EventLog
from repro.obs.probe import NULL_PROBE, Probe
from repro.patterns.ast import Pattern
from repro.patterns.matching import PatternFrequencyEvaluator
from repro.patterns.parser import parse_pattern
from repro.resilience.quarantine import QuarantineStore
from repro.resilience.recovery import RecoveryStats
from repro.resilience.validation import TraceValidator
from repro.stream.deltas import DeltaState
from repro.stream.ingest import StreamingLog

#: Recipe of the re-matches above the engine's ``exact_cutoff``.
_HEURISTIC_REMATCH = MatchOptions("heuristic-advanced")


@dataclass(frozen=True)
class StreamUpdate:
    """What one :meth:`OnlineMatcher.update` call observed and did.

    ``degraded``/``gap`` mirror the anytime flags of a re-match result:
    a degraded re-match ran out of budget and adopted its best incumbent
    mapping, whose score may trail the optimum by at most ``gap``.
    """

    update_id: int
    num_traces: int
    score: float
    baseline: float
    drift: float
    rematched: bool
    reason: str | None
    method: str | None
    elapsed_seconds: float
    mapping_changed: bool
    degraded: bool = False
    gap: float = 0.0


class OnlineMatcher:
    """Drift-triggered online event matching against a streaming log.

    Parameters
    ----------
    reference:
        The frozen log whose vocabulary is being mapped; patterns are
        declared over it.
    stream:
        The live side.  The engine attaches a delta maintainer at
        construction, so it should be created before heavy ingestion
        (back-fill is handled either way).
    patterns:
        Complex SEQ/AND patterns over the reference vocabulary; vertex
        and edge patterns of the reference dependency graph are included
        automatically, as in the batch facade.
    drift_threshold:
        Re-match when ``|score - baseline| / baseline`` exceeds this.
    exact_cutoff:
        Use exact A* (``pattern-tight``) when both vocabularies have at
        most this many events; the advanced heuristic otherwise.
    node_budget, time_budget:
        Budgets for the exact search.  A budget overrun degrades
        gracefully: the anytime search returns its best incumbent, and
        when the reported optimality gap exceeds
        ``degraded_gap_threshold`` the facade falls back to the
        warm-started advanced heuristic, keeping the better score.
    degraded_gap_threshold:
        The gap above which a degraded exact result triggers the
        heuristic fallback (``None`` disables the fallback).
    min_traces:
        Hold (do nothing) until the stream has committed this many
        traces; matching a near-empty log produces noise mappings.
    check_every:
        Self-healing cadence of the attached
        :class:`~repro.stream.deltas.DeltaState`: run cheap invariant
        checks every this-many commits (``None`` disables).
    probe:
        Observability primitives: commit/update counters, re-match spans
        and timings, plus everything the inner matcher reports.  Runtime-only
        state — it is *not* checkpointed; re-attach one with
        :meth:`attach_probe` after :meth:`restore`.
    blocking:
        Run the multi-signal blocking tier ahead of the exact re-match
        (see :mod:`repro.blocking`): ``True``, a
        :class:`~repro.blocking.BlockingConfig` or its dict form.
        Applies only to the exact branch (heuristic re-matches ignore
        it); the normalized knobs are checkpointed and restored.

    The budgets, ``degraded_gap_threshold`` and ``blocking`` form
    :attr:`options`, the exact re-match's recipe.  A bad parameter
    raises ``ValueError`` naming it.
    """

    def __init__(
        self,
        reference: EventLog,
        stream: StreamingLog,
        patterns: Sequence[Pattern] = (),
        drift_threshold: float = 0.05,
        exact_cutoff: int = 6,
        node_budget: int | None = 200_000,
        time_budget: float | None = None,
        min_traces: int = 1,
        degraded_gap_threshold: float | None = 0.1,
        check_every: int | None = None,
        probe: Probe | None = None,
        blocking=None,
    ):
        check_number("drift_threshold", drift_threshold)
        check_number("exact_cutoff", exact_cutoff, int)
        check_number("min_traces", min_traces, int)
        if check_every is not None:
            check_number("check_every", check_every, int, least=1)
        #: Recipe of the exact re-match (checkpointed under ``config``).
        self.options = MatchOptions(
            "pattern-tight",
            node_budget=node_budget,
            time_budget=time_budget,
            degraded_fallback=degraded_gap_threshold,
            blocking=blocking,
        )
        self.reference = reference
        self.stream = stream
        self.complex_patterns = tuple(patterns)
        self.drift_threshold = drift_threshold
        self.exact_cutoff = exact_cutoff
        self.min_traces = min_traces
        self.check_every = check_every

        self._pattern_set = tuple(
            build_pattern_set(reference, complex_patterns=patterns)
        )
        evaluator = PatternFrequencyEvaluator(reference)
        self._f1 = {
            pattern: evaluator.frequency(pattern)
            for pattern in self._pattern_set
        }
        self._deltas = DeltaState(stream, check_every=check_every)
        self._mapping: Mapping | None = None
        self._mapped: dict[Pattern, Pattern] = {}
        self._baseline = 0.0
        self._known_targets: frozenset[str] = frozenset()
        self._history: list[StreamUpdate] = []
        #: Sequence number of the last checkpoint saved of this session;
        #: bumped by :func:`repro.resilience.checkpoint.save_checkpoint`
        #: and restored by ``load_checkpoint``, so checkpoint files are
        #: totally ordered across kill/resume cycles.
        self.checkpoint_sequence = 0
        self._probe = NULL_PROBE
        self._counting_commits = False
        if probe is not None:
            self.attach_probe(probe)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def mapping(self) -> Mapping | None:
        """The current mapping (``None`` before the first match)."""
        return self._mapping

    @property
    def deltas(self) -> DeltaState:
        return self._deltas

    @property
    def history(self) -> tuple[StreamUpdate, ...]:
        return tuple(self._history)

    @property
    def baseline_score(self) -> float:
        """``D^N(M)`` as realized right after the last re-match."""
        return self._baseline

    @property
    def probe(self) -> Probe:
        return self._probe

    def attach_probe(self, probe: Probe) -> None:
        """Point the engine's hooks at ``probe`` (e.g. after a restore).

        The first enabled probe also subscribes the engine, once, to
        the stream's commit feed, so the *current* probe's
        ``repro_stream_commits_total``/``_events_total`` track every
        trace committed from then on; a detached probe counts nothing
        more, and a run that never attaches one pays nothing per commit.
        The subscription holds the engine weakly: the stream must not
        keep its engine alive, or the pair would be a reference cycle
        that only a full garbage collection frees.
        """
        self._probe = probe
        if probe.enabled and not self._counting_commits:
            engine = weakref.ref(self)

            def count_commit(trace_id: int, trace) -> None:
                owner = engine()
                probe = owner._probe if owner is not None else NULL_PROBE
                if probe.enabled:
                    probe.count("repro_stream_commits_total")
                    probe.count("repro_stream_events_total", len(trace))

            self.stream.subscribe(count_commit)
            self._counting_commits = True

    def current_score(self) -> float:
        """``D^N(M)`` of the current mapping at the live frequencies.

        Computed purely from the delta-maintained match counts: one
        similarity term per fully-mapped pattern, no trace access.
        """
        if self._mapping is None:
            return 0.0
        deltas = self._deltas
        score = 0.0
        for pattern, mapped in self._mapped.items():
            score += frequency_similarity(
                self._f1[pattern], deltas.frequency(mapped)
            )
        return score

    # ------------------------------------------------------------------
    # The update step
    # ------------------------------------------------------------------
    def update(self) -> StreamUpdate:
        """Re-evaluate drift after a batch; re-match only if warranted."""
        probe = self._probe
        num_traces = len(self.stream)
        with probe.span("stream.update", num_traces=num_traces):
            record = self._update(num_traces)
        if probe.enabled:
            probe.count("repro_stream_updates_total")
            probe.gauge("repro_stream_score", record.score)
            drift = record.drift
            probe.gauge(
                "repro_stream_drift",
                0.0 if drift != drift else min(drift, 1e9),
            )
            if record.rematched:
                probe.count("repro_stream_rematches_total")
                probe.observe(
                    "repro_stream_rematch_seconds", record.elapsed_seconds
                )
        return record

    def _update(self, num_traces: int) -> StreamUpdate:
        reason = self._rematch_reason(num_traces)
        if reason is None:
            score = self.current_score()
            drift = self._relative_drift(score)
            record = StreamUpdate(
                update_id=len(self._history),
                num_traces=num_traces,
                score=score,
                baseline=self._baseline,
                drift=drift,
                rematched=False,
                reason=None,
                method=None,
                elapsed_seconds=0.0,
                mapping_changed=False,
            )
        else:
            record = self._rematch(num_traces, reason)
        self._history.append(record)
        return record

    def _rematch_reason(self, num_traces: int) -> str | None:
        if num_traces < self.min_traces:
            return None
        if self._mapping is None:
            return "cold-start"
        if self.stream.log.alphabet() - self._known_targets:
            return "alphabet-grew"
        drift = self._relative_drift(self.current_score())
        if drift > self.drift_threshold:
            return "drift"
        return None

    def _relative_drift(self, score: float) -> float:
        if self._mapping is None:
            return 0.0
        if self._baseline <= 0.0:
            return 0.0 if score <= 0.0 else float("inf")
        return abs(score - self._baseline) / self._baseline

    def _rematch(self, num_traces: int, reason: str) -> StreamUpdate:
        # The live log, not a snapshot: its one trace index is kept
        # current under append, so the matcher re-derives nothing.  The
        # re-match runs inside update(), between appends; an append
        # during it would surface as StaleIndexError from a frequency
        # memo, never as a silently wrong frequency.
        live = self.stream.log
        matcher = EventMatcher(
            self.reference, live, patterns=self.complex_patterns
        )
        exact = (
            len(self.reference.alphabet()) <= self.exact_cutoff
            and len(live.alphabet()) <= self.exact_cutoff
        )
        previous = self._mapping
        drift_before = self._relative_drift(self.current_score())
        with self._probe.span(
            "stream.rematch", reason=reason, num_traces=num_traces
        ):
            # Anytime semantics: a budget overrun of the exact re-match
            # yields the search's best incumbent (degraded, with a gap
            # bound); the facade falls back to the warm-started heuristic
            # when the gap is wider than the configured threshold.
            result = matcher.run(
                self.options if exact else _HEURISTIC_REMATCH,
                warm_start=previous,
                probe=self._probe,
            )

        self._mapping = result.mapping
        self._known_targets = self.stream.log.alphabet()
        self._refresh_mapped_patterns()
        self._baseline = self.current_score()
        return StreamUpdate(
            update_id=len(self._history),
            num_traces=num_traces,
            score=self._baseline,
            baseline=self._baseline,
            drift=drift_before,
            rematched=True,
            reason=reason,
            method=result.method,
            elapsed_seconds=result.elapsed_seconds,
            mapping_changed=result.mapping != previous,
            degraded=result.degraded,
            gap=result.gap,
        )

    def _refresh_mapped_patterns(self) -> None:
        """Re-derive ``p → M(p)`` and register the images with the deltas.

        Newly seen mapped patterns are back-filled once over the
        committed backlog; mapped patterns surviving a re-match keep
        their counts and cost nothing.
        """
        assert self._mapping is not None
        as_dict = self._mapping.as_dict()
        mapped_events = set(as_dict)
        self._mapped = {}
        for pattern in self._pattern_set:
            if pattern.event_set() <= mapped_events:
                self._mapped[pattern] = pattern.rename(as_dict)
        self._deltas.track(self._mapped.values())

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """The engine's complete raw state as one JSON-safe dict.

        Only *raw* state is captured — traces, open cases, quarantine,
        mapping, baseline, history, configuration.  Derived structures
        (``I_t``, bitsets, automata, tracked counts) are rebuilt
        deterministically at :meth:`restore` time.  Use
        :func:`repro.resilience.checkpoint.save_checkpoint` for the
        versioned on-disk form.
        """
        stream = self.stream
        validator = stream.validator
        quarantine = stream.quarantine
        return {
            "reference": _log_payload(self.reference),
            "patterns": [repr(pattern) for pattern in self.complex_patterns],
            "config": {
                "drift_threshold": self.drift_threshold,
                "exact_cutoff": self.exact_cutoff,
                "node_budget": self.options.node_budget,
                "time_budget": self.options.time_budget,
                "min_traces": self.min_traces,
                "degraded_gap_threshold": self.options.degraded_fallback,
                "check_every": self.check_every,
                "blocking": self.options.to_dict()["blocking"],
            },
            "stream": {
                "name": stream.name,
                "traces": _log_payload(stream.log)["traces"],
                "open_cases": {
                    case: list(events)
                    for case, events in stream.open_cases().items()
                },
                "validator": (
                    validator.to_payload() if validator is not None else None
                ),
                "quarantine": (
                    quarantine.to_payload() if quarantine is not None else None
                ),
                "recovery": stream.recovery.as_dict(),
            },
            "deltas": {"recovery": self._deltas.recovery.as_dict()},
            "mapping": (
                self._mapping.as_dict() if self._mapping is not None else None
            ),
            "baseline": self._baseline,
            "known_targets": sorted(self._known_targets),
            "history": [asdict(update) for update in self._history],
        }

    @classmethod
    def restore(cls, state: dict) -> "OnlineMatcher":
        """Rebuild a live engine from a :meth:`checkpoint` payload.

        The restored engine continues exactly where the checkpointed one
        stopped: same committed backlog (re-indexed from scratch), same
        open cases, quarantine, mapping, drift baseline and history —
        feeding it the rest of the stream reaches the same mapping and
        score as an uninterrupted run.
        """
        reference = EventLog(
            _traces_from_payload(state["reference"]["traces"]),
            name=state["reference"]["name"],
        )
        patterns = tuple(parse_pattern(text) for text in state["patterns"])
        stream_state = state["stream"]
        validator = (
            TraceValidator.from_payload(stream_state["validator"])
            if stream_state.get("validator") is not None
            else None
        )
        quarantine = (
            QuarantineStore.from_payload(stream_state["quarantine"])
            if stream_state.get("quarantine") is not None
            else None
        )
        stream = StreamingLog(
            name=stream_state["name"],
            traces=_traces_from_payload(stream_state["traces"]),
            validator=validator,
            quarantine=quarantine,
        )
        # Replaying the (already-validated) backlog re-counts nothing
        # into quarantine; the reject history lives in the restored
        # store and the counters below.
        stream.recovery = RecoveryStats.from_dict(stream_state["recovery"])
        for case_id, events in stream_state["open_cases"].items():
            for event in events:
                stream.append_event(case_id, event)

        engine = cls(reference, stream, patterns=patterns, **state["config"])
        engine._deltas.recovery = RecoveryStats.from_dict(
            state["deltas"]["recovery"]
        )
        if state["mapping"] is not None:
            engine._mapping = Mapping(state["mapping"])
            engine._refresh_mapped_patterns()
        engine._baseline = state["baseline"]
        engine._known_targets = frozenset(state["known_targets"])
        engine._history = [
            StreamUpdate(**update) for update in state["history"]
        ]
        return engine


def _log_payload(log: EventLog) -> dict:
    return {
        "name": log.name,
        "traces": [
            {"case_id": trace.case_id, "events": list(trace.events)}
            for trace in log.traces
        ],
    }


def _traces_from_payload(payload: Sequence[dict]) -> list[Trace]:
    return [
        Trace(entry["events"], case_id=entry.get("case_id"))
        for entry in payload
    ]
