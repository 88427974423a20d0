"""Tracked pattern frequencies under append-only ingestion.

Everything the matchers derive from a log — the trace index ``I_t``, the
dependency graph's vertex/edge trace counts, and pattern match counts
behind ``f(p)`` — is *monotone under append*: a newly committed trace
can only add postings and raise counts, never retract anything.  The
live log keeps its own one :class:`~repro.log.index.TraceIndex` current
under append (:meth:`~repro.log.eventlog.EventLog.append_trace`), so
the vertex/edge counts and the match counts of every pattern of one or
two events are *views* of it: popcounts of event or bigram postings,
costing nothing at commit time and microseconds at read time.
:class:`DeltaState` adds only what the index cannot answer by popcount:

* the (rare) patterns of three or more events keep a count, bumped by
  the commit hook as each trace is committed, through the pattern's
  compiled multi-order :class:`~repro.kernel.automaton.OrderAutomaton` —
  and only when the trace's alphabet covers the pattern's event set.

Normalized frequencies are then count / current-trace-total at read time.
:meth:`DeltaState.verify` cross-checks the log's index and every tracked
count against a from-scratch batch rebuild over the raw traces — the
safety net behind the subsystem's core invariant (*incremental equals
batch*), cheap enough to run in tests and periodically in production.

Self-healing: constructed with ``check_every=N``, the state runs cheap
O(alphabet) invariant spot-checks every ``N``-th commit.  A failed spot
check escalates to a full :meth:`DeltaState.verify`; a confirmed
divergence triggers :meth:`DeltaState.rebuild` — a from-scratch
reconstruction of the log's trace index and the deep pattern counts —
under an exponential backoff so persistently hostile state (e.g. a
corrupted live log) cannot turn every commit into a rebuild.  Every
check, escalation, divergence and rebuild is counted in
:class:`~repro.resilience.recovery.RecoveryStats`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.kernel.automaton import OrderAutomaton
from repro.kernel.frequency import iter_bits
from repro.log.events import Event, Trace
from repro.log.index import TraceIndex
from repro.patterns.ast import Pattern
from repro.patterns.index import PatternIndex
from repro.patterns.matching import cached_allowed_orders, pattern_frequency
from repro.resilience.recovery import RecoveryStats
from repro.stream.ingest import StreamingLog


class DeltaVerificationError(RuntimeError):
    """Incremental state diverged from a batch rebuild of the same log."""


class DeltaState:
    """Tracked pattern frequencies over a streaming log's trace index.

    Parameters
    ----------
    stream:
        The streaming log to attach to.  Patterns tracked later are
        back-filled over the committed traces; afterwards the state
        follows every commit through the stream's listener hook.
    patterns:
        Patterns to track from the start; more can be registered later
        with :meth:`track` (e.g. mapped patterns after a re-match).
    check_every:
        Run a cheap invariant spot-check every this-many commits,
        escalating to :meth:`verify` + :meth:`rebuild` on failure.
        ``None`` (the default) disables self-healing.
    """

    def __init__(
        self,
        stream: StreamingLog,
        patterns: Iterable[Pattern] = (),
        check_every: int | None = None,
    ):
        if check_every is not None and check_every < 1:
            raise ValueError("check_every must be positive or None")
        self._log = stream.log
        self._pattern_index = PatternIndex()
        self._orders: dict[Pattern, frozenset[tuple[Event, ...]]] = {}
        # Patterns of one or two events are answered from the log's
        # posting/bigram bitsets; only patterns of three or more events
        # keep a commit-time count, each matched through a compiled
        # multi-order automaton.
        self._deep: list[tuple[Pattern, frozenset[Event], OrderAutomaton]] = []
        self._counts: dict[Pattern, int] = {}
        self.check_every = check_every
        self.recovery = RecoveryStats()
        self._commits_seen = 0
        self._rebuild_backoff = 1
        self._next_rebuild_at = 0
        self.track(patterns)
        stream.subscribe(self._on_commit)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _on_commit(self, trace_id: int, trace: Trace) -> None:
        self._commits_seen += 1
        if self._deep:
            alphabet = trace.alphabet()
            events = trace.events
            counts = self._counts
            for pattern, event_set, automaton in self._deep:
                if event_set <= alphabet and automaton.matches(events):
                    counts[pattern] += 1
        if (
            self.check_every is not None
            and self._commits_seen % self.check_every == 0
        ):
            self.heal()

    def _count_committed(
        self, event_set: frozenset[Event], automaton: OrderAutomaton
    ) -> int:
        """Committed traces the automaton matches, among the candidates."""
        log = self._log
        candidates = log.trace_index().candidate_bits(event_set)
        return sum(
            1
            for trace_id in iter_bits(candidates)
            if automaton.matches(log[trace_id].events)
        )

    def track(self, patterns: Iterable[Pattern]) -> tuple[Pattern, ...]:
        """Start tracking additional patterns; returns the new ones.

        Patterns of one or two events need no back-fill at all: their
        counts are read on demand from the log's trace index.  A new
        pattern of three or more events gets a compiled
        :class:`~repro.kernel.automaton.OrderAutomaton` (so the commit
        hook checks all ω(p) allowed orders in one pass per trace) plus
        one count over the committed candidates; already-tracked
        patterns cost nothing.
        """
        fresh = self._pattern_index.extend(patterns)
        for pattern in fresh:
            orders = cached_allowed_orders(pattern)
            self._orders[pattern] = orders
            if len(next(iter(orders))) >= 3:
                event_set = pattern.event_set()
                automaton = OrderAutomaton(orders)
                self._deep.append((pattern, event_set, automaton))
                self._counts[pattern] = self._count_committed(
                    event_set, automaton
                )
        return fresh

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def num_traces(self) -> int:
        return len(self._log)

    @property
    def patterns(self) -> tuple[Pattern, ...]:
        """The tracked patterns, in registration order."""
        return self._pattern_index.patterns

    def match_count(self, pattern: Pattern) -> int:
        """Number of committed traces matching ``pattern``."""
        count = self._counts.get(pattern)
        if count is not None:
            return count
        # One event: its posting popcount; two: the union of the allowed
        # orders' bigram postings.
        index = self._log.trace_index()
        bits = 0
        for order in self._orders[pattern]:
            if len(order) == 1:
                bits |= index.posting_bits(order[0])
            else:
                bits |= index.bigram_bits(*order)
        return bits.bit_count()

    def frequency(self, pattern: Pattern) -> float:
        """Normalized frequency ``f(p)`` over the committed traces."""
        if not self._log:
            return 0.0
        return self.match_count(pattern) / len(self._log)

    def frequencies(self) -> dict[Pattern, float]:
        """All tracked frequencies at the current trace total."""
        total = len(self._log)
        if total == 0:
            return {pattern: 0.0 for pattern in self._orders}
        return {
            pattern: self.match_count(pattern) / total
            for pattern in self._orders
        }

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Cross-check the log's index and every count against a batch rebuild.

        Rebuilds ``I_t`` from the raw committed traces and compares it
        with the log's index (interned events and traces, event and
        bigram postings), then recounts every tracked pattern with the
        naive Definition 4 scan.  Raises :class:`DeltaVerificationError`
        naming the first mismatch; silent divergence is the one failure
        mode an online engine cannot tolerate.
        """
        self.recovery.verifications += 1
        try:
            self._verify_against_batch()
        except DeltaVerificationError:
            self.recovery.divergences += 1
            raise

    def _verify_against_batch(self) -> None:
        live = self._log
        index = live.trace_index()
        fresh = TraceIndex(trace.events for trace in live)

        if index.interner.events != fresh.interner.events:
            raise DeltaVerificationError(
                "interned events diverged: incremental "
                f"{index.interner.events} != batch {fresh.interner.events}"
            )
        if index.interner.interned_traces != fresh.interner.interned_traces:
            raise DeltaVerificationError(
                f"interned traces diverged: incremental index covers "
                f"{index.num_traces} traces, batch {fresh.num_traces}"
            )
        for event in sorted(
            fresh.event_postings.keys() | index.event_postings.keys()
        ):
            if index.posting_bits(event) != fresh.posting_bits(event):
                raise DeltaVerificationError(
                    f"I_t postings diverged for event {event!r}: "
                    f"incremental {sorted(index.postings(event))} != "
                    f"batch {sorted(fresh.postings(event))}"
                )
        if index.edges() != fresh.edges():
            raise DeltaVerificationError(
                "dependency edge set diverged: incremental "
                f"{index.edges()} != batch {fresh.edges()}"
            )
        for source, target in fresh.edges():
            incremental = index.bigram_bits(source, target).bit_count()
            batch = fresh.bigram_bits(source, target).bit_count()
            if incremental != batch:
                raise DeltaVerificationError(
                    f"edge count diverged for ({source!r}, {target!r}): "
                    f"incremental {incremental} != batch {batch}"
                )

        for pattern in self.patterns:
            batch = pattern_frequency(live, pattern)
            incremental = self.frequency(pattern)
            if abs(batch - incremental) > 1e-12:
                raise DeltaVerificationError(
                    f"frequency diverged for pattern {pattern!r}: "
                    f"incremental {incremental} != batch {batch}"
                )

    # ------------------------------------------------------------------
    # Self-healing
    # ------------------------------------------------------------------
    def check_invariants(self) -> list[str]:
        """Cheap spot-checks; returns the problems found (empty = clean).

        Costs O(alphabet + tracked patterns) — the index covers exactly
        the committed traces, deep counts lie within ``[0, #traces]``,
        no posting references a trace beyond the log, and one sampled
        trace's membership bits are cross-checked both ways against the
        ``I_t`` postings (the sampled trace rotates with the commit
        counter, so repeated checks sweep the backlog).  Designed to run
        inline on the commit path; :meth:`verify` is the expensive full
        cross-check these escalate to.
        """
        self.recovery.invariant_checks += 1
        problems: list[str] = []
        log = self._log
        index = log.trace_index()
        total = len(log)
        if index.num_traces != total:
            problems.append(
                f"trace index covers {index.num_traces} traces, log has "
                f"{total}"
            )
        for pattern, count in self._counts.items():
            if not 0 <= count <= total:
                problems.append(
                    f"count {count} of pattern {pattern!r} outside "
                    f"[0, {total}]"
                )
        postings = index.event_postings
        if total and not problems:
            for event, bits in postings.items():
                if bits.bit_length() > total:
                    problems.append(
                        f"posting bits of event {event!r} reference a "
                        f"phantom trace beyond id {total - 1}"
                    )
                    break
        if total and not problems:
            trace_id = self._commits_seen % total
            trace_alphabet = log[trace_id].alphabet()
            bit = 1 << trace_id
            for event in index.alphabet():
                present = bool(postings.get(event, 0) & bit)
                if present != (event in trace_alphabet):
                    problems.append(
                        f"posting bit of event {event!r} disagrees with "
                        f"trace {trace_id}"
                    )
                    break
        if problems:
            self.recovery.cheap_check_failures += 1
        return problems

    def heal(self) -> bool:
        """One spot-check → verify → rebuild escalation; True if clean.

        Called automatically every ``check_every`` commits.  A clean
        spot-check resets the rebuild backoff.  A confirmed divergence
        rebuilds at most once per backoff window (1, 2, 4, … commits),
        so hostile state cannot turn every commit into an O(backlog)
        rebuild; suppressed rebuilds are counted.
        """
        if not self.check_invariants():
            self._rebuild_backoff = 1
            return True
        try:
            self.verify()
        except DeltaVerificationError:
            if self._commits_seen < self._next_rebuild_at:
                self.recovery.rebuilds_suppressed += 1
                return False
            self.rebuild()
            self._next_rebuild_at = self._commits_seen + self._rebuild_backoff
            self._rebuild_backoff = min(self._rebuild_backoff * 2, 1024)
            return False
        # verify() passed: the spot-check tripped on something the full
        # cross-check does not confirm; nothing to heal.
        return True

    def rebuild(self) -> None:
        """Reconstruct the log's trace index and the deep pattern counts.

        Both are rebuilt from scratch from the committed traces; tracked
        patterns and their compiled automata are kept.  This is the
        recovery action behind :meth:`heal`, and is also safe to call
        directly.
        """
        self._log.rebuild_trace_index()
        for pattern, event_set, automaton in self._deep:
            self._counts[pattern] = self._count_committed(event_set, automaton)
        self.recovery.rebuilds += 1
