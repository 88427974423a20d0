"""Delta maintenance of matching state under append-only ingestion.

Everything the matchers derive from a log — the trace inverted index
``I_t``, the dependency graph's vertex/edge trace counts, and pattern
match counts behind ``f(p)`` — is *monotone under append*: a newly
committed trace can only add postings and raise counts, never retract
anything.  :class:`DeltaState` exploits this: each committed trace is
examined exactly once, at commit time,

* its alphabet extends the ``I_t`` postings
  (:meth:`~repro.log.index.TraceIndex.refresh`);
* the wrapped :class:`~repro.log.eventlog.EventLog` updates its
  vertex/edge counts in O(|trace|) (the ``repro.log`` append path);
* the :class:`~repro.kernel.frequency.FrequencyKernel` absorbs the
  trace into its bitset posting lists and bigram bitsets, so the match
  counts of every pattern of one or two events are *derived state* —
  popcounts over incrementally maintained bitsets, costing nothing at
  commit time and microseconds at read time;
* only the (rare) patterns of three or more events are scanned at
  commit time, each through its compiled multi-order
  :class:`~repro.kernel.automaton.OrderAutomaton` — and only when the
  trace's alphabet covers the pattern's event set.

Normalized frequencies are then count / current-trace-total at read time.
:meth:`DeltaState.verify` cross-checks the whole incremental state
against a from-scratch batch rebuild — the safety net behind the
subsystem's core invariant (*incremental equals batch*), cheap enough to
run in tests and periodically in production.

Commits are absorbed *lazily*: the commit hook itself only counts the
trace as pending (the wrapped log's own O(|trace|) statistics update is
the only per-commit work), and the pending backlog is absorbed in one
pass at the next read — so a burst of N commits between two drift checks
pays one index/kernel refresh instead of N.  An absorb catches up by
incremental replay (O(pending)), or by a from-scratch rebuild
(O(backlog)) exactly when nothing absorbed is left to reuse
(``pending >= total``, the restore back-fill case), where one tight
batch pass beats replaying commit by commit.  Both paths reconstruct
pure functions of the committed traces, so the choice can never change
any answer, and it depends only on the two counts, never on timing.

Self-healing: constructed with ``check_every=N``, the state runs cheap
O(alphabet) invariant spot-checks every ``N``-th commit.  A failed spot
check escalates to a full :meth:`DeltaState.verify`; a confirmed
divergence triggers :meth:`DeltaState.rebuild` — a from-scratch
reconstruction of the index, kernel and pattern counts — under an
exponential backoff so persistently hostile state (e.g. a corrupted
live log) cannot turn every commit into a rebuild.  Every check,
escalation, divergence and rebuild is counted in
:class:`~repro.resilience.recovery.RecoveryStats`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graph.dependency import dependency_graph
from repro.graph.digraph import DiGraph
from repro.kernel.automaton import OrderAutomaton
from repro.kernel.frequency import FrequencyKernel
from repro.log.events import Event, Trace
from repro.log.eventlog import EventLog
from repro.log.index import TraceIndex
from repro.patterns.ast import Pattern
from repro.patterns.index import PatternIndex
from repro.patterns.matching import cached_allowed_orders, pattern_frequency
from repro.resilience.recovery import RecoveryStats
from repro.stream.ingest import StreamingLog


class DeltaVerificationError(RuntimeError):
    """Incremental state diverged from a batch rebuild of the same log."""


class DeltaState:
    """Incrementally maintained ``I_t`` / dependency / pattern-frequency state.

    Parameters
    ----------
    stream:
        The streaming log to attach to.  Already-committed traces are
        back-filled at attach time; afterwards the state follows every
        commit through the stream's listener hook.
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
        self._log.ensure_statistics()
        self._trace_index = TraceIndex(self._log)
        self._pattern_index = PatternIndex()
        self._kernel = FrequencyKernel(
            self._log, trace_index=self._trace_index
        )
        self._orders: dict[Pattern, frozenset[tuple[Event, ...]]] = {}
        # Patterns of one or two events are answered lazily from the
        # kernel's posting/bigram bitsets; only patterns of three or
        # more events keep a commit-time count, each matched through a
        # compiled multi-order automaton.
        self._deep: list[tuple[Pattern, frozenset[Event], OrderAutomaton]] = []
        self._counts: dict[Pattern, int] = {}
        self.check_every = check_every
        self.recovery = RecoveryStats()
        self._commits_seen = 0
        self._rebuild_backoff = 1
        self._next_rebuild_at = 0
        #: Commits counted but not yet absorbed into index/kernel/counts.
        self._pending = 0
        #: Absorption passes run (each covers the whole pending backlog).
        self.absorbs = 0
        #: Absorptions that chose a from-scratch rebuild over incremental
        #: replay because every committed trace was pending.
        self.adaptive_rebuilds = 0
        self.track(patterns)
        stream.subscribe(self._on_commit)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _on_commit(self, trace_id: int, trace: Trace) -> None:
        # The commit hook is deliberately O(1): the trace is only counted
        # as pending and absorbed at the next read, so a batch of commits
        # between two drift checks pays one refresh, not one per trace.
        self._commits_seen += 1
        self._pending += 1
        if (
            self.check_every is not None
            and self._commits_seen % self.check_every == 0
        ):
            self.heal()

    def _absorb(self) -> None:
        """Catch the derived state up with the pending commits.

        Rebuilds from scratch when every committed trace is pending
        (replaying everything and rebuilding everything are the same
        work, but the rebuild runs in tight batch loops), and otherwise
        replays incrementally: refresh the index/kernel and scan only
        the pending traces through the deep automata.  Either way the
        result is a pure function of the committed traces, so reads
        after an absorb are identical no matter which path ran.
        """
        pending = self._pending
        if not pending:
            return
        total = len(self._log)
        self.absorbs += 1
        if pending >= total:
            self.adaptive_rebuilds += 1
            self._rebuild_structures()
            return
        self._kernel.refresh()
        if self._deep:
            counts = self._counts
            for trace in self._log.traces[total - pending : total]:
                alphabet = trace.alphabet()
                events = trace.events
                for pattern, event_set, automaton in self._deep:
                    if event_set <= alphabet and automaton.matches(events):
                        counts[pattern] += 1
        self._pending = 0

    def track(self, patterns: Iterable[Pattern]) -> tuple[Pattern, ...]:
        """Start tracking additional patterns; returns the new ones.

        Patterns of one or two events need no back-fill at all: their
        counts are read on demand from the kernel's bitsets.  A new
        pattern of three or more events gets a compiled
        :class:`~repro.kernel.automaton.OrderAutomaton` (so the commit
        hook checks all ω(p) allowed orders in one pass per trace) plus
        one kernel count over the committed backlog; already-tracked
        patterns cost nothing.
        """
        fresh = self._pattern_index.extend(patterns)
        if fresh:
            self._absorb()
        for pattern in fresh:
            orders = cached_allowed_orders(pattern)
            self._orders[pattern] = orders
            if len(next(iter(orders))) >= 3:
                self._deep.append(
                    (pattern, pattern.event_set(), OrderAutomaton(orders))
                )
                self._counts[pattern] = self._kernel.count_matching(orders)
        return fresh

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def trace_index(self) -> TraceIndex:
        """The incrementally maintained ``I_t`` (absorbed up to date)."""
        self._absorb()
        return self._trace_index

    @property
    def kernel(self) -> FrequencyKernel:
        """The frequency kernel maintained alongside ``I_t``."""
        self._absorb()
        return self._kernel

    @property
    def pending_commits(self) -> int:
        """Commits awaiting absorption into the derived structures."""
        return self._pending

    @property
    def num_traces(self) -> int:
        return len(self._log)

    @property
    def patterns(self) -> tuple[Pattern, ...]:
        """The tracked patterns, in registration order."""
        return self._pattern_index.patterns

    def match_count(self, pattern: Pattern) -> int:
        """Number of committed traces matching ``pattern``."""
        self._absorb()
        count = self._counts.get(pattern)
        if count is not None:
            return count
        return self._kernel.count_matching(self._orders[pattern])

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

    def vertex_frequency(self, event: Event) -> float:
        return self._log.vertex_frequency(event)

    def edge_frequency(self, source: Event, target: Event) -> float:
        return self._log.edge_frequency(source, target)

    def dependency_graph(self) -> DiGraph:
        """The Definition 1 graph from the incrementally kept counts."""
        return dependency_graph(self._log)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Cross-check every incremental structure against a batch rebuild.

        Rebuilds the log, ``I_t``, dependency counts and every tracked
        pattern frequency from the raw committed traces and compares.
        Raises :class:`DeltaVerificationError` naming the first mismatch;
        silent divergence is the one failure mode an online engine cannot
        tolerate.
        """
        self._absorb()
        self.recovery.verifications += 1
        try:
            self._verify_against_batch()
        except DeltaVerificationError:
            self.recovery.divergences += 1
            raise

    def _verify_against_batch(self) -> None:
        live = self._log
        rebuilt = EventLog(live.traces, name=live.name)

        if self._trace_index.generation != live.generation:
            raise DeltaVerificationError(
                "trace index out of sync: generation "
                f"{self._trace_index.generation} != {live.generation}"
            )
        fresh_index = TraceIndex(rebuilt)
        for event in sorted(rebuilt.alphabet() | live.alphabet()):
            live_postings = frozenset(self._trace_index.postings(event))
            fresh_postings = frozenset(fresh_index.postings(event))
            if live_postings != fresh_postings:
                raise DeltaVerificationError(
                    f"I_t postings diverged for event {event!r}: "
                    f"incremental {sorted(live_postings)} != "
                    f"batch {sorted(fresh_postings)}"
                )

        if live.alphabet() != rebuilt.alphabet():
            raise DeltaVerificationError(
                "alphabet diverged: incremental "
                f"{sorted(live.alphabet())} != batch "
                f"{sorted(rebuilt.alphabet())}"
            )
        for event in sorted(rebuilt.alphabet()):
            if live.vertex_count(event) != rebuilt.vertex_count(event):
                raise DeltaVerificationError(
                    f"vertex count diverged for {event!r}: incremental "
                    f"{live.vertex_count(event)} != batch "
                    f"{rebuilt.vertex_count(event)}"
                )
        if live.edges() != rebuilt.edges():
            raise DeltaVerificationError(
                "dependency edge set diverged: incremental "
                f"{live.edges()} != batch {rebuilt.edges()}"
            )
        for source, target in rebuilt.edges():
            if live.edge_count(source, target) != rebuilt.edge_count(
                source, target
            ):
                raise DeltaVerificationError(
                    f"edge count diverged for ({source!r}, {target!r}): "
                    f"incremental {live.edge_count(source, target)} != "
                    f"batch {rebuilt.edge_count(source, target)}"
                )

        for pattern in self.patterns:
            batch = pattern_frequency(rebuilt, pattern)
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

        Costs O(alphabet + tracked patterns) — generation sync of index
        and kernel, deep counts within ``[0, #traces]``, and one sampled
        trace's membership bits cross-checked both ways against the
        ``I_t`` postings (the sampled trace rotates with the commit
        counter, so repeated checks sweep the backlog).  Designed to run
        inline on the commit path; :meth:`verify` is the expensive full
        cross-check these escalate to.
        """
        self._absorb()
        self.recovery.invariant_checks += 1
        problems: list[str] = []
        log = self._log
        if self._trace_index.generation != log.generation:
            problems.append(
                f"trace index at generation {self._trace_index.generation}, "
                f"log at {log.generation}"
            )
        if self._kernel.generation != log.generation:
            problems.append(
                f"kernel at generation {self._kernel.generation}, "
                f"log at {log.generation}"
            )
        total = len(log)
        for pattern, count in self._counts.items():
            if not 0 <= count <= total:
                problems.append(
                    f"count {count} of pattern {pattern!r} outside "
                    f"[0, {total}]"
                )
        if total and not problems:
            postings = self._trace_index._postings
            for event, bits in postings.items():
                if bits.bit_length() > total:
                    problems.append(
                        f"posting bits of event {event!r} reference a "
                        f"phantom trace beyond id {total - 1}"
                    )
                    break
        if total and not problems:
            trace_id = self._commits_seen % total
            trace_alphabet = log.traces[trace_id].alphabet()
            bit = 1 << trace_id
            postings = self._trace_index._postings
            for event in log.alphabet():
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
        # verify() passed: the spot-check tripped on a transient the full
        # cross-check does not confirm (e.g. a generation race that
        # resolved); nothing to heal.
        return True

    def rebuild(self) -> None:
        """Reconstruct every derived structure from the committed traces.

        The inverted index, frequency kernel and deep pattern counts are
        rebuilt from scratch against the live log; tracked patterns and
        their compiled automata are kept.  This is the recovery action
        behind :meth:`heal`, and is also safe to call directly.  (The
        adaptive absorb path reuses the same reconstruction without
        counting it as a recovery — nothing diverged there.)
        """
        self._rebuild_structures()
        self.recovery.rebuilds += 1

    def _rebuild_structures(self) -> None:
        self._trace_index = TraceIndex(self._log)
        self._kernel = FrequencyKernel(
            self._log, trace_index=self._trace_index
        )
        for pattern, _, _ in self._deep:
            self._counts[pattern] = self._kernel.count_matching(
                self._orders[pattern]
            )
        self._pending = 0
