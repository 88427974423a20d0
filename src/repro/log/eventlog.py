"""Event logs: collections of traces with frequency statistics.

The :class:`EventLog` is the central substrate type.  It owns the trace
collection and exposes exactly the statistics the matching algorithms need:

* ``vertex_frequency(v)`` — fraction of traces containing event ``v``
  (Definition 1, vertex labels);
* ``edge_frequency(u, v)`` — fraction of traces where ``u`` is immediately
  followed by ``v`` at least once (Definition 1, edge labels);
* projections onto event subsets and trace prefixes, used by the paper's
  experiment sweeps over "# of events" and "# of traces".

Every count is a view of the log's one trace index ``I_t``
(:meth:`EventLog.trace_index`, a :class:`~repro.log.index.TraceIndex`):
the alphabet, vertex and edge counts, the dependency edges, the
first-appearance order and the event interner all read its posting
bitsets.  The index is built in one pass on first use.

Logs are *append-only*: batch workflows construct a log once and never
touch it again (the historical regime), while the streaming subsystem
(:mod:`repro.stream`) grows a log one committed trace at a time through
:meth:`EventLog.append_trace`.  An append extends the index in
O(|trace|) — postings only gain bits — so no count can fall behind the
log.  Appends also bump a :attr:`generation` counter, which the
|L|-normalized frequency memo of
:class:`~repro.patterns.matching.PatternFrequencyEvaluator` checks:
using it after the log has grown raises :class:`StaleIndexError` instead
of silently returning frequencies for a log that no longer exists.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from repro.kernel.frequency import iter_bits
from repro.log.events import Event, Trace
from repro.log.index import TraceIndex

if TYPE_CHECKING:
    from repro.kernel.interner import EventInterner


class StaleIndexError(RuntimeError):
    """A frequency memo was used after its log gained new traces.

    :meth:`~repro.patterns.matching.PatternFrequencyEvaluator.refresh`
    drops the memo; frequencies are then recomputed on demand.
    """


class EventLog:
    """An append-only collection of traces.

    Parameters
    ----------
    traces:
        The traces of the log.  Iterables of events are promoted to
        :class:`Trace`.
    name:
        Optional human-readable log name (used in reports).
    """

    def __init__(self, traces: Iterable[Trace | Sequence[Event]], name: str = ""):
        promoted: list[Trace] = []
        for trace in traces:
            if not isinstance(trace, Trace):
                trace = Trace(trace)
            promoted.append(trace)
        self._traces: list[Trace] = promoted
        self._traces_view: tuple[Trace, ...] | None = None
        self._generation = 0
        self.name = name
        self._index: TraceIndex | None = None

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    @property
    def traces(self) -> tuple[Trace, ...]:
        if self._traces_view is None:
            self._traces_view = tuple(self._traces)
        return self._traces_view

    @property
    def generation(self) -> int:
        """Monotone mutation counter; bumped by every committed append."""
        return self._generation

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self._traces)

    def __getitem__(self, index):
        return self._traces[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventLog):
            return self._traces == other._traces
        return NotImplemented

    def __hash__(self) -> int:
        # Hashing is only meaningful for logs used as frozen values (the
        # batch regime); a log mutated after being hashed violates the
        # usual dict-key contract exactly like any mutated Python object.
        return hash(self.traces)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"EventLog({len(self._traces)} traces{label})"

    # ------------------------------------------------------------------
    # Append path (streaming ingestion)
    # ------------------------------------------------------------------
    def append_trace(self, trace: Trace | Sequence[Event]) -> int:
        """Append one committed trace, returning its trace id.

        A built trace index is extended in O(|trace|) — under append its
        postings only gain, never lose — and :attr:`generation` is
        bumped so stale frequency memos fail loudly.
        """
        if not isinstance(trace, Trace):
            trace = Trace(trace)
        if len(trace) == 0:
            raise ValueError("cannot append an empty trace")
        trace_id = len(self._traces)
        self._traces.append(trace)
        self._traces_view = None
        self._generation += 1
        if self._index is not None:
            self._index.add(trace.events)
        return trace_id

    # ------------------------------------------------------------------
    # The trace index I_t and its views
    # ------------------------------------------------------------------
    def trace_index(self) -> TraceIndex:
        """The log's one trace index ``I_t``, built in one pass on first use.

        :meth:`append_trace` keeps it current, so every caller shares
        the same object for the life of the log.
        """
        index = self._index
        if index is None:
            index = self._index = TraceIndex(
                trace.events for trace in self._traces
            )
        return index

    def rebuild_trace_index(self) -> TraceIndex:
        """Replace the trace index with one rebuilt from the traces.

        The recovery path for an index damaged in place; readers look the
        index up through :meth:`trace_index`, so they see the new one.
        """
        self._index = None
        return self.trace_index()

    def interner(self) -> EventInterner:
        """The :class:`~repro.kernel.interner.EventInterner` of the index.

        Dense ids are assigned in first-appearance order and never
        change, so derived structures (bitsets, automata) stay valid as
        the log grows.
        """
        return self.trace_index().interner

    def alphabet(self) -> frozenset[Event]:
        """The distinct events appearing anywhere in the log."""
        return self.trace_index().alphabet()

    def events_in_first_appearance_order(self) -> list[Event]:
        """Distinct events ordered by first appearance in the log.

        The paper's sweeps select "the first x events appearing in the
        dataset"; this is that ordering (the interner's id order).
        """
        return list(self.trace_index().interner.events)

    def vertex_count(self, event: Event) -> int:
        """Number of traces containing ``event`` at least once."""
        return self.trace_index().posting_bits(event).bit_count()

    def edge_count(self, source: Event, target: Event) -> int:
        """Number of traces where ``source`` immediately precedes ``target``."""
        return self.trace_index().bigram_bits(source, target).bit_count()

    def vertex_frequency(self, event: Event) -> float:
        """Normalized frequency of ``event`` (Definition 1)."""
        if not self._traces:
            return 0.0
        return self.vertex_count(event) / len(self._traces)

    def edge_frequency(self, source: Event, target: Event) -> float:
        """Normalized frequency of the consecutive pair (Definition 1)."""
        if not self._traces:
            return 0.0
        return self.edge_count(source, target) / len(self._traces)

    def edges(self) -> list[tuple[Event, Event]]:
        """All consecutive pairs with non-zero frequency, sorted."""
        return self.trace_index().edges()

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------
    def project_events(self, keep: Iterable[Event]) -> "EventLog":
        """Project every trace onto the event subset ``keep``.

        Traces that become empty are dropped so that ``len(log)`` keeps
        denoting the number of non-trivial cases.
        """
        keep_set = frozenset(keep)
        projected = [trace.project(keep_set) for trace in self._traces]
        return EventLog(
            [trace for trace in projected if len(trace) > 0],
            name=self.name,
        )

    def take_traces(self, count: int) -> "EventLog":
        """The sub-log of the first ``count`` traces."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return EventLog(self._traces[:count], name=self.name)

    def rename_events(self, mapping: dict[Event, Event]) -> "EventLog":
        """A copy of the log with events renamed through ``mapping``."""
        return EventLog(
            [trace.rename(mapping) for trace in self._traces],
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Trace-level queries
    # ------------------------------------------------------------------
    def count_traces_with_any_substring(
        self, sequences: Iterable[Sequence[Event]]
    ) -> int:
        """Traces containing at least one of ``sequences`` as a substring.

        This is exactly the pattern-frequency primitive: ``sequences`` is
        the allowed-order set ``I(p)`` of a pattern, and a trace matches the
        pattern when some allowed order occurs contiguously (Definition 4).
        All sequences of a pattern share the same event set, so a single
        posting-list intersection covers every alternative.

        This is the *naive* per-order scan of the :class:`Trace` objects,
        kept as the oracle;
        :class:`~repro.kernel.frequency.FrequencyKernel` answers the
        same query through bigram bitsets and Aho–Corasick automata.
        """
        needles = [tuple(sequence) for sequence in sequences]
        if not needles:
            return 0
        events = set(needles[0])
        for needle in needles[1:]:
            if set(needle) != events:
                raise ValueError(
                    "all sequences of a pattern must share one event set"
                )
        traces = self._traces
        candidates = self.trace_index().candidate_bits(events)
        return sum(
            1
            for trace_id in iter_bits(candidates)
            if any(traces[trace_id].contains_substring(n) for n in needles)
        )

    def variant_counts(self) -> Counter[tuple[Event, ...]]:
        """Multiplicity of each distinct trace (process-mining "variants")."""
        return Counter(trace.events for trace in self._traces)
