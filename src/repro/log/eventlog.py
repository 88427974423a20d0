"""Event logs: collections of traces with frequency statistics.

The :class:`EventLog` is the central substrate type.  It owns the trace
collection and exposes exactly the statistics the matching algorithms need:

* ``vertex_frequency(v)`` — fraction of traces containing event ``v``
  (Definition 1, vertex labels);
* ``edge_frequency(u, v)`` — fraction of traces where ``u`` is immediately
  followed by ``v`` at least once (Definition 1, edge labels);
* projections onto event subsets and trace prefixes, used by the paper's
  experiment sweeps over "# of events" and "# of traces".

Logs are *append-only*: batch workflows construct a log once and never
touch it again (the historical regime), while the streaming subsystem
(:mod:`repro.stream`) grows a log one committed trace at a time through
:meth:`EventLog.append_trace`.  Appending maintains the alphabet and the
vertex/edge counts incrementally — counts are monotone under append, so a
new trace only ever *adds* to them — and bumps a :attr:`generation`
counter.  Derived structures (the ``I_t`` trace index, frequency
evaluators) record the generation they were built against and fail loudly
with :class:`StaleIndexError` when used after the log has grown, instead
of silently returning frequencies for a log that no longer exists.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

from repro.log.events import Event, Trace


class StaleIndexError(RuntimeError):
    """A derived index/cache was used after its log gained new traces.

    Consumers that can catch up incrementally expose a ``refresh()``
    method; everything else must be rebuilt from a fresh snapshot.
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
        self._alphabet: frozenset[Event] | None = None
        self._vertex_counts: Counter[Event] | None = None
        self._edge_counts: Counter[tuple[Event, Event]] | None = None
        self._interner = None  # lazy repro.kernel.interner.EventInterner

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

        Statistics already materialized (alphabet, vertex/edge counts)
        are updated incrementally — under append they only gain, never
        lose — and :attr:`generation` is bumped so stale derived indices
        fail loudly.
        """
        if not isinstance(trace, Trace):
            trace = Trace(trace)
        if len(trace) == 0:
            raise ValueError("cannot append an empty trace")
        trace_id = len(self._traces)
        self._traces.append(trace)
        self._traces_view = None
        self._generation += 1
        if self._alphabet is not None:
            self._alphabet |= trace.alphabet()
        if self._vertex_counts is not None:
            assert self._edge_counts is not None
            events = trace.events
            self._vertex_counts.update(set(events))
            self._edge_counts.update(
                {(events[i], events[i + 1]) for i in range(len(events) - 1)}
            )
        if self._interner is not None:
            self._interner.absorb(trace.events)
        return trace_id

    # ------------------------------------------------------------------
    # Interning (the repro.kernel fast path)
    # ------------------------------------------------------------------
    def interner(self):
        """The log's :class:`~repro.kernel.interner.EventInterner`.

        Built lazily over the committed traces on first access; once
        materialized, :meth:`append_trace` keeps it synced in O(|trace|)
        exactly like the alphabet and vertex/edge counts.  Dense ids are
        assigned in first-appearance order and never change, so derived
        structures (bitsets, automata) stay valid as the log grows.
        """
        if self._interner is None:
            # Local import: repro.kernel sits above the log substrate.
            from repro.kernel.interner import EventInterner

            interner = EventInterner()
            for trace in self._traces:
                interner.absorb(trace.events)
            self._interner = interner
        return self._interner

    # ------------------------------------------------------------------
    # Alphabet and frequencies
    # ------------------------------------------------------------------
    def alphabet(self) -> frozenset[Event]:
        """The distinct events appearing anywhere in the log."""
        if self._alphabet is None:
            events: set[Event] = set()
            for trace in self._traces:
                events.update(trace.events)
            self._alphabet = frozenset(events)
        return self._alphabet

    def events_in_first_appearance_order(self) -> list[Event]:
        """Distinct events ordered by first appearance in the log.

        The paper's sweeps select "the first x events appearing in the
        dataset"; this is that ordering.
        """
        seen: dict[Event, None] = {}
        for trace in self._traces:
            for event in trace:
                if event not in seen:
                    seen[event] = None
        return list(seen)

    def ensure_statistics(self) -> None:
        """Materialize the vertex/edge counts now.

        Once materialized, :meth:`append_trace` maintains them
        incrementally; streaming consumers call this up-front so every
        later append is O(|trace|) instead of deferring a full recount.
        """
        self._ensure_counts()
        self.alphabet()

    def _ensure_counts(self) -> None:
        if self._vertex_counts is not None:
            return
        vertex_counts: Counter[Event] = Counter()
        edge_counts: Counter[tuple[Event, Event]] = Counter()
        for trace in self._traces:
            events = trace.events
            vertex_counts.update(set(events))
            pairs = {
                (events[i], events[i + 1]) for i in range(len(events) - 1)
            }
            edge_counts.update(pairs)
        self._vertex_counts = vertex_counts
        self._edge_counts = edge_counts

    def vertex_count(self, event: Event) -> int:
        """Number of traces containing ``event`` at least once."""
        self._ensure_counts()
        assert self._vertex_counts is not None
        return self._vertex_counts[event]

    def edge_count(self, source: Event, target: Event) -> int:
        """Number of traces where ``source`` immediately precedes ``target``."""
        self._ensure_counts()
        assert self._edge_counts is not None
        return self._edge_counts[(source, target)]

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
        """All consecutive pairs with non-zero frequency."""
        self._ensure_counts()
        assert self._edge_counts is not None
        return sorted(self._edge_counts)

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
    def count_traces_with_substring(self, needle: Sequence[Event]) -> int:
        """Number of traces containing ``needle`` as a contiguous run."""
        needle = tuple(needle)
        return sum(1 for trace in self._traces if trace.contains_substring(needle))

    def variant_counts(self) -> Counter[tuple[Event, ...]]:
        """Multiplicity of each distinct trace (process-mining "variants")."""
        return Counter(trace.events for trace in self._traces)
